//! Scenario sources: adapters from the `adversary` generators to the
//! engine's randomly-addressable [`ScenarioSource`] interface.

use std::sync::{Arc, OnceLock};

use adversary::enumerate::{AdversaryCursor, AdversarySpace};
use adversary::symmetry::{self, OrbitTable};
use adversary::{RandomAdversaries, RandomConfig};
use set_consensus::{TaskParams, TaskVariant};
use synchrony::{Adversary, InputVector, ModelError};

use crate::engine::{CursorStats, Scenario, ScenarioCursor, ScenarioSource};

/// The exhaustive adversary space of an enumeration scope, every adversary
/// executed under the same task parameters.
///
/// Random access is delegated to [`AdversarySpace::nth`], so a shard's
/// first scenario costs the same as any other — no sequential replay.
///
/// Built with [`ExhaustiveSource::new`] it yields every adversary, each
/// with weight 1.  Built with [`ExhaustiveSource::symmetric`] it yields
/// only the canonical pattern of each process-renaming orbit (crossed with
/// every input vector), each scenario weighted by its orbit size; the full
/// source is the oracle the reduced one is tested against.
#[derive(Debug, Clone)]
pub struct ExhaustiveSource {
    space: AdversarySpace,
    params: TaskParams,
    variant: TaskVariant,
    /// `None` for the full enumeration; for a symmetric source, the orbit
    /// table, looked up on first use (building it costs milliseconds, so
    /// constructing a source stays free).
    orbits: Option<OnceLock<Arc<OrbitTable>>>,
}

impl ExhaustiveSource {
    /// Wraps an adversary space.
    ///
    /// # Errors
    ///
    /// Returns an error if the space is too large to index on this platform
    /// (more than `usize::MAX` adversaries).
    pub fn new(
        space: AdversarySpace,
        params: TaskParams,
        variant: TaskVariant,
    ) -> Result<Self, ModelError> {
        if space.len() > usize::MAX as u128 {
            return Err(ModelError::InvalidTaskParameter {
                reason: format!(
                    "enumeration scope of {} adversaries exceeds the addressable sweep size",
                    space.len()
                ),
            });
        }
        Ok(ExhaustiveSource { space, params, variant, orbits: None })
    }

    /// Wraps an adversary space, sweeping one canonical pattern per
    /// process-renaming orbit (see `adversary::symmetry`).
    ///
    /// Sound only for jobs whose outcome is invariant under renaming the
    /// processes of the adversary, and for spaces closed under renaming
    /// (both built-in pattern spaces are).  A space too large to tabulate
    /// (`symmetry::reducible` is false) is swept in full instead.
    ///
    /// # Errors
    ///
    /// Same as [`ExhaustiveSource::new`].
    pub fn symmetric(
        space: AdversarySpace,
        params: TaskParams,
        variant: TaskVariant,
    ) -> Result<Self, ModelError> {
        let mut source = Self::new(space, params, variant)?;
        if symmetry::reducible(source.space.pattern_space()) {
            source.orbits = Some(OnceLock::new());
        }
        Ok(source)
    }

    /// Returns the underlying (full) adversary space.
    pub fn space(&self) -> &AdversarySpace {
        &self.space
    }

    /// Returns the orbit table of a symmetric source, `None` for a full one.
    pub fn orbits(&self) -> Option<&OrbitTable> {
        let cell = self.orbits.as_ref()?;
        Some(cell.get_or_init(|| symmetry::orbits(self.space.pattern_space())))
    }
}

impl ScenarioSource for ExhaustiveSource {
    fn len(&self) -> usize {
        match self.orbits() {
            Some(orbits) => orbits.len() * self.structure_block(),
            None => self.space.len() as usize,
        }
    }

    fn scenario(&self, index: usize) -> Result<Scenario, ModelError> {
        let block = self.structure_block();
        let (rank, weight) = match self.orbits() {
            Some(orbits) => (orbits.ranks()[index / block], orbits.weights()[index / block]),
            None => ((index / block) as u128, 1),
        };
        Ok(Scenario {
            index,
            params: self.params,
            variant: self.variant,
            adversary: self.space.nth(rank * block as u128 + (index % block) as u128),
            weight,
        })
    }

    /// The enumeration is pattern-major: each failure pattern spans one
    /// contiguous block of `inputs_per_pattern()` scenarios, so a whole
    /// block shares one communication structure.  (The cast cannot
    /// truncate: the constructor rejects spaces beyond `usize::MAX`, and a
    /// block never exceeds the space.)
    fn structure_block(&self) -> usize {
        self.space.inputs_per_pattern() as usize
    }

    /// The block cursor: the failure pattern is unranked once per structure
    /// block and the mixed-radix input code is stepped in place inside the
    /// worker's scratch scenario — zero per-scenario pattern/input
    /// allocations in steady state, versus a full [`AdversarySpace::nth`]
    /// materialization per index on the default path.
    ///
    /// A symmetric source walks its canonical pattern ranks through
    /// [`AdversarySpace::cursor_over`], with the same counters.
    fn cursor(&self, start: usize, end: usize) -> Box<dyn ScenarioCursor + '_> {
        let (start_u, end_u) = (start as u128, end as u128);
        let (inner, weights) = match self.orbits() {
            Some(orbits) => {
                (self.space.cursor_over(orbits.ranks(), start_u, end_u), orbits.weights())
            }
            None => (self.space.cursor(start_u, end_u), &[][..]),
        };
        Box::new(BlockCursor {
            inner,
            weights,
            block: self.structure_block(),
            n: self.space.n(),
            params: self.params,
            variant: self.variant,
            index: start,
        })
    }
}

/// [`ExhaustiveSource`]'s cursor: a thin scenario-level wrapper around
/// [`AdversaryCursor`], which does the actual in-place stepping.
struct BlockCursor<'a> {
    inner: AdversaryCursor<'a>,
    /// Orbit size per block; empty for the full enumeration (weight 1).
    weights: &'a [u64],
    block: usize,
    n: usize,
    params: TaskParams,
    variant: TaskVariant,
    /// Index of the next scenario to yield.
    index: usize,
}

impl ScenarioCursor for BlockCursor<'_> {
    fn next(&mut self, scratch: &mut Option<Scenario>) -> Result<bool, ModelError> {
        let scenario = match scratch {
            Some(scenario) => scenario,
            // Seed the slot once per worker; the inner cursor's first
            // advance overwrites the placeholder adversary wholesale, so
            // its contents never surface.
            None => scratch.insert(Scenario {
                index: 0,
                params: self.params,
                variant: self.variant,
                adversary: Adversary::failure_free(InputVector::uniform(self.n, 0))
                    .expect("enumeration scopes have at least two processes"),
                weight: 1,
            }),
        };
        if !self.inner.advance(&mut scenario.adversary) {
            return Ok(false);
        }
        scenario.index = self.index;
        scenario.params = self.params;
        scenario.variant = self.variant;
        scenario.weight = self.weights.get(self.index / self.block).copied().unwrap_or(1);
        self.index += 1;
        Ok(true)
    }

    fn stats(&self) -> CursorStats {
        self.inner.counters()
    }
}

/// A counter-based stream of seeded random scenarios.
///
/// Scenario `i` is drawn from a fresh generator seeded with
/// `mix(seed, i)`, not from position `i` of one sequential stream.  This
/// is what makes the source randomly addressable — and therefore makes the
/// sweep result independent of how the space is sharded, which a shared
/// sequential generator could never be.
#[derive(Debug, Clone)]
pub struct RandomSource {
    config: RandomConfig,
    params: TaskParams,
    variant: TaskVariant,
    seed: u64,
    count: usize,
}

impl RandomSource {
    /// Creates a stream of `count` scenarios from the given seed.
    pub fn new(
        config: RandomConfig,
        params: TaskParams,
        variant: TaskVariant,
        seed: u64,
        count: usize,
    ) -> Self {
        RandomSource { config, params, variant, seed, count }
    }

    /// SplitMix64-style mixing of the stream seed and the scenario index
    /// into a per-scenario generator seed.
    fn stream_seed(seed: u64, index: u64) -> u64 {
        let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl ScenarioSource for RandomSource {
    fn len(&self) -> usize {
        self.count
    }

    fn scenario(&self, index: usize) -> Result<Scenario, ModelError> {
        let seed = Self::stream_seed(self.seed, index as u64);
        let adversary = RandomAdversaries::new(self.config, seed).next_adversary();
        Ok(Scenario { index, params: self.params, variant: self.variant, adversary, weight: 1 })
    }
}

/// A pre-materialized list of scenarios — the adapter for the named
/// scenario families of `adversary::scenarios`, where each point of the
/// family may carry different task parameters.
#[derive(Debug, Clone, Default)]
pub struct FixedSource {
    scenarios: Vec<Scenario>,
}

impl FixedSource {
    /// Wraps a list of scenarios, re-indexing them by position.
    pub fn new(mut scenarios: Vec<Scenario>) -> Self {
        for (index, scenario) in scenarios.iter_mut().enumerate() {
            scenario.index = index;
        }
        FixedSource { scenarios }
    }
}

impl ScenarioSource for FixedSource {
    fn len(&self) -> usize {
        self.scenarios.len()
    }

    fn scenario(&self, index: usize) -> Result<Scenario, ModelError> {
        Ok(self.scenarios[index].clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adversary::enumerate::EnumerationConfig;
    use synchrony::SystemParams;

    fn params() -> TaskParams {
        TaskParams::new(SystemParams::new(3, 1).unwrap(), 1).unwrap()
    }

    #[test]
    fn exhaustive_source_matches_space_order() {
        let space = AdversarySpace::new(EnumerationConfig::small(3, 1, 1)).unwrap();
        let source =
            ExhaustiveSource::new(space.clone(), params(), TaskVariant::Nonuniform).unwrap();
        assert_eq!(source.len() as u128, space.len());
        for index in [0usize, 1, source.len() - 1] {
            let scenario = source.scenario(index).unwrap();
            assert_eq!(scenario.index, index);
            assert_eq!(scenario.adversary, space.nth(index as u128));
        }
    }

    /// Satellite acceptance: the scenario-level block cursor yields exactly
    /// the `(index, FailurePattern, InputVector)` sequence of repeated
    /// `scenario()` calls over random ranges, including ranges that start
    /// mid-block and straddle block boundaries — and its counters show the
    /// steady state materializing nothing.
    #[test]
    fn exhaustive_cursor_matches_per_index_scenarios() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let space = AdversarySpace::new(EnumerationConfig::small(3, 1, 1)).unwrap();
        let source = ExhaustiveSource::new(space, params(), TaskVariant::Nonuniform).unwrap();
        let total = source.len();
        let block = source.structure_block();
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        for trial in 0..25u32 {
            let (start, end) = match trial {
                0 => (0, total),
                1 => (block / 2, total.min(block * 2 + block / 2)),
                2 => (total, total),
                _ => {
                    let a = rng.random_range(0..total as u64) as usize;
                    let b = rng.random_range(0..=total as u64) as usize;
                    (a.min(b), a.max(b))
                }
            };
            let mut cursor = source.cursor(start, end);
            // A stale scratch from "another shard" must be overwritten.
            let mut scratch = Some(source.scenario(0).unwrap());
            let mut index = start;
            while cursor.next(&mut scratch).unwrap() {
                let yielded = scratch.as_ref().unwrap();
                let expected = source.scenario(index).unwrap();
                assert_eq!(yielded.index, expected.index, "range {start}..{end}");
                assert_eq!(yielded.adversary, expected.adversary, "range {start}..{end}");
                assert_eq!(yielded.params, expected.params);
                assert_eq!(yielded.variant, expected.variant);
                index += 1;
            }
            assert_eq!(index, end, "cursor stopped early on {start}..{end}");
            let stats = cursor.stats();
            assert_eq!(stats.total() as usize, end - start);
            assert_eq!(stats.materialized, u64::from(end > start));
        }
    }

    #[test]
    fn random_source_is_deterministic_and_addressable() {
        let config = RandomConfig::new(5, 2, 2);
        let source = RandomSource::new(config, params(), TaskVariant::Uniform, 7, 10);
        let again = RandomSource::new(config, params(), TaskVariant::Uniform, 7, 10);
        let other_seed = RandomSource::new(config, params(), TaskVariant::Uniform, 8, 10);
        for index in 0..source.len() {
            let a = source.scenario(index).unwrap().adversary;
            // Same (seed, index) ⇒ same adversary, in any access order.
            assert_eq!(a, again.scenario(index).unwrap().adversary);
            assert_ne!(a, other_seed.scenario(index).unwrap().adversary);
        }
        // Distinct indices almost surely differ.
        let first = source.scenario(0).unwrap().adversary;
        let differing = (1..10).filter(|&i| source.scenario(i).unwrap().adversary != first).count();
        assert!(differing > 5, "suspiciously repetitive stream");
    }

    #[test]
    fn fixed_source_reindexes() {
        let adversary = AdversarySpace::new(EnumerationConfig::small(3, 1, 1)).unwrap().nth(0);
        let scenario = Scenario {
            index: 99,
            params: params(),
            variant: TaskVariant::Uniform,
            adversary,
            weight: 1,
        };
        let source = FixedSource::new(vec![scenario.clone(), scenario]);
        assert_eq!(source.scenario(0).unwrap().index, 0);
        assert_eq!(source.scenario(1).unwrap().index, 1);
    }
}
