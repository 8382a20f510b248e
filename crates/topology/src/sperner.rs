//! Sperner colorings and Sperner's lemma (Lemma 4 of the paper).
//!
//! A *Sperner coloring* of a subdivision maps every subdivision vertex to a
//! vertex of its carrier.  Sperner's lemma states that any such coloring
//! produces an **odd** number of fully-colored full-dimensional simplices —
//! the pigeonhole engine behind the topological proof of Lemma 1.

use crate::{Simplex, Subdivision};

/// A coloring of a subdivision's vertices by vertices of the base simplex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coloring {
    colors: Vec<usize>,
}

impl Coloring {
    /// Creates a coloring from per-vertex colors, indexed by subdivision
    /// vertex identifier.
    pub fn new(colors: Vec<usize>) -> Self {
        Coloring { colors }
    }

    /// Builds a coloring by applying `rule` to every subdivision vertex.
    pub fn from_rule(subdivision: &Subdivision, mut rule: impl FnMut(usize) -> usize) -> Self {
        Coloring { colors: (0..subdivision.num_vertices()).map(&mut rule).collect() }
    }

    /// Builds the canonical Sperner coloring that maps every vertex to the
    /// smallest vertex of its carrier.
    pub fn min_of_carrier(subdivision: &Subdivision) -> Self {
        Coloring::from_rule(subdivision, |id| {
            subdivision.carrier(id).vertices().min().expect("carriers are non-empty")
        })
    }

    /// Returns the color of a subdivision vertex.
    pub fn color(&self, id: usize) -> usize {
        self.colors[id]
    }

    /// Returns the number of colored vertices.
    pub fn len(&self) -> usize {
        self.colors.len()
    }

    /// Returns `true` if no vertex is colored.
    pub fn is_empty(&self) -> bool {
        self.colors.is_empty()
    }
}

/// Returns `true` if the coloring is a Sperner coloring of the subdivision:
/// every vertex receives a vertex of its own carrier.
pub fn is_sperner_coloring(subdivision: &Subdivision, coloring: &Coloring) -> bool {
    coloring.len() == subdivision.num_vertices()
        && (0..subdivision.num_vertices())
            .all(|id| subdivision.carrier(id).contains(coloring.color(id)))
}

/// Counts the full-dimensional simplices of the subdivision whose vertices
/// receive pairwise distinct colors (and therefore all base-simplex colors).
pub fn fully_colored_facets(subdivision: &Subdivision, coloring: &Coloring) -> usize {
    subdivision.full_facets().filter(|facet| is_fully_colored(facet, coloring)).count()
}

fn is_fully_colored(facet: &Simplex, coloring: &Coloring) -> bool {
    let colors: std::collections::BTreeSet<usize> =
        facet.vertices().map(|id| coloring.color(id)).collect();
    colors.len() == facet.len()
}

/// Verifies Sperner's lemma for a concrete subdivision and coloring: the
/// coloring is Sperner and the number of fully-colored facets is odd.
pub fn verify_sperner_lemma(subdivision: &Subdivision, coloring: &Coloring) -> bool {
    is_sperner_coloring(subdivision, coloring)
        && fully_colored_facets(subdivision, coloring) % 2 == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simplex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_sperner_coloring(subdivision: &Subdivision, seed: u64) -> Coloring {
        let mut rng = StdRng::seed_from_u64(seed);
        Coloring::from_rule(subdivision, |id| {
            let carrier: Vec<usize> = subdivision.carrier(id).vertices().collect();
            carrier[rng.random_range(0..carrier.len())]
        })
    }

    #[test]
    fn min_of_carrier_is_a_sperner_coloring() {
        for k in 1..=4usize {
            let base = Simplex::new(0..=k);
            for sub in [Subdivision::barycentric(&base), Subdivision::paper_div(&base)] {
                let coloring = Coloring::min_of_carrier(&sub);
                assert!(is_sperner_coloring(&sub, &coloring));
                assert!(verify_sperner_lemma(&sub, &coloring), "k = {k}");
            }
        }
    }

    #[test]
    fn random_sperner_colorings_always_have_an_odd_count() {
        for k in 1..=3usize {
            let base = Simplex::new(0..=k);
            for sub in [Subdivision::barycentric(&base), Subdivision::paper_div(&base)] {
                for seed in 0..30u64 {
                    let coloring = random_sperner_coloring(&sub, seed);
                    assert!(is_sperner_coloring(&sub, &coloring));
                    let count = fully_colored_facets(&sub, &coloring);
                    assert_eq!(count % 2, 1, "k = {k}, seed {seed}: count {count}");
                }
            }
        }
    }

    #[test]
    fn non_sperner_colorings_are_detected() {
        let base = Simplex::new([0, 1, 2]);
        let sub = Subdivision::barycentric(&base);
        // Color everything with 0, which is not in every carrier.
        let coloring = Coloring::from_rule(&sub, |_| 0);
        assert!(!is_sperner_coloring(&sub, &coloring));
    }

    #[test]
    fn trivial_subdivision_has_exactly_one_fully_colored_facet() {
        let base = Simplex::new([0, 1, 2]);
        let sub = Subdivision::trivial(&base);
        // The identity coloring (each original vertex keeps its label).
        let coloring = Coloring::from_rule(&sub, |id| {
            sub.carrier(id).vertices().next().expect("original vertex")
        });
        assert!(is_sperner_coloring(&sub, &coloring));
        assert_eq!(fully_colored_facets(&sub, &coloring), 1);
        assert!(verify_sperner_lemma(&sub, &coloring));
    }

    #[test]
    fn coloring_accessors() {
        let coloring = Coloring::new(vec![0, 1, 2]);
        assert_eq!(coloring.color(1), 1);
        assert_eq!(coloring.len(), 3);
        assert!(!coloring.is_empty());
    }
}
