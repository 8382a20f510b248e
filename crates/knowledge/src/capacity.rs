//! Hidden capacity (Definition 2 of the paper).
//!
//! The *hidden capacity* of `⟨i, m⟩` is the maximum `c` such that for every
//! time `ℓ ≤ m` there exist `c` distinct nodes at time `ℓ` that are hidden
//! from `⟨i, m⟩`.  A hidden path is exactly hidden capacity `≥ 1`; the
//! protocols of the paper decide as soon as the hidden capacity drops
//! below `k`.

use std::fmt;

use synchrony::{Node, PidSet, Time};

/// The hidden capacity of an observer node, together with the per-layer
/// witness pools: for each time `ℓ ≤ m`, the full set of processes whose
/// time-`ℓ` node is hidden from the observer.
///
/// The capacity equals the size of the smallest layer; any choice of
/// `capacity` processes per layer forms a family of witnesses in the sense of
/// Definition 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HiddenCapacity {
    observer: Node,
    hidden_layers: Vec<PidSet>,
    capacity: usize,
}

impl HiddenCapacity {
    /// Builds the capacity record from the per-layer hidden sets (layer `ℓ`
    /// of `hidden_layers` must be the hidden processes at time `ℓ`).
    pub fn from_layers(observer: Node, hidden_layers: Vec<PidSet>) -> Self {
        let capacity = hidden_layers.iter().map(PidSet::len).min().unwrap_or(0);
        HiddenCapacity { observer, hidden_layers, capacity }
    }

    /// Returns the observer node `⟨i, m⟩`.
    pub fn observer(&self) -> Node {
        self.observer
    }

    /// Returns the hidden capacity `HC⟨i, m⟩`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns the set of processes whose node at `time` is hidden from the
    /// observer (the witness pool of that layer).
    ///
    /// # Panics
    ///
    /// Panics if `time` exceeds the observer time.
    pub fn hidden_at(&self, time: Time) -> &PidSet {
        &self.hidden_layers[time.index()]
    }

    /// Iterates over `(time, hidden set)` pairs from time 0 to the observer
    /// time.
    pub fn layers(&self) -> impl Iterator<Item = (Time, &PidSet)> {
        self.hidden_layers.iter().enumerate().map(|(i, s)| (Time::new(i as u32), s))
    }

    /// Returns one concrete family of witnesses in the sense of Definition 2:
    /// for each layer, the `capacity` smallest-index hidden processes.
    /// Returns an empty vector when the capacity is zero.
    pub fn witnesses(&self) -> Vec<Vec<synchrony::ProcessId>> {
        if self.capacity == 0 {
            return Vec::new();
        }
        self.hidden_layers.iter().map(|layer| layer.iter().take(self.capacity).collect()).collect()
    }

    /// Returns `true` if the capacity is at least 1, i.e. a hidden path
    /// exists with respect to the observer.
    pub fn has_hidden_path(&self) -> bool {
        self.capacity >= 1
    }

    /// Returns the time of the thinnest layer — the earliest time with the
    /// fewest hidden nodes, which is what caps the capacity.
    pub fn binding_layer(&self) -> Time {
        let (idx, _) = self
            .hidden_layers
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| s.len())
            .expect("an observer always has at least the time-0 layer");
        Time::new(idx as u32)
    }
}

impl fmt::Display for HiddenCapacity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HC{} = {}", self.observer, self.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synchrony::ProcessId;

    fn node() -> Node {
        Node::new(0, Time::new(2))
    }

    #[test]
    fn capacity_is_the_min_layer_size() {
        let layers = vec![
            [1usize, 2, 3].into_iter().collect(),
            [2usize, 3].into_iter().collect(),
            [1usize, 2, 3, 4].into_iter().collect(),
        ];
        let hc = HiddenCapacity::from_layers(node(), layers);
        assert_eq!(hc.capacity(), 2);
        assert_eq!(hc.binding_layer(), Time::new(1));
        assert!(hc.has_hidden_path());
    }

    #[test]
    fn empty_layer_gives_zero_capacity() {
        let layers =
            vec![[1usize].into_iter().collect(), PidSet::new(), [1usize, 2].into_iter().collect()];
        let hc = HiddenCapacity::from_layers(node(), layers);
        assert_eq!(hc.capacity(), 0);
        assert!(!hc.has_hidden_path());
        assert!(hc.witnesses().is_empty());
    }

    #[test]
    fn witnesses_have_exactly_capacity_entries_per_layer() {
        let layers = vec![
            [1usize, 2, 3].into_iter().collect(),
            [4usize, 5].into_iter().collect(),
            [6usize, 7, 8].into_iter().collect(),
        ];
        let hc = HiddenCapacity::from_layers(node(), layers);
        let witnesses = hc.witnesses();
        assert_eq!(witnesses.len(), 3);
        for layer in &witnesses {
            assert_eq!(layer.len(), 2);
        }
        assert_eq!(witnesses[1], vec![ProcessId::new(4), ProcessId::new(5)]);
    }

    #[test]
    fn hidden_at_exposes_the_full_pool() {
        let layers = vec![[9usize, 3].into_iter().collect(), [3usize].into_iter().collect()];
        let hc = HiddenCapacity::from_layers(Node::new(0, Time::new(1)), layers);
        assert_eq!(hc.hidden_at(Time::ZERO).len(), 2);
        assert_eq!(hc.hidden_at(Time::new(1)).len(), 1);
        assert_eq!(hc.layers().count(), 2);
    }

    #[test]
    fn display_names_the_observer() {
        let hc = HiddenCapacity::from_layers(node(), vec![PidSet::new(); 3]);
        assert!(hc.to_string().contains("⟨p0, 2⟩"));
    }
}
