//! Abstract simplices over integer vertex identifiers.

use std::collections::BTreeSet;
use std::fmt;

/// An abstract simplex: a finite, non-empty set of vertex identifiers.
///
/// The dimension of a simplex is one less than its cardinality; a vertex is a
/// 0-simplex, an edge a 1-simplex, and so on.
///
/// ```
/// use topology::Simplex;
///
/// let triangle = Simplex::new([0, 1, 2]);
/// assert_eq!(triangle.dimension(), 2);
/// assert_eq!(triangle.faces().count(), 7); // all non-empty proper and improper faces
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Simplex {
    vertices: BTreeSet<usize>,
}

impl Simplex {
    /// Creates a simplex from its vertices (duplicates are ignored).
    ///
    /// # Panics
    ///
    /// Panics if the vertex set is empty; the empty simplex is not
    /// representable.
    pub fn new(vertices: impl IntoIterator<Item = usize>) -> Self {
        let vertices: BTreeSet<usize> = vertices.into_iter().collect();
        assert!(!vertices.is_empty(), "a simplex has at least one vertex");
        Simplex { vertices }
    }

    /// Creates the 0-simplex `{vertex}`.
    pub fn vertex(vertex: usize) -> Self {
        Simplex::new([vertex])
    }

    /// Returns the dimension (cardinality minus one).
    pub fn dimension(&self) -> usize {
        self.vertices.len() - 1
    }

    /// Returns the number of vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Returns `false`; a simplex always has at least one vertex.  Provided
    /// for API completeness alongside [`Simplex::len`].
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Returns `true` if `vertex` belongs to the simplex.
    pub fn contains(&self, vertex: usize) -> bool {
        self.vertices.contains(&vertex)
    }

    /// Iterates over the vertices in increasing order.
    pub fn vertices(&self) -> impl Iterator<Item = usize> + '_ {
        self.vertices.iter().copied()
    }

    /// Returns `true` if `self` is a (not necessarily proper) face of `other`.
    pub fn is_face_of(&self, other: &Simplex) -> bool {
        self.vertices.is_subset(&other.vertices)
    }

    /// Returns the face obtained by removing `vertex`, or `None` if the
    /// simplex is a single vertex or does not contain it.
    pub fn without(&self, vertex: usize) -> Option<Simplex> {
        if !self.contains(vertex) || self.len() == 1 {
            return None;
        }
        let vertices: BTreeSet<usize> =
            self.vertices.iter().copied().filter(|&v| v != vertex).collect();
        Some(Simplex { vertices })
    }

    /// Returns the simplex extended by `vertex`.
    pub fn with(&self, vertex: usize) -> Simplex {
        let mut vertices = self.vertices.clone();
        vertices.insert(vertex);
        Simplex { vertices }
    }

    /// Iterates over all non-empty faces, including the simplex itself.
    pub fn faces(&self) -> impl Iterator<Item = Simplex> + '_ {
        let vertices: Vec<usize> = self.vertices.iter().copied().collect();
        let count = 1usize << vertices.len();
        (1..count).map(move |mask| {
            Simplex::new(
                vertices
                    .iter()
                    .enumerate()
                    .filter(|(bit, _)| mask & (1 << bit) != 0)
                    .map(|(_, &v)| v),
            )
        })
    }

    /// Iterates over the codimension-1 faces (the boundary facets).
    pub fn boundary(&self) -> impl Iterator<Item = Simplex> + '_ {
        self.vertices.iter().copied().filter_map(|v| self.without(v))
    }

    /// Returns the union of the two vertex sets (the join of disjoint
    /// simplices, or simply the combined simplex otherwise).
    pub fn union(&self, other: &Simplex) -> Simplex {
        Simplex { vertices: self.vertices.union(&other.vertices).copied().collect() }
    }
}

impl fmt::Display for Simplex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.vertices().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimension_and_membership() {
        let s = Simplex::new([3, 1, 2]);
        assert_eq!(s.dimension(), 2);
        assert!(s.contains(1));
        assert!(!s.contains(0));
        assert_eq!(s.vertices().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn duplicates_are_collapsed() {
        assert_eq!(Simplex::new([1, 1, 2]), Simplex::new([1, 2]));
    }

    #[test]
    #[should_panic(expected = "at least one vertex")]
    fn empty_simplex_is_rejected() {
        let _ = Simplex::new(Vec::<usize>::new());
    }

    #[test]
    fn faces_enumerate_the_power_set_minus_empty() {
        let s = Simplex::new([0, 1, 2]);
        let faces: Vec<Simplex> = s.faces().collect();
        assert_eq!(faces.len(), 7);
        assert!(faces.contains(&Simplex::vertex(0)));
        assert!(faces.contains(&Simplex::new([0, 2])));
        assert!(faces.contains(&s));
    }

    #[test]
    fn boundary_has_dimension_one_less() {
        let s = Simplex::new([0, 1, 2]);
        let boundary: Vec<Simplex> = s.boundary().collect();
        assert_eq!(boundary.len(), 3);
        for face in &boundary {
            assert_eq!(face.dimension(), 1);
            assert!(face.is_face_of(&s));
        }
        assert!(Simplex::vertex(5).boundary().next().is_none());
    }

    #[test]
    fn with_and_without_are_inverse() {
        let s = Simplex::new([0, 1]);
        assert_eq!(s.with(2).without(2), Some(s.clone()));
        assert_eq!(s.without(9), None);
        assert_eq!(Simplex::vertex(0).without(0), None);
    }

    #[test]
    fn union_merges_vertices() {
        let a = Simplex::new([0, 1]);
        let b = Simplex::new([2]);
        assert_eq!(a.union(&b), Simplex::new([0, 1, 2]));
    }
}
