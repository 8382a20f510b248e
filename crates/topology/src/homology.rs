//! Simplicial homology over GF(2) and connectivity checks.
//!
//! The paper's lower-bound machinery is phrased in terms of `(k−1)`-
//! connectivity of (sub)complexes of the protocol complex.  Deciding
//! topological `q`-connectivity exactly is undecidable in general, but the
//! standard computational proxy in the topology-of-distributed-computing
//! literature is the vanishing of the reduced homology groups up to
//! dimension `q`.  Over GF(2) these reduce to rank computations on boundary
//! matrices, which is what this module implements.

use crate::{Simplex, SimplicialComplex};

/// The reduced GF(2) Betti numbers `β̃_0, β̃_1, …` of a complex, up to the
/// complex's dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BettiNumbers {
    reduced: Vec<usize>,
}

impl BettiNumbers {
    /// Returns the reduced Betti number `β̃_d`, or 0 beyond the complex's
    /// dimension.
    pub fn reduced(&self, d: usize) -> usize {
        self.reduced.get(d).copied().unwrap_or(0)
    }

    /// Returns all computed reduced Betti numbers in dimension order.
    pub fn all(&self) -> &[usize] {
        &self.reduced
    }

    /// Returns `true` if `β̃_0 = … = β̃_q = 0`, the homological proxy for
    /// `q`-connectivity used throughout this reproduction.
    pub fn is_connected_up_to(&self, q: usize) -> bool {
        (0..=q).all(|d| self.reduced(d) == 0)
    }
}

/// A GF(2) matrix stored column-wise as bit vectors, sufficient for the rank
/// computations of boundary maps.
#[derive(Debug, Clone)]
struct Gf2Matrix {
    rows: usize,
    columns: Vec<Vec<u64>>,
}

impl Gf2Matrix {
    fn new(rows: usize) -> Self {
        Gf2Matrix { rows, columns: Vec::new() }
    }

    fn add_column(&mut self, one_rows: impl IntoIterator<Item = usize>) {
        let mut column = vec![0u64; self.rows.div_ceil(64)];
        for row in one_rows {
            column[row / 64] |= 1 << (row % 64);
        }
        self.columns.push(column);
    }

    /// Computes the rank by Gaussian elimination over GF(2).
    fn rank(mut self) -> usize {
        let mut rank = 0;
        let words = self.rows.div_ceil(64);
        let mut pivot_row = 0;
        while pivot_row < self.rows && rank < self.columns.len() {
            let word = pivot_row / 64;
            let bit = 1u64 << (pivot_row % 64);
            // Find a column with a 1 in the pivot row, among the unused ones.
            if let Some(pivot_col) =
                (rank..self.columns.len()).find(|&c| self.columns[c][word] & bit != 0)
            {
                self.columns.swap(rank, pivot_col);
                // Eliminate the pivot row from every other column.
                for c in 0..self.columns.len() {
                    if c != rank && self.columns[c][word] & bit != 0 {
                        for w in 0..words {
                            let pivot_word = self.columns[rank][w];
                            self.columns[c][w] ^= pivot_word;
                        }
                    }
                }
                rank += 1;
            }
            pivot_row += 1;
        }
        rank
    }
}

/// Computes the reduced GF(2) Betti numbers of a complex.
///
/// For the empty complex all reduced Betti numbers are zero by convention
/// (the paper never evaluates connectivity of an empty subcomplex).
pub fn betti_numbers(complex: &SimplicialComplex) -> BettiNumbers {
    let Some(dimension) = complex.dimension() else {
        return BettiNumbers { reduced: Vec::new() };
    };

    // Index the simplices of each dimension.
    let mut by_dim: Vec<Vec<&Simplex>> = vec![Vec::new(); dimension + 1];
    for simplex in complex.simplices() {
        by_dim[simplex.dimension()].push(simplex);
    }
    let index_of = |dim: usize, simplex: &Simplex| -> usize {
        by_dim[dim]
            .binary_search_by(|probe| probe.cmp(&simplex))
            .expect("faces of stored simplices are stored")
    };

    // rank of ∂_d for d = 0..=dimension+1, where ∂_0 is the augmentation map
    // (every vertex maps to the single generator of GF(2)).
    let mut ranks = vec![0usize; dimension + 2];
    // Augmentation: a 1 × n_0 matrix of ones has rank 1 whenever n_0 > 0.
    ranks[0] = usize::from(!by_dim[0].is_empty());
    for d in 1..=dimension {
        let mut matrix = Gf2Matrix::new(by_dim[d - 1].len());
        for simplex in &by_dim[d] {
            matrix.add_column(simplex.boundary().map(|face| index_of(d - 1, &face)));
        }
        ranks[d] = matrix.rank();
    }
    ranks[dimension + 1] = 0;

    let reduced = (0..=dimension).map(|d| by_dim[d].len() - ranks[d] - ranks[d + 1]).collect();
    BettiNumbers { reduced }
}

/// Returns the number of connected components of the complex (0 for the
/// empty complex).
pub fn connected_components(complex: &SimplicialComplex) -> usize {
    if complex.is_empty() {
        return 0;
    }
    betti_numbers(complex).reduced(0) + 1
}

/// Returns `true` if the complex is non-empty and its reduced homology
/// vanishes up to dimension `q` — the computational proxy for
/// `q`-connectivity.
pub fn is_q_connected(complex: &SimplicialComplex, q: usize) -> bool {
    !complex.is_empty() && betti_numbers(complex).is_connected_up_to(q)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(vertices: impl IntoIterator<Item = usize>) -> SimplicialComplex {
        SimplicialComplex::from_simplices([Simplex::new(vertices)])
    }

    fn sphere(dim: usize) -> SimplicialComplex {
        // Boundary of a (dim+1)-simplex.
        SimplicialComplex::from_simplices(Simplex::new(0..=dim + 1).boundary())
    }

    #[test]
    fn a_full_simplex_is_highly_connected() {
        let complex = full(0..4);
        let betti = betti_numbers(&complex);
        assert_eq!(betti.all(), &[0, 0, 0, 0]);
        assert!(is_q_connected(&complex, 2));
        assert_eq!(connected_components(&complex), 1);
    }

    #[test]
    fn two_disjoint_edges_are_disconnected() {
        let complex =
            SimplicialComplex::from_simplices([Simplex::new([0, 1]), Simplex::new([2, 3])]);
        assert_eq!(connected_components(&complex), 2);
        assert_eq!(betti_numbers(&complex).reduced(0), 1);
        assert!(!is_q_connected(&complex, 0));
    }

    #[test]
    fn the_circle_is_connected_but_not_one_connected() {
        let circle = sphere(1); // boundary of a triangle
        let betti = betti_numbers(&circle);
        assert_eq!(betti.reduced(0), 0);
        assert_eq!(betti.reduced(1), 1);
        assert!(is_q_connected(&circle, 0));
        assert!(!is_q_connected(&circle, 1));
    }

    #[test]
    fn the_two_sphere_has_a_two_dimensional_hole() {
        let s2 = sphere(2);
        let betti = betti_numbers(&s2);
        assert_eq!(betti.reduced(0), 0);
        assert_eq!(betti.reduced(1), 0);
        assert_eq!(betti.reduced(2), 1);
        assert!(is_q_connected(&s2, 1));
        assert!(!is_q_connected(&s2, 2));
    }

    #[test]
    fn the_empty_complex_is_never_connected() {
        let empty = SimplicialComplex::new();
        assert_eq!(connected_components(&empty), 0);
        assert!(!is_q_connected(&empty, 0));
        assert!(betti_numbers(&empty).all().is_empty());
    }

    #[test]
    fn euler_characteristic_matches_betti_numbers_on_examples() {
        // χ = Σ (−1)^d n_d = 1 + Σ (−1)^d β̃_d  over GF(2)-acyclic-free cases
        // where homology has no torsion (always true over a field).
        for complex in [full(0..3), sphere(1), sphere(2)] {
            let betti = betti_numbers(&complex);
            let alternating: i64 = betti
                .all()
                .iter()
                .enumerate()
                .map(|(d, &b)| if d % 2 == 0 { b as i64 } else { -(b as i64) })
                .sum();
            assert_eq!(complex.euler_characteristic(), 1 + alternating);
        }
    }

    #[test]
    fn a_wedge_of_circles_has_first_betti_two() {
        // Two triangles sharing the vertex 0.
        let complex = SimplicialComplex::from_simplices([
            Simplex::new([0, 1]),
            Simplex::new([1, 2]),
            Simplex::new([0, 2]),
            Simplex::new([0, 3]),
            Simplex::new([3, 4]),
            Simplex::new([0, 4]),
        ]);
        let betti = betti_numbers(&complex);
        assert_eq!(betti.reduced(0), 0);
        assert_eq!(betti.reduced(1), 2);
    }
}
