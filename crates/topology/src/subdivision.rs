//! Subdivisions of a simplex: the barycentric subdivision and the paper's
//! `Div σ` variant (Appendix B.1.2), with carrier tracking.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt;

use crate::{Simplex, SimplicialComplex};

/// A vertex of a subdivision: either an original vertex of the base simplex,
/// or a new vertex identified with the face it subdivides.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DivVertex {
    /// An original vertex of the base simplex.
    Original(usize),
    /// A new vertex placed "inside" the given face of the base simplex.
    Face(BTreeSet<usize>),
}

impl DivVertex {
    /// Returns the carrier of this vertex: the smallest face of the base
    /// simplex containing it.
    pub fn carrier(&self) -> Simplex {
        match self {
            DivVertex::Original(v) => Simplex::vertex(*v),
            DivVertex::Face(face) => Simplex::new(face.iter().copied()),
        }
    }
}

impl fmt::Display for DivVertex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DivVertex::Original(v) => write!(f, "{v}"),
            DivVertex::Face(face) => {
                write!(f, "⟨")?;
                for (i, v) in face.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "⟩")
            }
        }
    }
}

/// A subdivision of a base simplex, with carrier tracking.
///
/// The subdivision is stored as a [`SimplicialComplex`] over integer vertex
/// identifiers; [`Subdivision::carrier`] recovers the face of the base
/// simplex that carries each identifier, which is what Sperner colorings are
/// defined against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subdivision {
    base: Simplex,
    complex: SimplicialComplex,
    vertices: Vec<DivVertex>,
}

/// Internal builder interning [`DivVertex`]es as integer identifiers.
#[derive(Debug, Default)]
struct Interner {
    ids: BTreeMap<DivVertex, usize>,
    vertices: Vec<DivVertex>,
}

impl Interner {
    fn id(&mut self, vertex: DivVertex) -> usize {
        if let Some(&id) = self.ids.get(&vertex) {
            return id;
        }
        let id = self.vertices.len();
        self.ids.insert(vertex.clone(), id);
        self.vertices.push(vertex);
        id
    }
}

impl Subdivision {
    /// Returns the trivial subdivision: the base simplex subdivided into
    /// itself.
    pub fn trivial(base: &Simplex) -> Self {
        let mut interner = Interner::default();
        let ids: Vec<usize> =
            base.vertices().map(|v| interner.id(DivVertex::Original(v))).collect();
        let complex = SimplicialComplex::from_simplices([Simplex::new(ids)]);
        Subdivision { base: base.clone(), complex, vertices: interner.vertices }
    }

    /// Builds the barycentric subdivision of `base`: one new vertex per face,
    /// with simplices given by chains of faces ordered by inclusion.
    pub fn barycentric(base: &Simplex) -> Self {
        let mut interner = Interner::default();
        let mut complex = SimplicialComplex::new();
        // Enumerate chains of faces by recursion over the largest element.
        let faces: Vec<Simplex> = base.faces().collect();
        // For every face, the chains ending at that face are the chains of its
        // proper faces extended by it.  A simple way: depth-first over faces
        // ordered by dimension.
        fn chains(top: &Simplex, interner: &mut Interner, complex: &mut SimplicialComplex) {
            // The chain consisting of `top` alone:
            let top_id = interner.id(face_vertex(top));
            complex.add(Simplex::vertex(top_id));
            // Extend chains of proper faces.
            fn extend(
                current: &[usize],
                face: &Simplex,
                interner: &mut Interner,
                complex: &mut SimplicialComplex,
            ) {
                let id = interner.id(face_vertex(face));
                let mut chain = current.to_vec();
                chain.push(id);
                complex.add(Simplex::new(chain.iter().copied()));
                if face.dimension() == 0 {
                    return;
                }
                for sub in face.boundary() {
                    extend(&chain, &sub, interner, complex);
                }
            }
            extend(&[], top, interner, complex);
        }
        fn face_vertex(face: &Simplex) -> DivVertex {
            if face.dimension() == 0 {
                DivVertex::Original(face.vertices().next().expect("vertex"))
            } else {
                DivVertex::Face(face.vertices().collect())
            }
        }
        for face in &faces {
            chains(face, &mut interner, &mut complex);
        }
        Subdivision { base: base.clone(), complex, vertices: interner.vertices }
    }

    /// Builds the paper's subdivision `Div σ` (Appendix B.1.2), which only
    /// subdivides the faces containing the distinguished vertex — the largest
    /// vertex of `base`, playing the role of the high value `k` — and leaves
    /// the edge `{0, k}` (smallest and largest vertex) whole.
    pub fn paper_div(base: &Simplex) -> Self {
        let distinguished = base.vertices().max().expect("non-empty simplex");
        let smallest = base.vertices().min().expect("non-empty simplex");
        let mut interner = Interner::default();
        let mut complex = SimplicialComplex::new();
        let top = div_face(base, distinguished, smallest, &mut interner);
        for simplex in top.simplices() {
            complex.add(simplex.clone());
        }
        Subdivision { base: base.clone(), complex, vertices: interner.vertices }
    }

    /// Returns the base simplex.
    pub fn base(&self) -> &Simplex {
        &self.base
    }

    /// Returns the underlying complex of the subdivision.
    pub fn complex(&self) -> &SimplicialComplex {
        &self.complex
    }

    /// Returns the number of vertices of the subdivision.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Returns the vertex with the given identifier.
    pub fn vertex(&self, id: usize) -> &DivVertex {
        &self.vertices[id]
    }

    /// Returns the carrier of the vertex with the given identifier.
    pub fn carrier(&self, id: usize) -> Simplex {
        self.vertices[id].carrier()
    }

    /// Iterates over the facets of the subdivision that have the full
    /// dimension of the base simplex.
    pub fn full_facets(&self) -> impl Iterator<Item = &Simplex> {
        let dim = self.base.dimension();
        self.complex.simplices_of_dim(dim)
    }

    /// Performs structural sanity checks: every vertex's carrier is a face of
    /// the base, every full-dimensional facet's carriers cover the base, and
    /// the subdivision is pure of the base dimension.
    pub fn is_structurally_valid(&self) -> bool {
        let carriers_ok =
            (0..self.num_vertices()).all(|id| self.carrier(id).is_face_of(&self.base));
        let pure =
            self.complex.is_pure() && self.complex.dimension() == Some(self.base.dimension());
        let facets_cover = self.full_facets().all(|facet| {
            let union = facet
                .vertices()
                .map(|id| self.carrier(id))
                .reduce(|a, b| a.union(&b))
                .expect("facet has vertices");
            union == self.base
        });
        carriers_ok && pure && facets_cover
    }
}

/// Recursively builds `Div σ′` for a face of the base simplex, per the
/// definition in Appendix B.1.2.
fn div_face(
    face: &Simplex,
    distinguished: usize,
    smallest: usize,
    interner: &mut Interner,
) -> SimplicialComplex {
    let original_ids: Vec<usize> =
        face.vertices().map(|v| interner.id(DivVertex::Original(v))).collect();
    let keep_whole = !face.contains(distinguished)
        || (face.dimension() == 1 && face.contains(smallest) && face.contains(distinguished))
        || face.dimension() == 0;
    if keep_whole {
        return SimplicialComplex::from_simplices([Simplex::new(original_ids)]);
    }
    // Cone from the new center vertex over the subdivided boundary.
    let center = interner.id(DivVertex::Face(face.vertices().collect()));
    let mut complex = SimplicialComplex::new();
    complex.add(Simplex::vertex(center));
    for boundary_face in face.boundary() {
        let sub = div_face(&boundary_face, distinguished, smallest, interner);
        for simplex in sub.simplices() {
            complex.add(simplex.clone());
            complex.add(simplex.with(center));
        }
    }
    complex
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::homology;

    #[test]
    fn trivial_subdivision_is_the_simplex_itself() {
        let base = Simplex::new([0, 1, 2]);
        let sub = Subdivision::trivial(&base);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.full_facets().count(), 1);
        assert!(sub.is_structurally_valid());
    }

    #[test]
    fn barycentric_subdivision_of_a_triangle() {
        let base = Simplex::new([0, 1, 2]);
        let sub = Subdivision::barycentric(&base);
        // Vertices: 3 originals + 3 edge centers + 1 face center.
        assert_eq!(sub.num_vertices(), 7);
        // Facets: (dim + 1)! = 6 triangles.
        assert_eq!(sub.full_facets().count(), 6);
        assert!(sub.is_structurally_valid());
        // A subdivision of a simplex is contractible.
        assert!(homology::is_q_connected(sub.complex(), 2));
    }

    #[test]
    fn barycentric_subdivision_of_an_edge() {
        let base = Simplex::new([0, 1]);
        let sub = Subdivision::barycentric(&base);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.full_facets().count(), 2);
        assert!(sub.is_structurally_valid());
    }

    #[test]
    fn paper_div_keeps_faces_without_the_distinguished_vertex_whole() {
        // For σ = {0, 1, 2} with distinguished vertex 2 (the "k" of the
        // paper), the edge {0, 1} and the edge {0, 2} remain whole, while
        // {1, 2} and the triangle itself are subdivided (see Fig. 5, center).
        let base = Simplex::new([0, 1, 2]);
        let sub = Subdivision::paper_div(&base);
        assert!(sub.is_structurally_valid());
        // New vertices: one for {1,2} and one for {0,1,2}.
        assert_eq!(sub.num_vertices(), 5);
        // Facets: the cone from the center over Div(Bd σ), whose boundary has
        // edges {0,1}, {0,2} and the two halves of {1,2} — four triangles.
        assert_eq!(sub.full_facets().count(), 4);
        assert!(homology::is_q_connected(sub.complex(), 1));
    }

    #[test]
    fn paper_div_for_higher_dimension_is_valid_and_contractible() {
        for k in 1..=4usize {
            let base = Simplex::new(0..=k);
            let sub = Subdivision::paper_div(&base);
            assert!(sub.is_structurally_valid(), "k = {k}");
            assert!(
                homology::is_q_connected(sub.complex(), k.saturating_sub(1)),
                "Div σ should be contractible for k = {k}"
            );
            // Every carrier is a face containing the distinguished vertex or an
            // original vertex.
            for id in 0..sub.num_vertices() {
                match sub.vertex(id) {
                    DivVertex::Original(_) => {}
                    DivVertex::Face(face) => {
                        assert!(face.contains(&k), "only faces containing k are subdivided");
                        assert!(face.len() >= 2);
                    }
                }
            }
        }
    }

    #[test]
    fn paper_div_of_an_edge_with_only_low_values_is_whole() {
        // σ = {0, 1} with distinguished vertex 1: the edge {0, 1} is the
        // {0, k} edge and is kept whole.
        let base = Simplex::new([0, 1]);
        let sub = Subdivision::paper_div(&base);
        assert_eq!(sub.num_vertices(), 2);
        assert_eq!(sub.full_facets().count(), 1);
    }

    #[test]
    fn carriers_are_faces_of_the_base() {
        let base = Simplex::new(0..=3);
        for sub in [Subdivision::barycentric(&base), Subdivision::paper_div(&base)] {
            for id in 0..sub.num_vertices() {
                assert!(sub.carrier(id).is_face_of(&base));
            }
        }
    }
}
