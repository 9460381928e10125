//! The mutable open-cube tree: father pointers plus the derived notions of
//! power, sons, last son and boundary edges.

use crate::{
    canonical::canonical_father, dimension, dist, error::TopologyError, invariant, NodeId,
    StructureError,
};

/// A rooted tree on `n = 2^p` nodes maintained under the open-cube
/// invariant.
///
/// The tree is represented by its father pointers, exactly the `father_i`
/// variables of the paper. Powers are *derived*: per Prop. 2.1,
/// `power(i) = dist(i, father(i)) - 1` for non-roots and `pmax` for the
/// root, so no per-node power needs storing.
///
/// Mutation goes through [`OpenCube::b_transform`], which refuses non-
/// boundary edges (Theorem 2.1 proves those are exactly the swaps that
/// preserve the structure). For simulating the *transient* states of the
/// distributed algorithm — where father pointers are updated one half of a
/// b-transformation at a time — use [`OpenCube::set_father_unchecked`] and
/// re-verify at quiescence.
///
/// ```
/// use oc_topology::{OpenCube, NodeId};
/// let mut cube = OpenCube::canonical(8);
/// // (5, 1) is a boundary edge of the 8-open-cube: 5 is the last son of 1.
/// cube.b_transform(NodeId::new(5), NodeId::new(1)).unwrap();
/// assert_eq!(cube.root(), NodeId::new(5));
/// assert!(cube.verify().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenCube {
    /// `fathers[z]` is the father of the node with 0-based index `z`.
    fathers: Vec<Option<NodeId>>,
    /// Dimension `pmax = log2 n`.
    pmax: u32,
}

impl OpenCube {
    /// The canonical `n`-open-cube of Figures 2a–2d, rooted at node 1.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    #[must_use]
    pub fn canonical(n: usize) -> Self {
        let pmax = dimension(n);
        let fathers =
            (0..n as u32).map(|z| canonical_father(n, NodeId::from_zero_based(z))).collect();
        OpenCube { fathers, pmax }
    }

    /// A uniformly-seeded random open-cube: the canonical cube driven
    /// through `steps` random b-transformations. Every tree produced this
    /// way is a legal open-cube (Theorem 2.1), and every open-cube
    /// reachable by the algorithm is reachable this way.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn random<R: rand::Rng + ?Sized>(n: usize, steps: usize, rng: &mut R) -> Self {
        use rand::RngExt;
        let mut cube = OpenCube::canonical(n);
        for _ in 0..steps {
            let edges: Vec<(NodeId, NodeId)> =
                cube.iter_nodes().filter_map(|f| cube.last_son(f).map(|s| (s, f))).collect();
            if edges.is_empty() {
                break;
            }
            let (son, father) = edges[rng.random_range(0..edges.len())];
            cube.b_transform(son, father).expect("boundary edges are legal");
        }
        cube
    }

    /// Builds an open-cube from an explicit father table (`table[i]` for node
    /// `i+1`), verifying the structural invariant.
    ///
    /// # Errors
    ///
    /// Returns the first violated clause of the open-cube definition.
    pub fn from_fathers(fathers: Vec<Option<NodeId>>) -> Result<Self, StructureError> {
        if !crate::is_valid_size(fathers.len()) {
            return Err(StructureError::InvalidSize(fathers.len()));
        }
        let cube = OpenCube { pmax: dimension(fathers.len()), fathers };
        cube.verify()?;
        Ok(cube)
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fathers.len()
    }

    /// `true` if the cube has a single node.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false // an open-cube always has at least one node
    }

    /// The dimension `pmax = log2 n` — also the power of the root.
    #[must_use]
    pub fn pmax(&self) -> u32 {
        self.pmax
    }

    /// The father of `id`, or `None` if `id` is the root.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside `1..=n`.
    #[must_use]
    pub fn father(&self, id: NodeId) -> Option<NodeId> {
        self.fathers[self.index(id)]
    }

    /// The root: the unique node with no father.
    ///
    /// # Panics
    ///
    /// Panics if the tree is corrupted and has no root (cannot happen through
    /// the checked API).
    #[must_use]
    pub fn root(&self) -> NodeId {
        self.iter_nodes().find(|id| self.father(*id).is_none()).expect("an open-cube has a root")
    }

    /// Power of `id` (Definition 2.1), derived from the father pointer via
    /// Prop. 2.1: `dist(i, father(i)) - 1`, or `pmax` at the root.
    #[must_use]
    pub fn power(&self, id: NodeId) -> u32 {
        match self.father(id) {
            Some(f) => dist(id, f) - 1,
            None => self.pmax,
        }
    }

    /// The sons of `id` in increasing power order.
    ///
    /// This scans the father table; the distributed algorithm never needs
    /// it (nodes do not know their sons), but tests, oracles and the
    /// simulator do.
    #[must_use]
    pub fn sons(&self, id: NodeId) -> Vec<NodeId> {
        let mut sons: Vec<NodeId> =
            self.iter_nodes().filter(|c| self.father(*c) == Some(id)).collect();
        sons.sort_by_key(|c| self.power(*c));
        sons
    }

    /// The *last son* of `id` (Definition 2.3): its son of power
    /// `power(id) - 1`, or `None` if `id` has power 0.
    #[must_use]
    pub fn last_son(&self, id: NodeId) -> Option<NodeId> {
        let p = self.power(id);
        if p == 0 {
            return None;
        }
        self.sons(id).into_iter().find(|s| self.power(*s) == p - 1)
    }

    /// `true` if `(son, father)` is a *boundary edge* (Definition 2.3):
    /// `son` is the last son of `father`, equivalently
    /// `power(father) = power(son) + 1`.
    #[must_use]
    pub fn is_boundary_edge(&self, son: NodeId, father: NodeId) -> bool {
        self.father(son) == Some(father) && self.power(father) == self.power(son) + 1
    }

    /// Performs the b-transformation of Theorem 2.1 over the edge
    /// `(son, father)`:
    ///
    /// ```text
    /// father(son)   := father(father);
    /// father(father) := son;
    /// ```
    ///
    /// After the swap, `son`'s power has increased by one and `father`'s has
    /// decreased by one; the structure is still an open-cube, with the same
    /// p-groups and distances.
    ///
    /// # Errors
    ///
    /// * [`TopologyError::NotAnEdge`] if `father` is not currently the father
    ///   of `son`;
    /// * [`TopologyError::NotBoundaryEdge`] if `son` is not the last son —
    ///   Theorem 2.1 shows the swap would break the structure.
    pub fn b_transform(&mut self, son: NodeId, father: NodeId) -> Result<(), TopologyError> {
        self.check_in_range(son)?;
        self.check_in_range(father)?;
        if self.father(son) != Some(father) {
            return Err(TopologyError::NotAnEdge { son, father });
        }
        if !self.is_boundary_edge(son, father) {
            return Err(TopologyError::NotBoundaryEdge { son, father });
        }
        let grandfather = self.father(father);
        let si = self.index(son);
        let fi = self.index(father);
        self.fathers[si] = grandfather;
        self.fathers[fi] = Some(son);
        Ok(())
    }

    /// Overwrites a father pointer without any structural check.
    ///
    /// The distributed algorithm performs b-transformations in *two separate
    /// steps* on different nodes (the transit node re-points immediately; the
    /// requester re-points only when the token arrives), so mid-protocol the
    /// global father graph is temporarily not an open-cube. Simulators use
    /// this method to mirror those transient states and call
    /// [`OpenCube::verify`] only at quiescent points.
    pub fn set_father_unchecked(&mut self, id: NodeId, father: Option<NodeId>) {
        let i = self.index(id);
        self.fathers[i] = father;
    }

    /// Checks the full open-cube structural invariant (see
    /// [`invariant::verify_open_cube`]).
    ///
    /// # Errors
    ///
    /// Returns the first violated clause.
    pub fn verify(&self) -> Result<(), StructureError> {
        invariant::verify_open_cube(&self.fathers)
    }

    /// Iterates over all node identities `1..=n`.
    pub fn iter_nodes(&self) -> impl Iterator<Item = NodeId> + Clone {
        NodeId::all(self.len())
    }

    /// The father table as a slice indexed by 0-based node index.
    #[must_use]
    pub fn fathers(&self) -> &[Option<NodeId>] {
        &self.fathers
    }

    /// The depth of `id`: number of edges on its branch to the root.
    #[must_use]
    pub fn depth(&self, id: NodeId) -> usize {
        let mut depth = 0;
        let mut cur = id;
        while let Some(f) = self.father(cur) {
            depth += 1;
            cur = f;
            assert!(depth <= self.len(), "cycle in father pointers");
        }
        depth
    }

    fn index(&self, id: NodeId) -> usize {
        let z = id.zero_based() as usize;
        assert!(z < self.len(), "node {id} outside 1..={}", self.len());
        z
    }

    fn check_in_range(&self, id: NodeId) -> Result<(), TopologyError> {
        if (id.zero_based() as usize) < self.len() {
            Ok(())
        } else {
            Err(TopologyError::UnknownNode(id))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_cubes_are_valid() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for steps in [0usize, 1, 10, 200] {
            let cube = OpenCube::random(32, steps, &mut rng);
            assert!(cube.verify().is_ok(), "steps={steps}");
        }
        // With zero steps it is exactly the canonical cube.
        let cube = OpenCube::random(16, 0, &mut rng);
        assert_eq!(cube, OpenCube::canonical(16));
    }

    #[test]
    fn canonical_is_verified() {
        for p in 0..=8 {
            let cube = OpenCube::canonical(1 << p);
            assert!(cube.verify().is_ok(), "n = {}", 1 << p);
            assert_eq!(cube.root(), NodeId::new(1));
            assert_eq!(cube.pmax(), p);
        }
    }

    #[test]
    fn powers_match_canonical_closed_form() {
        let n = 64;
        let cube = OpenCube::canonical(n);
        for id in cube.iter_nodes() {
            assert_eq!(cube.power(id), crate::canonical_power(n, id));
        }
    }

    #[test]
    fn sons_and_last_son() {
        let cube = OpenCube::canonical(16);
        let sons: Vec<u32> = cube.sons(NodeId::new(1)).into_iter().map(NodeId::get).collect();
        assert_eq!(sons, vec![2, 3, 5, 9]);
        assert_eq!(cube.last_son(NodeId::new(1)), Some(NodeId::new(9)));
        assert_eq!(cube.last_son(NodeId::new(2)), None);
        assert_eq!(cube.last_son(NodeId::new(5)), Some(NodeId::new(7)));
    }

    #[test]
    fn boundary_edges_of_16_cube() {
        let cube = OpenCube::canonical(16);
        // Boundary edges: son is last son. E.g. (9,1), (7,5), (4,3), (16,15).
        assert!(cube.is_boundary_edge(NodeId::new(9), NodeId::new(1)));
        assert!(cube.is_boundary_edge(NodeId::new(7), NodeId::new(5)));
        assert!(cube.is_boundary_edge(NodeId::new(4), NodeId::new(3)));
        assert!(!cube.is_boundary_edge(NodeId::new(2), NodeId::new(1)));
        assert!(!cube.is_boundary_edge(NodeId::new(5), NodeId::new(1)));
    }

    #[test]
    fn b_transform_swaps_powers() {
        let mut cube = OpenCube::canonical(16);
        let (nine, one) = (NodeId::new(9), NodeId::new(1));
        assert_eq!(cube.power(one), 4);
        assert_eq!(cube.power(nine), 3);
        cube.b_transform(nine, one).unwrap();
        assert_eq!(cube.power(nine), 4);
        assert_eq!(cube.power(one), 3);
        assert_eq!(cube.root(), nine);
        assert!(cube.verify().is_ok());
        // The edge has reversed and is still a boundary edge (i is now the
        // last son of j), so the transformation is reversible.
        assert!(cube.is_boundary_edge(one, nine));
        cube.b_transform(one, nine).unwrap();
        assert_eq!(cube, OpenCube::canonical(16));
    }

    #[test]
    fn figure_5_counterexample_rejected() {
        // Paper Figure 5: swapping node 1 (power 2) with its son 2 (power 0)
        // in the 4-open-cube is NOT a b-transformation and must be refused.
        let mut cube = OpenCube::canonical(4);
        let err = cube.b_transform(NodeId::new(2), NodeId::new(1)).unwrap_err();
        assert!(matches!(err, TopologyError::NotBoundaryEdge { .. }));
        // The tree was not modified.
        assert_eq!(cube, OpenCube::canonical(4));
    }

    #[test]
    fn b_transform_rejects_non_edges() {
        let mut cube = OpenCube::canonical(8);
        let err = cube.b_transform(NodeId::new(4), NodeId::new(1)).unwrap_err();
        assert!(matches!(err, TopologyError::NotAnEdge { .. }));
    }

    #[test]
    fn depth_is_bounded_by_pmax() {
        let cube = OpenCube::canonical(256);
        for id in cube.iter_nodes() {
            assert!(cube.depth(id) <= cube.pmax() as usize);
        }
    }

    #[test]
    fn from_fathers_round_trip() {
        let cube = OpenCube::canonical(32);
        let rebuilt = OpenCube::from_fathers(cube.fathers().to_vec()).unwrap();
        assert_eq!(cube, rebuilt);
    }

    #[test]
    fn from_fathers_rejects_bad_size() {
        let err = OpenCube::from_fathers(vec![None; 3]).unwrap_err();
        assert_eq!(err, StructureError::InvalidSize(3));
    }

    #[test]
    fn single_node_cube() {
        let cube = OpenCube::canonical(1);
        assert_eq!(cube.root(), NodeId::new(1));
        assert_eq!(cube.power(NodeId::new(1)), 0);
        assert_eq!(cube.last_son(NodeId::new(1)), None);
        assert!(cube.verify().is_ok());
    }
}
