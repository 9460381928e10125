//! Property-based tests of the open-cube structure theorems (Section 2).

use oc_topology::{branch, dist, groups, transform, NodeId, OpenCube};
use proptest::prelude::*;

/// Strategy: a cube size 2^p with p in 1..=7 and a random sequence of
/// b-transformations described by son choices.
fn cube_and_walk() -> impl Strategy<Value = (usize, Vec<u32>)> {
    (1u32..=7).prop_flat_map(|p| {
        let n = 1usize << p;
        (Just(n), proptest::collection::vec(0u32..(n as u32), 0..64))
    })
}

/// Applies a pseudo-random sequence of legal b-transformations: each step
/// picks the boundary edge indexed by `choice % edges.len()`.
fn random_walk(cube: &mut OpenCube, choices: &[u32]) {
    for &choice in choices {
        let edges = transform::boundary_edges(cube);
        if edges.is_empty() {
            return;
        }
        let (son, father) = edges[choice as usize % edges.len()];
        cube.b_transform(son, father).expect("boundary edges are legal swaps");
    }
}

proptest! {
    /// Theorem 2.1: any sequence of b-transformations keeps the open-cube
    /// structure.
    #[test]
    fn b_transformations_preserve_structure((n, choices) in cube_and_walk()) {
        let mut cube = OpenCube::canonical(n);
        random_walk(&mut cube, &choices);
        prop_assert!(cube.verify().is_ok());
    }

    /// Corollary 2.3: distances never change — they always equal the
    /// closed-form identity distance, whatever the tree looks like.
    #[test]
    fn distances_are_invariant((n, choices) in cube_and_walk()) {
        let mut cube = OpenCube::canonical(n);
        random_walk(&mut cube, &choices);
        // Recompute tree distance via p-group membership on the *current*
        // tree: smallest p such that the p-group subtree contains both.
        // Verified indirectly: every edge satisfies Prop 2.1 against the
        // *identity* distance, which verify() already checks; here we check
        // group roots exist at every level, proving groups are intact.
        for id in cube.iter_nodes() {
            for p in 0..=cube.pmax() {
                let root = groups::group_root(&cube, id, p);
                prop_assert!(dist(id, root) <= p);
            }
        }
    }

    /// Theorem 2.1 (quantitative part): a b-transformation moves exactly one
    /// unit of power from the father to the son.
    #[test]
    fn b_transformation_shifts_one_power((n, choices) in cube_and_walk()) {
        let mut cube = OpenCube::canonical(n);
        random_walk(&mut cube, &choices);
        let edges = transform::boundary_edges(&cube);
        for (son, father) in edges {
            let mut probe = cube.clone();
            let ps = probe.power(son);
            let pf = probe.power(father);
            probe.b_transform(son, father).unwrap();
            prop_assert_eq!(probe.power(son), ps + 1);
            prop_assert_eq!(probe.power(father), pf - 1);
        }
    }

    /// Prop. 2.3 holds on every branch of every reachable tree.
    #[test]
    fn branch_bound_always_holds((n, choices) in cube_and_walk()) {
        let mut cube = OpenCube::canonical(n);
        random_walk(&mut cube, &choices);
        for i in cube.iter_nodes() {
            prop_assert!(branch::proposition_2_3_holds(&cube, i));
        }
        prop_assert!(branch::longest_branch_len(&cube) <= cube.pmax() as usize);
    }

    /// The request transformation of Section 4 (what the protocol effects)
    /// preserves the invariant and roots the requester's claim correctly:
    /// afterwards, the requester's father is either nil or a node of
    /// strictly greater power (Cor. 2.1 characterization).
    #[test]
    fn request_transformation_correct((n, choices) in cube_and_walk(), pick in 0u32..128) {
        let mut cube = OpenCube::canonical(n);
        random_walk(&mut cube, &choices);
        let i = NodeId::new(pick % (n as u32) + 1);
        let father = transform::apply_request_transformation(&mut cube, i).unwrap();
        prop_assert!(cube.verify().is_ok());
        match father {
            None => prop_assert_eq!(cube.root(), i),
            Some(f) => {
                prop_assert_eq!(cube.father(i), Some(f));
                prop_assert!(cube.power(f) > cube.power(i));
                prop_assert_eq!(dist(i, f), cube.power(i) + 1);
            }
        }
    }

    /// Cor. 2.1: the father of i is the unique j with dist(i,j) =
    /// power(i)+1 and power(j) > power(i).
    #[test]
    fn corollary_2_1_unique_father((n, choices) in cube_and_walk()) {
        let mut cube = OpenCube::canonical(n);
        random_walk(&mut cube, &choices);
        for i in cube.iter_nodes() {
            if let Some(f) = cube.father(i) {
                let pi = cube.power(i);
                let candidates: Vec<NodeId> = cube
                    .iter_nodes()
                    .filter(|j| *j != i && dist(i, *j) == pi + 1 && cube.power(*j) > pi)
                    .collect();
                prop_assert_eq!(candidates, vec![f]);
            }
        }
    }
}

/// Exhaustive (not sampled) conformance of the allocation-free ring
/// iterator: for every power-of-two system size up to 1024, every node,
/// and every legal distance, `ring_iter` yields exactly the nodes whose
/// identity distance is `d` — in increasing identity order — and
/// reports its length as the ring size.
#[test]
fn ring_iter_enumerates_every_ring_exactly() {
    use oc_topology::{ring_iter, ring_size};
    for p in 1..=10u32 {
        let n = 1usize << p;
        for from in NodeId::all(n) {
            for d in 1..=p {
                // Ground truth straight from Definition 2.2, independent of
                // the iterator's bit trickery.
                let by_distance: Vec<NodeId> =
                    NodeId::all(n).filter(|j| dist(from, *j) == d).collect();
                let iterated: Vec<NodeId> = ring_iter(n, from, d).collect();
                assert_eq!(iterated, by_distance, "ring({from}, {d}) in n={n}");
                assert_eq!(ring_iter(n, from, d).len(), ring_size(d));
            }
        }
    }
}
