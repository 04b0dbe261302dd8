use crate::rng;
use dkc_graph::{CsrGraph, NodeId};
use rand::Rng;

/// Relaxed caveman graph: `num_caves` cliques of `cave_size` nodes arranged
/// on a ring, with every intra-cave edge rewired to a random node with
/// probability `p`.
///
/// With `p = 0` this is a disjoint union of cliques joined in a cycle — the
/// densest possible k-clique structure — and rising `p` degrades it towards
/// a random graph. The dataset stand-ins use it as the clustered component.
///
/// # Panics
/// Panics unless `cave_size >= 2` and `num_caves >= 1`.
pub fn relaxed_caveman(num_caves: usize, cave_size: usize, p: f64, seed: u64) -> CsrGraph {
    assert!(cave_size >= 2, "caves need at least two nodes");
    assert!(num_caves >= 1, "need at least one cave");
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let n = num_caves * cave_size;
    let mut r = rng(seed);
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    for cave in 0..num_caves {
        let base = (cave * cave_size) as NodeId;
        for i in 0..cave_size as NodeId {
            for j in (i + 1)..cave_size as NodeId {
                let (a, mut b) = (base + i, base + j);
                if p > 0.0 && r.gen_bool(p) {
                    // Rewire the second endpoint anywhere.
                    let c = r.gen_range(0..n as NodeId);
                    if c != a {
                        b = c;
                    }
                }
                if a != b {
                    edges.push((a.min(b), a.max(b)));
                }
            }
        }
        // Ring link to the next cave keeps the graph connected.
        if num_caves > 1 {
            let next_base = (((cave + 1) % num_caves) * cave_size) as NodeId;
            edges.push((base, next_base));
        }
    }
    CsrGraph::from_edges(n, edges).expect("all endpoints in range")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkc_clique::ListRequest;
    use dkc_graph::{Dag, NodeOrder, OrderingKind};

    fn triangles(g: &CsrGraph) -> u64 {
        let dag = Dag::from_graph(g, NodeOrder::compute(g, OrderingKind::Degeneracy));
        ListRequest::new(3).count(&dag)
    }

    #[test]
    fn unrewired_caves_are_cliques() {
        let g = relaxed_caveman(5, 4, 0.0, 1);
        assert_eq!(g.num_nodes(), 20);
        // 5 * C(4,2) intra + 5 ring edges (no duplicates since caves differ).
        assert_eq!(g.num_edges(), 5 * 6 + 5);
        // Each K4 contributes 4 triangles.
        assert_eq!(triangles(&g), 20);
    }

    #[test]
    fn rewiring_reduces_triangles() {
        let dense = relaxed_caveman(20, 6, 0.0, 3);
        let loose = relaxed_caveman(20, 6, 0.8, 3);
        assert!(triangles(&loose) < triangles(&dense));
    }

    #[test]
    fn single_cave_without_ring() {
        let g = relaxed_caveman(1, 5, 0.0, 0);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 10); // K5
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(relaxed_caveman(8, 5, 0.3, 4), relaxed_caveman(8, 5, 0.3, 4));
        assert_ne!(relaxed_caveman(8, 5, 0.3, 4), relaxed_caveman(8, 5, 0.3, 5));
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_tiny_caves() {
        let _ = relaxed_caveman(3, 1, 0.0, 0);
    }
}
