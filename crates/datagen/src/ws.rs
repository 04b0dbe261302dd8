use crate::rng;
use dkc_graph::{CsrGraph, NodeId};
use rand::Rng;

/// Watts–Strogatz small-world graph — the synthetic model of the paper's
/// Section VI-D (Tables V and VI).
///
/// Nodes sit on a ring, each initially joined to its `avg_degree / 2`
/// nearest neighbours on either side; every edge endpoint is then rewired
/// with probability `beta` to a uniform random node (skipping self-loops
/// and duplicates). `beta = 0` keeps the clique-rich lattice, `beta = 1`
/// approaches `G(n, m)`.
///
/// # Panics
/// Panics unless `avg_degree` is even, `>= 2`, and `< n`.
pub fn watts_strogatz(n: usize, avg_degree: usize, beta: f64, seed: u64) -> CsrGraph {
    assert!(avg_degree.is_multiple_of(2), "avg_degree must be even (ring lattice)");
    assert!(avg_degree >= 2 && avg_degree < n, "need 2 <= avg_degree < n");
    assert!((0.0..=1.0).contains(&beta), "beta must be a probability");
    let half = avg_degree / 2;
    let mut r = rng(seed);
    let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(n * half);
    for u in 0..n {
        for d in 1..=half {
            let v = (u + d) % n;
            let (mut a, mut b) = (u as NodeId, v as NodeId);
            if r.gen_bool(beta) {
                // Rewire the far endpoint.
                let mut tries = 0;
                loop {
                    let c = r.gen_range(0..n as NodeId);
                    if c != a {
                        b = c;
                        break;
                    }
                    tries += 1;
                    if tries > 32 {
                        break; // pathological tiny n; keep the lattice edge
                    }
                }
            }
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            edges.push((a, b));
        }
    }
    CsrGraph::from_edges(n, edges).expect("all endpoints in range")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_beta_is_the_exact_ring_lattice() {
        let g = watts_strogatz(20, 4, 0.0, 1);
        assert_eq!(g.num_nodes(), 20);
        assert_eq!(g.num_edges(), 40); // n * k/2
        for u in 0..20u32 {
            assert_eq!(g.degree(u), 4);
            assert!(g.has_edge(u, (u + 1) % 20));
            assert!(g.has_edge(u, (u + 2) % 20));
        }
    }

    #[test]
    fn lattice_with_degree_four_has_triangles() {
        // Ring lattice k=4: each node u forms triangle (u, u+1, u+2).
        let g = watts_strogatz(30, 4, 0.0, 1);
        let dag = dkc_graph::Dag::from_graph(
            &g,
            dkc_graph::NodeOrder::compute(&g, dkc_graph::OrderingKind::Degeneracy),
        );
        assert_eq!(dkc_clique::ListRequest::new(3).count(&dag), 30);
    }

    #[test]
    fn rewiring_preserves_edge_budget_approximately() {
        let g = watts_strogatz(500, 8, 0.1, 5);
        // Rewiring can only lose edges to de-duplication; losses are rare.
        assert!(g.num_edges() > 1900 && g.num_edges() <= 2000, "m = {}", g.num_edges());
        let avg = 2.0 * g.num_edges() as f64 / 500.0;
        assert!((avg - 8.0).abs() < 0.5);
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(watts_strogatz(60, 6, 0.2, 9), watts_strogatz(60, 6, 0.2, 9));
        assert_ne!(watts_strogatz(60, 6, 0.2, 9), watts_strogatz(60, 6, 0.2, 10));
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_degree_rejected() {
        let _ = watts_strogatz(10, 3, 0.0, 0);
    }

    #[test]
    #[should_panic(expected = "2 <= avg_degree < n")]
    fn degree_must_be_less_than_n() {
        let _ = watts_strogatz(4, 4, 0.0, 0);
    }
}
