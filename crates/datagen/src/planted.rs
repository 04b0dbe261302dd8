use crate::rng;
use dkc_graph::{CsrGraph, NodeId};
use rand::Rng;

/// A graph containing a known set of disjoint k-cliques.
#[derive(Debug, Clone)]
pub struct PlantedGraph {
    /// The graph.
    pub graph: CsrGraph,
    /// The planted cliques (each a sorted vector of `k` node ids).
    pub planted: Vec<Vec<NodeId>>,
    /// The clique size.
    pub k: usize,
}

impl PlantedGraph {
    /// Number of planted cliques — a lower bound on the optimum (equal to
    /// it when `noise_p` was 0, since no other k-clique exists then).
    pub fn planted_count(&self) -> usize {
        self.planted.len()
    }
}

/// Plants `num_cliques` disjoint k-cliques on the first `num_cliques·k`
/// nodes, appends `extra_nodes` further nodes, then sprinkles noise: each
/// potential *inter-clique* edge appears with probability `noise_p`.
///
/// With `noise_p = 0` the planted cliques are the **only** k-cliques when
/// `k >= 3` (noise is absent and the planted cliques are disjoint), so the
/// optimum equals `num_cliques` exactly — the workhorse fixture for quality
/// tests. With noise, `planted_count()` is still a lower bound.
///
/// # Panics
/// Panics unless `k >= 2` and `noise_p` is a probability.
pub fn planted_partition(
    num_cliques: usize,
    k: usize,
    extra_nodes: usize,
    noise_p: f64,
    seed: u64,
) -> PlantedGraph {
    assert!(k >= 2, "k must be at least 2");
    assert!((0.0..=1.0).contains(&noise_p), "noise_p must be a probability");
    let n = num_cliques * k + extra_nodes;
    let mut r = rng(seed);
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut planted = Vec::with_capacity(num_cliques);
    let mut clique_of = vec![u32::MAX; n];
    for c in 0..num_cliques {
        let base = (c * k) as NodeId;
        let members: Vec<NodeId> = (base..base + k as NodeId).collect();
        for (i, &a) in members.iter().enumerate() {
            clique_of[a as usize] = c as u32;
            for &b in &members[i + 1..] {
                edges.push((a, b));
            }
        }
        planted.push(members);
    }
    if noise_p > 0.0 {
        for a in 0..n as NodeId {
            for b in (a + 1)..n as NodeId {
                let same_clique = clique_of[a as usize] != u32::MAX
                    && clique_of[a as usize] == clique_of[b as usize];
                if !same_clique && r.gen_bool(noise_p) {
                    edges.push((a, b));
                }
            }
        }
    }
    let graph = CsrGraph::from_edges(n, edges).expect("planted edges in range");
    PlantedGraph { graph, planted, k }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkc_clique::ListRequest;
    use dkc_graph::{Dag, NodeOrder, OrderingKind};

    #[test]
    fn clean_instance_has_exactly_the_planted_cliques() {
        let p = planted_partition(6, 4, 5, 0.0, 1);
        assert_eq!(p.graph.num_nodes(), 29);
        assert_eq!(p.graph.num_edges(), 6 * 6); // 6 K4s
        let dag = Dag::from_graph(&p.graph, NodeOrder::compute(&p.graph, OrderingKind::Degeneracy));
        assert_eq!(ListRequest::new(4).count(&dag), 6);
        assert_eq!(p.planted_count(), 6);
    }

    #[test]
    fn planted_cliques_are_actual_cliques() {
        let p = planted_partition(4, 5, 0, 0.05, 2);
        for clique in &p.planted {
            assert_eq!(clique.len(), 5);
            for (i, &a) in clique.iter().enumerate() {
                for &b in &clique[i + 1..] {
                    assert!(p.graph.has_edge(a, b));
                }
            }
        }
    }

    #[test]
    fn noise_only_adds_interclique_edges() {
        let clean = planted_partition(5, 3, 10, 0.0, 3);
        let noisy = planted_partition(5, 3, 10, 0.2, 3);
        assert!(noisy.graph.num_edges() > clean.graph.num_edges());
        // Planted structure identical.
        assert_eq!(clean.planted, noisy.planted);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = planted_partition(3, 3, 4, 0.1, 7);
        let b = planted_partition(3, 3, 4, 0.1, 7);
        assert_eq!(a.graph, b.graph);
    }

    #[test]
    fn zero_cliques_is_allowed() {
        let p = planted_partition(0, 3, 8, 0.0, 0);
        assert_eq!(p.graph.num_nodes(), 8);
        assert_eq!(p.planted_count(), 0);
    }
}
