//! Update traffic and the benchmark's own replay of it.
//!
//! The writer cycles over the edges of the paper's mixed stream. Each
//! update toggles one stream edge: it deletes the edge when the edge is
//! present and inserts it when it is absent. Starting from G′, the first
//! pass is exactly `paper_mixed_workload`'s stream (its inserts are absent
//! from G′, its deletes present); the next pass undoes it in the same
//! order, and so on. Starting from DS, every stream edge is present, so
//! the first pass deletes them all and the next re-inserts them. Either
//! way every update really changes the graph, so the dynamic maintenance
//! does real work for as long as the run lasts.

use dkc_dynamic::EdgeUpdate;
use dkc_graph::{CsrGraph, NodeId};
use std::collections::HashMap;

/// Deterministic toggling traffic over a fixed edge list.
#[derive(Debug, Clone)]
pub struct Traffic {
    edges: Vec<(NodeId, NodeId)>,
    present: Vec<bool>,
    index: HashMap<(NodeId, NodeId), usize>,
    next: usize,
}

fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    (a.min(b), a.max(b))
}

impl Traffic {
    /// Traffic over the endpoints of `stream`, starting from graph `g`.
    pub fn new(stream: &[EdgeUpdate], g: &CsrGraph) -> Self {
        let edges: Vec<(NodeId, NodeId)> = stream
            .iter()
            .map(|u| {
                let (a, b) = u.endpoints();
                key(a, b)
            })
            .collect();
        let present = edges.iter().map(|&(a, b)| g.has_edge(a, b)).collect();
        let index = edges.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        Traffic { edges, present, index, next: 0 }
    }

    /// The next `n` updates (the stream wraps around).
    pub fn next_batch(&mut self, n: usize) -> Vec<EdgeUpdate> {
        (0..n)
            .map(|_| {
                let i = self.next;
                self.next = (self.next + 1) % self.edges.len();
                let (a, b) = self.edges[i];
                self.present[i] = !self.present[i];
                if self.present[i] {
                    EdgeUpdate::Insert(a, b)
                } else {
                    EdgeUpdate::Delete(a, b)
                }
            })
            .collect()
    }

    /// Adjacency of the graph after every update handed out so far has
    /// applied, given the starting graph `g`.
    pub fn has_edge(&self, g: &CsrGraph, a: NodeId, b: NodeId) -> bool {
        match self.index.get(&key(a, b)) {
            Some(&i) => self.present[i],
            None => g.has_edge(a, b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_pass_from_g_prime_is_the_stream_and_second_undoes_it() {
        let g = CsrGraph::from_edges(5, vec![(0, 1), (1, 2), (2, 3)]).unwrap();
        let stream =
            vec![EdgeUpdate::Insert(3, 4), EdgeUpdate::Delete(2, 1), EdgeUpdate::Insert(0, 4)];
        let mut t = Traffic::new(&stream, &g);
        assert_eq!(
            t.next_batch(3),
            vec![EdgeUpdate::Insert(3, 4), EdgeUpdate::Delete(1, 2), EdgeUpdate::Insert(0, 4)]
        );
        assert!(t.has_edge(&g, 4, 3) && !t.has_edge(&g, 1, 2) && t.has_edge(&g, 2, 3));
        assert_eq!(
            t.next_batch(4),
            vec![
                EdgeUpdate::Delete(3, 4),
                EdgeUpdate::Insert(1, 2),
                EdgeUpdate::Delete(0, 4),
                EdgeUpdate::Insert(3, 4)
            ]
        );
    }
}
