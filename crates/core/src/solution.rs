use dkc_clique::{Clique, CliqueStore, ListRequest};
use dkc_graph::{CsrGraph, Dag, NodeId, NodeOrder, OrderingKind};

/// A disjoint k-clique set `S` (Definition 3).
///
/// Backed by a flat stride-`k` [`CliqueStore`] arena: clique `i`'s members
/// are one contiguous sorted row, so iterating a solution touches a single
/// allocation. The order of cliques reflects the order the producing
/// algorithm added them; equality of *sets* should compare
/// [`Solution::sorted_cliques`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    cliques: CliqueStore,
}

/// Why a [`Solution`] failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvalidSolution {
    /// A stored clique does not have exactly `k` nodes.
    WrongSize {
        /// Index into the solution.
        index: usize,
        /// Observed clique size.
        got: usize,
        /// Expected `k`.
        expected: usize,
    },
    /// A stored clique has a missing edge.
    NotAClique {
        /// Index into the solution.
        index: usize,
        /// The missing edge.
        missing_edge: (NodeId, NodeId),
    },
    /// Two stored cliques share a node.
    Overlap {
        /// Indices of the overlapping cliques.
        indices: (usize, usize),
        /// A shared node.
        node: NodeId,
    },
    /// The set is not maximal: the residual graph still contains a k-clique.
    NotMaximal,
}

impl std::fmt::Display for InvalidSolution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvalidSolution::WrongSize { index, got, expected } => {
                write!(f, "clique #{index} has {got} nodes, expected {expected}")
            }
            InvalidSolution::NotAClique { index, missing_edge: (a, b) } => {
                write!(f, "clique #{index} misses edge ({a}, {b})")
            }
            InvalidSolution::Overlap { indices: (i, j), node } => {
                write!(f, "cliques #{i} and #{j} share node {node}")
            }
            InvalidSolution::NotMaximal => write!(f, "solution is not maximal"),
        }
    }
}

impl std::error::Error for InvalidSolution {}

impl Solution {
    /// Creates an empty solution for clique size `k`.
    pub fn new(k: usize) -> Self {
        Solution { cliques: CliqueStore::new(k) }
    }

    /// Wraps an existing clique arena.
    pub fn from_store(cliques: CliqueStore) -> Self {
        Solution { cliques }
    }

    /// The clique size `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.cliques.k()
    }

    /// Number of cliques `|S|` — the objective value.
    #[inline]
    pub fn len(&self) -> usize {
        self.cliques.len()
    }

    /// True when no clique has been added.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cliques.is_empty()
    }

    /// Adds a clique.
    ///
    /// # Panics
    /// Panics if the clique does not have exactly `k` nodes; disjointness is
    /// *not* checked here (solvers maintain it; [`Solution::verify`] audits it).
    pub fn push(&mut self, c: Clique) {
        assert_eq!(c.len(), self.k(), "clique size must equal k");
        self.cliques.push_clique(&c);
    }

    /// Removes and returns the clique at `index` (swap-remove, O(1)).
    pub fn swap_remove(&mut self, index: usize) -> Clique {
        self.cliques.swap_remove(index)
    }

    /// The cliques in insertion order, materialised per item from the arena
    /// (the compatibility bridge for `Vec<Clique>`-era call sites; hot loops
    /// should prefer [`Solution::iter_members`]).
    #[inline]
    pub fn cliques(&self) -> impl Iterator<Item = Clique> + '_ {
        self.cliques.iter_cliques()
    }

    /// Clique `index` as an owned value.
    #[inline]
    pub fn clique(&self, index: usize) -> Clique {
        self.cliques.clique(index)
    }

    /// The sorted member slice of clique `index`, borrowed from the arena.
    #[inline]
    pub fn members(&self, index: usize) -> &[NodeId] {
        self.cliques.get(index)
    }

    /// Iterates member slices in insertion order.
    #[inline]
    pub fn iter_members(&self) -> impl Iterator<Item = &[NodeId]> + '_ {
        self.cliques.iter()
    }

    /// The backing arena.
    #[inline]
    pub fn store(&self) -> &CliqueStore {
        &self.cliques
    }

    /// The cliques sorted canonically — use for set-level comparisons.
    pub fn sorted_cliques(&self) -> Vec<Clique> {
        let mut v = self.cliques.to_cliques();
        v.sort_unstable();
        v
    }

    /// The backing arena with rows sorted canonically.
    pub fn sorted_store(&self) -> CliqueStore {
        let mut s = self.cliques.clone();
        s.sort_canonical();
        s
    }

    /// Number of covered nodes (`k · |S|`).
    pub fn covered_nodes(&self) -> usize {
        self.cliques.as_flat().len()
    }

    /// Iterates all covered nodes.
    pub fn iter_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.cliques.as_flat().iter().copied()
    }

    /// Builds `assignment[u] = Some(clique index)` for covered nodes.
    pub fn node_assignment(&self, num_nodes: usize) -> Vec<Option<u32>> {
        let mut assign = vec![None; num_nodes];
        for (i, members) in self.cliques.iter().enumerate() {
            for &u in members {
                debug_assert!(assign[u as usize].is_none(), "overlapping cliques");
                assign[u as usize] = Some(i as u32);
            }
        }
        assign
    }

    /// Checks structural validity: every clique has `k` pairwise-adjacent
    /// nodes and cliques are pairwise disjoint. `O(|S| · k² · log d)`.
    pub fn verify(&self, g: &CsrGraph) -> Result<(), InvalidSolution> {
        self.verify_with(g.num_nodes(), |a, b| g.has_edge(a, b))
    }

    /// [`Solution::verify`] against any adjacency oracle (used by the
    /// dynamic crate with `DynGraph`).
    pub fn verify_with<F>(&self, num_nodes: usize, has_edge: F) -> Result<(), InvalidSolution>
    where
        F: Fn(NodeId, NodeId) -> bool,
    {
        let k = self.k();
        let mut owner: Vec<Option<u32>> = vec![None; num_nodes];
        for (i, nodes) in self.cliques.iter().enumerate() {
            if nodes.len() != k {
                return Err(InvalidSolution::WrongSize { index: i, got: nodes.len(), expected: k });
            }
            for (ai, &a) in nodes.iter().enumerate() {
                match owner[a as usize] {
                    Some(prev) => {
                        return Err(InvalidSolution::Overlap {
                            indices: (prev as usize, i),
                            node: a,
                        })
                    }
                    None => owner[a as usize] = Some(i as u32),
                }
                for &b in &nodes[ai + 1..] {
                    if !has_edge(a, b) {
                        return Err(InvalidSolution::NotAClique { index: i, missing_edge: (a, b) });
                    }
                }
            }
        }
        Ok(())
    }

    /// Checks maximality: the subgraph induced on uncovered nodes must not
    /// contain any k-clique. This runs a full clique count on the residual
    /// graph, so it is intended for tests and audits, not hot paths.
    pub fn verify_maximal(&self, g: &CsrGraph) -> Result<(), InvalidSolution> {
        let assign = self.node_assignment(g.num_nodes());
        let free: Vec<NodeId> =
            (0..g.num_nodes() as NodeId).filter(|&u| assign[u as usize].is_none()).collect();
        let sub = dkc_graph::InducedSubgraph::of_csr(g, &free);
        let dag =
            Dag::from_graph(sub.graph(), NodeOrder::compute(sub.graph(), OrderingKind::Degeneracy));
        if ListRequest::new(self.k()).count(&dag) > 0 {
            return Err(InvalidSolution::NotMaximal);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testgraphs::paper_fig2;

    #[test]
    fn push_and_accessors() {
        let mut s = Solution::new(3);
        assert!(s.is_empty());
        s.push(Clique::new(&[0, 2, 5]));
        s.push(Clique::new(&[6, 7, 8]));
        assert_eq!(s.len(), 2);
        assert_eq!(s.k(), 3);
        assert_eq!(s.covered_nodes(), 6);
        let nodes: Vec<NodeId> = s.iter_nodes().collect();
        assert_eq!(nodes, vec![0, 2, 5, 6, 7, 8]);
    }

    #[test]
    #[should_panic(expected = "clique size must equal k")]
    fn push_rejects_wrong_size() {
        let mut s = Solution::new(3);
        s.push(Clique::new(&[0, 1]));
    }

    #[test]
    fn verify_accepts_fig2c_maximal_set() {
        // S1 of Fig. 2(c): (v3, v5, v6) and (v7, v8, v9) → {2,4,5}, {6,7,8}.
        let g = paper_fig2();
        let mut s = Solution::new(3);
        s.push(Clique::new(&[2, 4, 5]));
        s.push(Clique::new(&[6, 7, 8]));
        s.verify(&g).unwrap();
        s.verify_maximal(&g).unwrap();
    }

    #[test]
    fn verify_accepts_fig2d_maximum_set() {
        // S2 of Fig. 2(d): (v1,v3,v6), (v5,v7,v8), (v2,v4,v9).
        let g = paper_fig2();
        let mut s = Solution::new(3);
        s.push(Clique::new(&[0, 2, 5]));
        s.push(Clique::new(&[4, 6, 7]));
        s.push(Clique::new(&[1, 3, 8]));
        s.verify(&g).unwrap();
        s.verify_maximal(&g).unwrap();
    }

    #[test]
    fn verify_rejects_overlap() {
        let g = paper_fig2();
        let mut s = Solution::new(3);
        s.push(Clique::new(&[0, 2, 5]));
        s.push(Clique::new(&[2, 4, 5])); // shares v3, v6
        match s.verify(&g).unwrap_err() {
            InvalidSolution::Overlap { node, .. } => assert!(node == 2 || node == 4 || node == 5),
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn verify_rejects_non_clique() {
        let g = paper_fig2();
        let mut s = Solution::new(3);
        s.push(Clique::new(&[0, 1, 2])); // v1-v2 not an edge
        assert!(matches!(s.verify(&g), Err(InvalidSolution::NotAClique { .. })));
    }

    #[test]
    fn verify_maximal_detects_remaining_clique() {
        let g = paper_fig2();
        let mut s = Solution::new(3);
        s.push(Clique::new(&[0, 2, 5])); // leaves e.g. (v5,v7,v8) available
        s.verify(&g).unwrap();
        assert_eq!(s.verify_maximal(&g), Err(InvalidSolution::NotMaximal));
    }

    #[test]
    fn node_assignment_marks_members_only() {
        let g = paper_fig2();
        let mut s = Solution::new(3);
        s.push(Clique::new(&[2, 4, 5]));
        let assign = s.node_assignment(g.num_nodes());
        assert_eq!(assign[2], Some(0));
        assert_eq!(assign[4], Some(0));
        assert_eq!(assign[5], Some(0));
        assert!(assign[0].is_none());
        assert_eq!(assign.iter().filter(|a| a.is_some()).count(), 3);
    }

    #[test]
    fn sorted_cliques_is_canonical() {
        let mut a = Solution::new(3);
        a.push(Clique::new(&[6, 7, 8]));
        a.push(Clique::new(&[2, 4, 5]));
        let mut b = Solution::new(3);
        b.push(Clique::new(&[2, 4, 5]));
        b.push(Clique::new(&[6, 7, 8]));
        assert_ne!(a, b, "insertion order differs");
        assert_eq!(a.sorted_cliques(), b.sorted_cliques());
    }

    #[test]
    fn display_messages() {
        let e = InvalidSolution::NotMaximal;
        assert!(e.to_string().contains("maximal"));
        let e = InvalidSolution::Overlap { indices: (0, 1), node: 7 };
        assert!(e.to_string().contains('7'));
    }
}
