//! # dkc-cliquegraph — the materialised clique graph (Definition 2)
//!
//! The straightforward baseline of the paper lists **all** k-cliques of `G`,
//! makes each a condensed node, and connects two condensed nodes whenever
//! the cliques share a member. A maximum independent set of this *clique
//! graph* is exactly a maximum set of disjoint k-cliques.
//!
//! Materialising the clique graph is deliberately memory-hungry — the paper
//! reports 400× node blow-ups on Facebook and uses that to motivate the
//! lightweight solvers. [`CliqueGraphLimits`] lets callers emulate the
//! paper's OOM behaviour deterministically: construction aborts with a
//! structured error as soon as the clique or conflict-edge count exceeds
//! the budget, instead of exhausting physical memory.
//!
//! Construction fans out over the deterministic `dkc-par` executor (one
//! conflict list per clique, merged from an inverted node→clique index), so
//! building the graph no longer dominates the GC/OPT pipelines at scale;
//! results — including budget trips — are identical for any thread count.
//!
//! Storage is flat throughout: the cliques live in a stride-`k`
//! [`CliqueStore`] arena, and both the node→clique inverted index (a
//! construction-time temporary) and the conflict adjacency are CSR
//! offset+data pairs — two allocations each instead of one `Vec` per node or
//! clique.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dkc_clique::{Clique, CliqueStore, ListRequest};
use dkc_graph::{CsrGraph, Dag, NodeOrder, OrderingKind};
use dkc_par::{par_try_collect, ParConfig, SharedBudget};

/// Construction budget, emulating the paper's memory ("OOM") limits.
#[derive(Debug, Clone, Copy, Default)]
pub struct CliqueGraphLimits {
    /// Maximum number of k-cliques to materialise.
    pub max_cliques: Option<usize>,
    /// Maximum number of conflict edges to materialise.
    pub max_conflicts: Option<usize>,
}

impl CliqueGraphLimits {
    /// No limits.
    pub fn unlimited() -> Self {
        Self::default()
    }
}

/// Construction failure: the graph blew past the configured budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliqueGraphError {
    /// More k-cliques than `max_cliques`.
    TooManyCliques {
        /// The configured limit.
        limit: usize,
    },
    /// More conflict edges than `max_conflicts`.
    TooManyConflicts {
        /// The configured limit.
        limit: usize,
    },
}

impl std::fmt::Display for CliqueGraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliqueGraphError::TooManyCliques { limit } => {
                write!(f, "clique graph exceeds clique budget ({limit}); treat as OOM")
            }
            CliqueGraphError::TooManyConflicts { limit } => {
                write!(f, "clique graph exceeds conflict budget ({limit}); treat as OOM")
            }
        }
    }
}

impl std::error::Error for CliqueGraphError {}

/// The condensed conflict graph over all k-cliques of a graph.
#[derive(Debug, Clone)]
pub struct CliqueGraph {
    k: usize,
    cliques: CliqueStore,
    /// Conflict adjacency in CSR form: clique `i`'s conflicting ids (sorted,
    /// de-duplicated) are `adj_data[adj_offsets[i]..adj_offsets[i + 1]]`.
    adj_offsets: Vec<usize>,
    adj_data: Vec<u32>,
    num_conflicts: usize,
}

impl CliqueGraph {
    /// Lists all k-cliques of `g` (via a degeneracy-ordered DAG) and builds
    /// the conflict graph, respecting `limits`, with the default executor
    /// configuration. See [`CliqueGraph::build_par`].
    pub fn build(
        g: &CsrGraph,
        k: usize,
        limits: CliqueGraphLimits,
    ) -> Result<Self, CliqueGraphError> {
        Self::build_par(g, k, limits, ParConfig::default())
    }

    /// [`CliqueGraph::build`] with an explicit executor configuration: both
    /// the clique listing and the conflict-edge construction fan out over
    /// `par`, and the result (including the `Err`/`Ok` budget decision) is
    /// identical for any thread count.
    pub fn build_par(
        g: &CsrGraph,
        k: usize,
        limits: CliqueGraphLimits,
        par: ParConfig,
    ) -> Result<Self, CliqueGraphError> {
        let dag = Dag::from_graph(g, NodeOrder::compute(g, OrderingKind::Degeneracy));
        // Enforce the clique budget during collection so an over-limit
        // population aborts before materialising (deterministic OOM).
        let cliques = ListRequest::new(k)
            .with_par(par)
            .collect(&dag, limits.max_cliques)
            .map_err(|limit| CliqueGraphError::TooManyCliques { limit })?;
        Self::from_store_par(g.num_nodes(), cliques, limits, par)
    }

    /// Builds the conflict graph from a clique arena on an explicit
    /// executor: each clique's conflict list is assembled independently by
    /// merging the flat inverted per-node index over its members, so
    /// construction parallelises per clique with no shared mutable
    /// adjacency. Workers emit `[len, ids...]`-framed segments into flat
    /// per-chunk buffers (no per-clique `Vec`s); the chunk-ordered
    /// concatenation is unpacked linearly into the CSR arrays.
    ///
    /// Determinism: adjacency lists are sorted/deduped per clique and
    /// placed by clique id, so the structure is bit-identical for any
    /// thread count. The conflict budget counts *raw gathered entries* (one
    /// per shared-node co-occurrence, from each endpoint) against
    /// `2 × max_conflicts` via a shared running total — exactly the
    /// sequential builder's raw-pair accounting, and monotone, so the
    /// `Err`/`Ok` decision is schedule-independent too.
    pub fn from_store_par(
        num_nodes: usize,
        cliques: CliqueStore,
        limits: CliqueGraphLimits,
        par: ParConfig,
    ) -> Result<Self, CliqueGraphError> {
        let k = cliques.k();
        let num_cliques = cliques.len();
        // Flat inverted index: node -> ids of cliques containing it
        // (ascending, because cliques are scanned in id order). Built as a
        // counting pass + prefix sums + cursor fill over two allocations.
        let mut node_offsets = vec![0usize; num_nodes + 1];
        for &u in cliques.as_flat() {
            node_offsets[u as usize + 1] += 1;
        }
        for i in 0..num_nodes {
            node_offsets[i + 1] += node_offsets[i];
        }
        let mut node_data = vec![0u32; cliques.as_flat().len()];
        let mut cursor = node_offsets.clone();
        for (i, members) in cliques.iter().enumerate() {
            for &u in members {
                node_data[cursor[u as usize]] = i as u32;
                cursor[u as usize] += 1;
            }
        }
        let by_node = |u: u32| &node_data[node_offsets[u as usize]..node_offsets[u as usize + 1]];
        // Raw-pair budget: like the paper's OOM emulation, a pair sharing
        // two nodes counts twice, tripping the budget earlier — like real
        // memory would.
        let raw_budget = limits.max_conflicts.map(|c| SharedBudget::new(c.saturating_mul(2)));
        let framed: Vec<u32> =
            par_try_collect(par, num_cliques, Vec::<u32>::new, |gather, range, out| {
                for i in range {
                    let id = i as u32;
                    gather.clear();
                    for &u in cliques.get(i) {
                        gather.extend_from_slice(by_node(u));
                    }
                    // `id` itself shows up once per member; everything else
                    // is a shared-node co-occurrence with another clique.
                    let raw = gather.len() - k;
                    if let Some(budget) = &raw_budget {
                        if !budget.charge(raw) {
                            return Err(CliqueGraphError::TooManyConflicts {
                                limit: limits.max_conflicts.unwrap_or(0),
                            });
                        }
                    }
                    gather.sort_unstable();
                    gather.dedup();
                    let frame_start = out.len();
                    out.push(0); // frame length, patched below
                    out.extend(gather.iter().copied().filter(|&b| b != id));
                    out[frame_start] = (out.len() - frame_start - 1) as u32;
                }
                Ok(())
            })?;
        // Unpack the framed stream into CSR offsets + data.
        let mut adj_offsets = Vec::with_capacity(num_cliques + 1);
        let mut adj_data = Vec::with_capacity(framed.len().saturating_sub(num_cliques));
        adj_offsets.push(0);
        let mut pos = 0;
        while pos < framed.len() {
            let len = framed[pos] as usize;
            adj_data.extend_from_slice(&framed[pos + 1..pos + 1 + len]);
            adj_offsets.push(adj_data.len());
            pos += 1 + len;
        }
        debug_assert_eq!(adj_offsets.len(), num_cliques + 1);
        let num_conflicts = adj_data.len() / 2;
        Ok(CliqueGraph { k, cliques, adj_offsets, adj_data, num_conflicts })
    }

    /// The clique size `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of condensed nodes (k-cliques).
    #[inline]
    pub fn num_cliques(&self) -> usize {
        self.cliques.len()
    }

    /// Number of conflict edges.
    #[inline]
    pub fn num_conflicts(&self) -> usize {
        self.num_conflicts
    }

    /// The clique behind condensed node `id`, materialised from its arena
    /// row. Prefer [`CliqueGraph::clique_members`] in hot loops.
    #[inline]
    pub fn clique(&self, id: u32) -> Clique {
        self.cliques.clique(id as usize)
    }

    /// The sorted member slice of condensed node `id`, borrowed straight
    /// from the arena.
    #[inline]
    pub fn clique_members(&self, id: u32) -> &[u32] {
        self.cliques.get(id as usize)
    }

    /// All materialised cliques, in enumeration order.
    #[inline]
    pub fn cliques(&self) -> &CliqueStore {
        &self.cliques
    }

    /// Conflicting clique ids of `id` (sorted).
    #[inline]
    pub fn conflicts(&self, id: u32) -> &[u32] {
        &self.adj_data[self.adj_offsets[id as usize]..self.adj_offsets[id as usize + 1]]
    }

    /// Degree of a condensed node — `deg_Gc(C)` of Definition 4.
    #[inline]
    pub fn clique_degree(&self, id: u32) -> usize {
        self.adj_offsets[id as usize + 1] - self.adj_offsets[id as usize]
    }

    /// Conflict edges as `(a, b)` pairs with `a < b`.
    pub fn conflict_edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.num_cliques() as u32).flat_map(move |a| {
            self.conflicts(a).iter().copied().filter(move |&b| a < b).map(move |b| (a, b))
        })
    }

    /// Approximate heap footprint in bytes — the quantity the paper's
    /// Table III shows exploding for OPT/GC.
    pub fn memory_bytes(&self) -> usize {
        self.cliques.memory_bytes()
            + self.adj_offsets.capacity() * std::mem::size_of::<usize>()
            + self.adj_data.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkc_clique::KernelMode;
    use dkc_graph::NodeId;

    /// Fig. 2 graph (v1..v9 → 0..8).
    fn paper_graph() -> CsrGraph {
        CsrGraph::from_edges(
            9,
            vec![
                (0, 2),
                (0, 5),
                (2, 5),
                (2, 4),
                (4, 5),
                (4, 7),
                (5, 7),
                (4, 6),
                (6, 7),
                (6, 8),
                (7, 8),
                (3, 6),
                (3, 8),
                (1, 3),
                (1, 8),
            ],
        )
        .unwrap()
    }

    fn id_of(cg: &CliqueGraph, nodes: &[NodeId]) -> u32 {
        let target = Clique::new(nodes);
        cg.cliques()
            .iter_cliques()
            .position(|c| c == target)
            .map(|i| i as u32)
            .unwrap_or_else(|| panic!("clique {nodes:?} not found"))
    }

    #[test]
    fn reproduces_fig3_structure() {
        let g = paper_graph();
        let cg = CliqueGraph::build(&g, 3, CliqueGraphLimits::unlimited()).unwrap();
        assert_eq!(cg.num_cliques(), 7);
        assert_eq!(cg.num_conflicts(), 11);
        assert_eq!(cg.k(), 3);

        // Example 3: deg_Gc(C1) = 2 where C1 = (v1, v3, v6) = {0, 2, 5}.
        let c1 = id_of(&cg, &[0, 2, 5]);
        assert_eq!(cg.clique_degree(c1), 2);
        // C1's neighbours are C2 = {2,4,5} and C3 = {4,5,7}... no: C3 shares
        // v6 (id 5) with C1. Verify by membership overlap instead of ids.
        for &nb in cg.conflicts(c1) {
            assert!(!cg.clique(c1).is_disjoint(&cg.clique(nb)));
        }
        // Full degree sequence from Fig. 3 (keyed by clique membership).
        let expect = [
            (vec![0, 2, 5], 2), // C1
            (vec![2, 4, 5], 3), // C2
            (vec![4, 5, 7], 4), // C3
            (vec![4, 6, 7], 4), // C4
            (vec![6, 7, 8], 4), // C5
            (vec![3, 6, 8], 3), // C6
            (vec![1, 3, 8], 2), // C7
        ];
        for (nodes, deg) in expect {
            let id = id_of(&cg, &nodes);
            assert_eq!(cg.clique_degree(id), deg, "clique {nodes:?}");
        }
    }

    #[test]
    fn conflicts_are_exactly_the_non_disjoint_pairs() {
        let g = paper_graph();
        let cg = CliqueGraph::build(&g, 3, CliqueGraphLimits::unlimited()).unwrap();
        for a in 0..cg.num_cliques() as u32 {
            for b in (a + 1)..cg.num_cliques() as u32 {
                let conflict = cg.conflicts(a).binary_search(&b).is_ok();
                let overlap = !cg.clique(a).is_disjoint(&cg.clique(b));
                assert_eq!(conflict, overlap, "cliques {a} and {b}");
            }
        }
    }

    #[test]
    fn clique_budget_trips() {
        let g = paper_graph();
        let err = CliqueGraph::build(
            &g,
            3,
            CliqueGraphLimits { max_cliques: Some(3), max_conflicts: None },
        )
        .unwrap_err();
        assert_eq!(err, CliqueGraphError::TooManyCliques { limit: 3 });
        assert!(err.to_string().contains("OOM"));
    }

    #[test]
    fn conflict_budget_trips() {
        let g = paper_graph();
        let err = CliqueGraph::build(
            &g,
            3,
            CliqueGraphLimits { max_cliques: None, max_conflicts: Some(2) },
        )
        .unwrap_err();
        assert!(matches!(err, CliqueGraphError::TooManyConflicts { .. }));
    }

    #[test]
    fn exact_budget_boundary_is_inclusive() {
        let g = paper_graph();
        let ok = CliqueGraph::build(
            &g,
            3,
            CliqueGraphLimits { max_cliques: Some(7), max_conflicts: None },
        );
        assert!(ok.is_ok(), "exactly at the limit must succeed");
    }

    #[test]
    fn graph_without_cliques_gives_empty_clique_graph() {
        let g = CsrGraph::from_edges(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let cg = CliqueGraph::build(&g, 3, CliqueGraphLimits::unlimited()).unwrap();
        assert_eq!(cg.num_cliques(), 0);
        assert_eq!(cg.num_conflicts(), 0);
        assert_eq!(cg.conflict_edges().count(), 0);
    }

    #[test]
    fn conflict_edges_iterator_is_consistent() {
        let g = paper_graph();
        let cg = CliqueGraph::build(&g, 3, CliqueGraphLimits::unlimited()).unwrap();
        let edges: Vec<(u32, u32)> = cg.conflict_edges().collect();
        assert_eq!(edges.len(), cg.num_conflicts());
        for (a, b) in edges {
            assert!(a < b);
            assert!(cg.conflicts(a).contains(&b));
        }
    }

    #[test]
    fn kernel_modes_build_identical_graphs_and_budget_decisions() {
        let g = paper_graph();
        let base = CliqueGraph::build(&g, 3, CliqueGraphLimits::unlimited()).unwrap();
        let dag = Dag::from_graph(&g, NodeOrder::compute(&g, OrderingKind::Degeneracy));
        for mode in [KernelMode::Slice, KernelMode::Bitset, KernelMode::Adaptive] {
            for threads in [1, 2, 8] {
                let par = ParConfig::new(threads).with_chunk(1);
                let req = ListRequest::new(3).with_par(par).with_kernel(mode);
                let store = req.collect(&dag, None).unwrap();
                let cg = CliqueGraph::from_store_par(
                    g.num_nodes(),
                    store,
                    CliqueGraphLimits::unlimited(),
                    par,
                )
                .unwrap();
                assert_eq!(cg.cliques(), base.cliques(), "{mode} threads={threads}");
                assert_eq!(cg.num_conflicts(), base.num_conflicts());
                for id in 0..cg.num_cliques() as u32 {
                    assert_eq!(cg.conflicts(id), base.conflicts(id));
                }
                // Budget decisions are mode- and schedule-independent too.
                assert_eq!(req.collect(&dag, Some(3)), Err(3), "{mode} threads={threads}");
            }
        }
    }

    #[test]
    fn memory_accounting_is_positive_for_nonempty_graphs() {
        let g = paper_graph();
        let cg = CliqueGraph::build(&g, 3, CliqueGraphLimits::unlimited()).unwrap();
        assert!(cg.memory_bytes() > 0);
    }
}
