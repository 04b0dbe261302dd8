//! The listing recursion behind [`crate::ListRequest`]'s visitor and
//! collectors.

use crate::kernel::{self, DenseIndex, KernelMode};
use dkc_graph::{Dag, NodeId};

/// Reusable recursion state: one candidate buffer per depth plus the member
/// stack, so enumeration performs no per-clique allocation. Holds both
/// kernels' scratch; [`KernelMode`] picks per root.
pub(crate) struct ListCtx<'a> {
    dag: &'a Dag,
    k: usize,
    mode: KernelMode,
    stack: Vec<NodeId>,
    /// `bufs[d]` holds the slice-kernel candidate set at recursion depth `d`.
    bufs: Vec<Vec<NodeId>>,
    /// `levels[d]` holds the bitset-kernel candidate words at depth `d`.
    levels: Vec<Vec<u64>>,
    dense: DenseIndex,
}

impl<'a> ListCtx<'a> {
    pub(crate) fn new(dag: &'a Dag, k: usize, mode: KernelMode) -> Self {
        assert!(k >= 1, "k must be at least 1");
        ListCtx {
            dag,
            k,
            mode,
            stack: Vec::with_capacity(k),
            bufs: vec![Vec::new(); k.saturating_sub(1)],
            levels: vec![Vec::new(); k.saturating_sub(1)],
            dense: DenseIndex::default(),
        }
    }

    /// Runs the recursion for one root. The callback returns `false` to
    /// stop; the return value propagates that request outward.
    pub(crate) fn run_root<F: FnMut(&[NodeId]) -> bool>(&mut self, u: NodeId, cb: &mut F) -> bool {
        if self.k == 1 {
            return cb(&[u]);
        }
        let d = self.dag.out_degree(u);
        if d < self.k - 1 {
            return true;
        }
        if self.mode.dense_for(self.k, d) {
            return self.run_root_dense(u, cb);
        }
        self.stack.clear();
        self.stack.push(u);
        let mut first = std::mem::take(&mut self.bufs[0]);
        first.clear();
        first.extend_from_slice(self.dag.out_neighbors(u));
        let keep_going = self.recurse(self.k - 1, &first, cb);
        self.bufs[0] = first;
        keep_going
    }

    /// Extends the member stack with `l` more nodes drawn from `cand`.
    /// Returns `false` when the callback requested a stop.
    fn recurse<F: FnMut(&[NodeId]) -> bool>(
        &mut self,
        l: usize,
        cand: &[NodeId],
        cb: &mut F,
    ) -> bool {
        if cand.len() < l {
            return true;
        }
        if l == 1 {
            for &v in cand {
                self.stack.push(v);
                let keep_going = cb(&self.stack);
                self.stack.pop();
                if !keep_going {
                    return false;
                }
            }
            return true;
        }
        let depth = self.k - l; // 1-based depth into bufs
        let mut sub = std::mem::take(&mut self.bufs[depth]);
        let mut keep_going = true;
        for &v in cand {
            // Only descend through v's out-neighbours: this de-duplicates
            // member selection the same way the DAG de-duplicates roots.
            crate::list::intersect_sorted(cand, self.dag.out_neighbors(v), &mut sub);
            if sub.len() >= l - 1 {
                self.stack.push(v);
                keep_going = self.recurse(l - 1, &sub, cb);
                self.stack.pop();
                if !keep_going {
                    break;
                }
            }
        }
        self.bufs[depth] = sub;
        keep_going
    }

    /// Bitset-kernel root: densify `N⁺(u)` once, then recurse on words.
    /// Local ids ascend with global ids, so the visit (and therefore
    /// emission) order is exactly the slice kernel's.
    fn run_root_dense<F: FnMut(&[NodeId]) -> bool>(&mut self, u: NodeId, cb: &mut F) -> bool {
        let d = self.dense.build(self.dag, u);
        self.stack.clear();
        self.stack.push(u);
        let mut first = std::mem::take(&mut self.levels[0]);
        kernel::fill_full(&mut first, d);
        let keep_going = self.recurse_dense(self.k - 1, &first, cb);
        self.levels[0] = first;
        keep_going
    }

    fn recurse_dense<F: FnMut(&[NodeId]) -> bool>(
        &mut self,
        l: usize,
        cand: &[u64],
        cb: &mut F,
    ) -> bool {
        if kernel::count_ones(cand) < l {
            return true;
        }
        if l == 1 {
            for i in kernel::ones(cand) {
                self.stack.push(self.dense.globals[i]);
                let keep_going = cb(&self.stack);
                self.stack.pop();
                if !keep_going {
                    return false;
                }
            }
            return true;
        }
        let depth = self.k - l;
        let mut sub = std::mem::take(&mut self.levels[depth]);
        let mut keep_going = true;
        for i in kernel::ones(cand) {
            kernel::and_into(&mut sub, cand, self.dense.row(i));
            if kernel::count_ones(&sub) >= l - 1 {
                self.stack.push(self.dense.globals[i]);
                keep_going = self.recurse_dense(l - 1, &sub, cb);
                self.stack.pop();
                if !keep_going {
                    break;
                }
            }
        }
        self.levels[depth] = sub;
        keep_going
    }
}

/// `out = a ∩ b` for sorted slices; clears `out` first.
pub(crate) fn intersect_sorted(a: &[NodeId], b: &[NodeId], out: &mut Vec<NodeId>) {
    out.clear();
    // Galloping is not worth it at these sizes; plain merge is branch-cheap.
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ListRequest;
    use dkc_graph::{CsrGraph, NodeOrder, OrderingKind};
    use dkc_par::ParConfig;
    use std::collections::BTreeSet;

    /// Fig. 2 graph of the paper (v1..v9 → 0..8), with seven 3-cliques.
    pub(crate) fn paper_graph() -> CsrGraph {
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

    pub(crate) fn dag_of(g: &CsrGraph, kind: OrderingKind) -> Dag {
        Dag::from_graph(g, NodeOrder::compute(g, kind))
    }

    fn clique_set(dag: &Dag, k: usize) -> BTreeSet<Vec<NodeId>> {
        let mut out = BTreeSet::new();
        ListRequest::new(k).visit(dag, |nodes| {
            let mut v = nodes.to_vec();
            v.sort_unstable();
            assert!(out.insert(v), "clique reported twice: {nodes:?}");
            true
        });
        out
    }

    /// Every clique the visitor reports, in visit order, as emitted.
    pub(crate) fn visited(dag: &Dag, k: usize, mode: KernelMode) -> Vec<Vec<NodeId>> {
        let mut out = Vec::new();
        ListRequest::new(k).with_kernel(mode).visit(dag, |c| {
            out.push(c.to_vec());
            true
        });
        out
    }

    /// [`visited`] with each clique sorted: the rows a collection must hold.
    pub(crate) fn visited_rows(dag: &Dag, k: usize) -> Vec<NodeId> {
        let mut rows = visited(dag, k, KernelMode::Slice);
        rows.iter_mut().for_each(|c| c.sort_unstable());
        rows.concat()
    }

    #[test]
    fn paper_graph_has_exactly_the_seven_3cliques_of_example1() {
        let g = paper_graph();
        let dag = dag_of(&g, OrderingKind::Identity);
        let expected: BTreeSet<Vec<NodeId>> = [
            vec![0, 2, 5], // C1 = (v1, v3, v6)
            vec![2, 4, 5], // C2 = (v3, v5, v6)
            vec![4, 5, 7], // C3 = (v5, v6, v8)
            vec![4, 6, 7], // C4 = (v5, v7, v8)
            vec![6, 7, 8], // C5 = (v7, v8, v9)
            vec![3, 6, 8], // C6 = (v4, v7, v9)
            vec![1, 3, 8], // C7 = (v2, v4, v9)
        ]
        .into_iter()
        .collect();
        assert_eq!(clique_set(&dag, 3), expected);
    }

    #[test]
    fn enumeration_is_order_invariant() {
        let g = paper_graph();
        let identity = clique_set(&dag_of(&g, OrderingKind::Identity), 3);
        for kind in [OrderingKind::DegreeAsc, OrderingKind::DegreeDesc, OrderingKind::Degeneracy] {
            assert_eq!(clique_set(&dag_of(&g, kind), 3), identity, "{kind:?}");
        }
    }

    #[test]
    fn kernel_modes_emit_identical_sequences() {
        let g = paper_graph();
        for kind in [OrderingKind::Identity, OrderingKind::Degeneracy] {
            let dag = dag_of(&g, kind);
            for k in 1..=4 {
                let baseline = visited(&dag, k, KernelMode::Slice);
                for mode in [KernelMode::Bitset, KernelMode::Adaptive] {
                    assert_eq!(visited(&dag, k, mode), baseline, "{kind:?} k={k} {mode}");
                }
            }
        }
    }

    #[test]
    fn k1_reports_nodes_and_k2_reports_edges() {
        let g = paper_graph();
        let dag = dag_of(&g, OrderingKind::Degeneracy);
        assert_eq!(clique_set(&dag, 1).len(), 9);
        assert_eq!(clique_set(&dag, 2).len(), 15);
    }

    #[test]
    fn root_is_highest_ranked_member() {
        let g = paper_graph();
        let dag = dag_of(&g, OrderingKind::Degeneracy);
        ListRequest::new(3).visit(&dag, |nodes| {
            let root = nodes[0];
            for &v in &nodes[1..] {
                assert!(dag.rank(v) < dag.rank(root));
            }
            true
        });
    }

    #[test]
    fn rooted_enumeration_partitions_the_clique_set() {
        let g = paper_graph();
        let dag = dag_of(&g, OrderingKind::Identity);
        let mut ctx = ListCtx::new(&dag, 3, KernelMode::default());
        let mut total = 0usize;
        for u in 0..9 {
            ctx.run_root(u, &mut |_| {
                total += 1;
                true
            });
        }
        assert_eq!(total, 7);
    }

    #[test]
    fn k4_in_complete_graph() {
        // K6 has C(6,4) = 15 4-cliques, C(6,3) = 20 triangles.
        let mut edges = Vec::new();
        for a in 0..6u32 {
            for b in (a + 1)..6 {
                edges.push((a, b));
            }
        }
        let g = CsrGraph::from_edges(6, edges).unwrap();
        let dag = dag_of(&g, OrderingKind::Degeneracy);
        assert_eq!(clique_set(&dag, 3).len(), 20);
        assert_eq!(clique_set(&dag, 4).len(), 15);
        assert_eq!(clique_set(&dag, 5).len(), 6);
        assert_eq!(clique_set(&dag, 6).len(), 1);
        assert_eq!(clique_set(&dag, 7).len(), 0);
    }

    #[test]
    fn forced_bitset_handles_complete_graphs() {
        let mut edges = Vec::new();
        for a in 0..6u32 {
            for b in (a + 1)..6 {
                edges.push((a, b));
            }
        }
        let g = CsrGraph::from_edges(6, edges).unwrap();
        let dag = dag_of(&g, OrderingKind::Degeneracy);
        for k in 3..=7 {
            let bitset = ListRequest::new(k).with_kernel(KernelMode::Bitset);
            let store = bitset.collect(&dag, None).unwrap();
            assert_eq!(store.as_flat(), visited_rows(&dag, k), "k={k}");
        }
    }

    #[test]
    fn triangle_free_graph_has_no_3cliques() {
        // C5 (5-cycle) is triangle-free.
        let g = CsrGraph::from_edges(5, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let dag = dag_of(&g, OrderingKind::Degeneracy);
        assert!(clique_set(&dag, 3).is_empty());
    }

    #[test]
    fn collect_matches_for_each() {
        let g = paper_graph();
        let dag = dag_of(&g, OrderingKind::Identity);
        let collected = ListRequest::new(3).collect(&dag, None).unwrap();
        assert_eq!(collected.len(), 7);
        assert_eq!(collected.as_flat(), visited_rows(&dag, 3));
        let set: BTreeSet<Vec<NodeId>> = collected.iter().map(<[NodeId]>::to_vec).collect();
        assert_eq!(set, clique_set(&dag, 3));
    }

    #[test]
    fn bounded_collection_respects_the_budget() {
        let g = paper_graph();
        let dag = dag_of(&g, OrderingKind::Degeneracy);
        let triangles = ListRequest::new(3);
        // Exactly at the limit succeeds.
        let ok = triangles.collect(&dag, Some(7)).unwrap();
        assert_eq!(ok.len(), 7);
        // Below the limit aborts without materialising everything.
        assert_eq!(triangles.collect(&dag, Some(6)), Err(6));
        assert_eq!(triangles.collect(&dag, Some(0)), Err(0));
        // Generous limit behaves like the unbounded collector.
        let all = triangles.collect(&dag, Some(1_000));
        assert_eq!(all, triangles.collect(&dag, None));
    }

    #[test]
    fn bounded_parallel_matches_sequential_decisions_and_output() {
        let g = paper_graph();
        let dag = dag_of(&g, OrderingKind::Degeneracy);
        let seq = ListRequest::new(3).with_kernel(KernelMode::Slice);
        for mode in [KernelMode::Slice, KernelMode::Bitset, KernelMode::Adaptive] {
            for threads in [1usize, 2, 8] {
                let par = ListRequest::new(3)
                    .with_par(ParConfig::new(threads).with_chunk(1))
                    .with_kernel(mode);
                for limit in [0usize, 3, 6, 7, 1000] {
                    assert_eq!(
                        par.collect(&dag, Some(limit)),
                        seq.collect(&dag, Some(limit)),
                        "threads={threads} limit={limit} {mode}"
                    );
                }
            }
        }
    }

    #[test]
    fn early_stop_enumeration_visits_a_prefix() {
        let g = paper_graph();
        let dag = dag_of(&g, OrderingKind::Identity);
        let mut seen = 0;
        let completed = ListRequest::new(3).visit(&dag, |_| {
            seen += 1;
            seen < 3
        });
        assert_eq!(seen, 3, "stopped after the third clique");
        assert!(!completed);
        assert!(ListRequest::new(3).visit(&dag, |_| true));
    }

    #[test]
    fn intersect_sorted_basic() {
        let mut out = Vec::new();
        intersect_sorted(&[1, 3, 5, 7], &[2, 3, 4, 7, 9], &mut out);
        assert_eq!(out, vec![3, 7]);
        intersect_sorted(&[], &[1], &mut out);
        assert!(out.is_empty());
    }
}
