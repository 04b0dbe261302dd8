use crate::kernel::{self, DenseIndex, KernelMode};
use crate::list::intersect_sorted;
use dkc_graph::{Dag, NodeId};

/// Reusable recursion state for counting, optionally accumulating per-node
/// scores into a caller-provided array (kept outside the context so one
/// context can serve as per-worker scratch while the accumulator lives in
/// the executor's reduction slot). Holds both kernels' scratch;
/// [`KernelMode`] picks per root.
pub(crate) struct CountCtx<'a> {
    dag: &'a Dag,
    k: usize,
    mode: KernelMode,
    stack: Vec<NodeId>,
    bufs: Vec<Vec<NodeId>>,
    levels: Vec<Vec<u64>>,
    dense: DenseIndex,
}

impl<'a> CountCtx<'a> {
    pub(crate) fn new(dag: &'a Dag, k: usize, mode: KernelMode) -> Self {
        assert!(k >= 1, "k must be at least 1");
        CountCtx {
            dag,
            k,
            mode,
            stack: Vec::with_capacity(k),
            bufs: vec![Vec::new(); k.saturating_sub(1)],
            levels: vec![Vec::new(); k.saturating_sub(1)],
            dense: DenseIndex::default(),
        }
    }

    /// Counts (and scores, when `scores` is given) the k-cliques rooted at
    /// `u`; returns the count.
    pub(crate) fn run_root(&mut self, u: NodeId, mut scores: Option<&mut [u64]>) -> u64 {
        if self.k == 1 {
            if let Some(s) = scores.as_deref_mut() {
                s[u as usize] += 1;
            }
            return 1;
        }
        let d = self.dag.out_degree(u);
        if d < self.k - 1 {
            return 0;
        }
        if self.mode.dense_for(self.k, d) {
            return self.run_root_dense(u, scores);
        }
        self.stack.clear();
        self.stack.push(u);
        let mut first = std::mem::take(&mut self.bufs[0]);
        first.clear();
        first.extend_from_slice(self.dag.out_neighbors(u));
        let c = self.recurse(self.k - 1, &first, scores);
        self.bufs[0] = first;
        c
    }

    fn recurse(&mut self, l: usize, cand: &[NodeId], mut scores: Option<&mut [u64]>) -> u64 {
        if cand.len() < l {
            return 0;
        }
        if l == 1 {
            // Every candidate completes a clique with the current stack:
            // aggregate instead of touching counters once per clique.
            if let Some(scores) = scores.as_deref_mut() {
                for &v in cand {
                    scores[v as usize] += 1;
                }
                let found = cand.len() as u64;
                for &c in &self.stack {
                    scores[c as usize] += found;
                }
            }
            return cand.len() as u64;
        }
        let depth = self.k - l;
        let mut sub = std::mem::take(&mut self.bufs[depth]);
        let mut total = 0u64;
        for &v in cand {
            intersect_sorted(cand, self.dag.out_neighbors(v), &mut sub);
            if sub.len() >= l - 1 {
                self.stack.push(v);
                total += self.recurse(l - 1, &sub, scores.as_deref_mut());
                self.stack.pop();
            }
        }
        self.bufs[depth] = sub;
        total
    }

    /// Bitset-kernel root: one matrix build, then word-AND recursion. The
    /// innermost aggregation mirrors the slice kernel (candidate popcount
    /// credited wholesale), so counts and scores are bit-identical.
    fn run_root_dense(&mut self, u: NodeId, scores: Option<&mut [u64]>) -> u64 {
        let d = self.dense.build(self.dag, u);
        self.stack.clear();
        self.stack.push(u);
        let mut first = std::mem::take(&mut self.levels[0]);
        kernel::fill_full(&mut first, d);
        let c = self.recurse_dense(self.k - 1, &first, scores);
        self.levels[0] = first;
        c
    }

    fn recurse_dense(&mut self, l: usize, cand: &[u64], mut scores: Option<&mut [u64]>) -> u64 {
        let cand_ones = kernel::count_ones(cand);
        if cand_ones < l {
            return 0;
        }
        if l == 1 {
            if let Some(scores) = scores.as_deref_mut() {
                for i in kernel::ones(cand) {
                    scores[self.dense.globals[i] as usize] += 1;
                }
                let found = cand_ones as u64;
                for &c in &self.stack {
                    scores[c as usize] += found;
                }
            }
            return cand_ones as u64;
        }
        let depth = self.k - l;
        let mut sub = std::mem::take(&mut self.levels[depth]);
        let mut total = 0u64;
        for i in kernel::ones(cand) {
            kernel::and_into(&mut sub, cand, self.dense.row(i));
            if kernel::count_ones(&sub) >= l - 1 {
                self.stack.push(self.dense.globals[i]);
                total += self.recurse_dense(l - 1, &sub, scores.as_deref_mut());
                self.stack.pop();
            }
        }
        self.levels[depth] = sub;
        total
    }
}

#[cfg(test)]
mod tests {
    use crate::list::tests::{dag_of, paper_graph};
    use crate::{KernelMode, ListRequest};
    use dkc_graph::{CsrGraph, Dag, OrderingKind};
    use dkc_par::ParConfig;

    fn dag(g: &CsrGraph) -> Dag {
        dag_of(g, OrderingKind::Degeneracy)
    }

    #[test]
    fn counts_match_example1() {
        let g = paper_graph();
        let d = dag(&g);
        assert_eq!(ListRequest::new(3).count(&d), 7);
        assert_eq!(ListRequest::new(1).count(&d), 9);
        assert_eq!(ListRequest::new(2).count(&d), 15);
        assert_eq!(ListRequest::new(4).count(&d), 0); // no 4-clique in Fig. 2
    }

    #[test]
    fn node_scores_match_example3() {
        // Example 3: s_n(v6) = s_n(v5) = s_n(v8) = 3.
        let g = paper_graph();
        let d = dag(&g);
        let s = ListRequest::new(3).scores(&d);
        assert_eq!(s[5], 3); // v6
        assert_eq!(s[4], 3); // v5
        assert_eq!(s[7], 3); // v8
                             // Total score = k * number of cliques.
        assert_eq!(s.iter().sum::<u64>(), 3 * 7);
    }

    #[test]
    fn scores_agree_with_explicit_enumeration() {
        let g = paper_graph();
        let d = dag(&g);
        for k in 1..=4 {
            let fast = ListRequest::new(k).scores(&d);
            let mut slow = vec![0u64; 9];
            ListRequest::new(k).with_kernel(KernelMode::Slice).visit(&d, |nodes| {
                for &v in nodes {
                    slow[v as usize] += 1;
                }
                true
            });
            assert_eq!(fast, slow, "k={k}");
        }
    }

    #[test]
    fn complete_graph_counts_are_binomials() {
        let mut edges = Vec::new();
        for a in 0..8u32 {
            for b in (a + 1)..8 {
                edges.push((a, b));
            }
        }
        let g = CsrGraph::from_edges(8, edges).unwrap();
        let d = dag(&g);
        // C(8, k) cliques; every node participates in C(7, k-1).
        let binom = |n: u64, k: u64| -> u64 { (0..k).fold(1u64, |acc, i| acc * (n - i) / (i + 1)) };
        for k in 1..=8usize {
            assert_eq!(ListRequest::new(k).count(&d), binom(8, k as u64), "k={k}");
            let s = ListRequest::new(k).scores(&d);
            for (u, &score) in s.iter().enumerate() {
                assert_eq!(score, binom(7, k as u64 - 1), "k={k} u={u}");
            }
        }
    }

    #[test]
    fn kernel_modes_agree_on_counts_and_scores() {
        let g = paper_graph();
        let d = dag(&g);
        for k in 1..=4 {
            let base = ListRequest::new(k).with_kernel(KernelMode::Slice);
            for mode in [KernelMode::Bitset, KernelMode::Adaptive] {
                let req = base.with_kernel(mode);
                assert_eq!(req.count(&d), base.count(&d), "k={k} {mode}");
                assert_eq!(req.scores(&d), base.scores(&d), "k={k} {mode}");
            }
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        // Random-ish graph built deterministically. A small chunk forces
        // genuinely parallel execution despite the modest size.
        let mut edges = Vec::new();
        for i in 0..600u32 {
            edges.push((i % 200, (i * 7 + 3) % 200));
            edges.push((i % 200, (i * 13 + 11) % 200));
        }
        let g = CsrGraph::from_edges(200, edges).unwrap();
        let d = dag(&g);
        for threads in [2usize, 4, 8] {
            let par = ParConfig::new(threads).with_chunk(16);
            for k in 3..=5 {
                let seq = ListRequest::new(k);
                let req = seq.with_par(par);
                assert_eq!(req.count(&d), seq.count(&d), "count k={k} threads={threads}");
                assert_eq!(req.scores(&d), seq.scores(&d), "scores k={k} threads={threads}");
            }
        }
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = CsrGraph::empty();
        let d = dag(&g);
        let triangles = ListRequest::new(3);
        assert_eq!(triangles.count(&d), 0);
        assert!(triangles.scores(&d).is_empty());

        let g = CsrGraph::from_edges(2, vec![(0, 1)]).unwrap();
        let d = dag(&g);
        assert_eq!(triangles.count(&d), 0);
        assert_eq!(triangles.scores(&d), vec![0, 0]);
    }
}
