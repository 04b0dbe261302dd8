use crate::{check_k, Solution, SolveError, Solver};
use dkc_clique::{Clique, ListRequest, MinScoreFinder};
use dkc_graph::{CsrGraph, Dag, NodeId, NodeOrder};
use dkc_par::{par_for_each_root, ParConfig};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// **L / LP** — the lightweight implementation (Algorithm 3).
///
/// Produces the same greedy-by-clique-score result as [`crate::GcSolver`]
/// *without storing the clique set*:
///
/// 1. One enumeration pass computes the node scores `s_n(u)` (Definition 5)
///    in `O(n + m)` memory (Line 2).
/// 2. Nodes are totally ordered by ascending score and the graph oriented
///    into a DAG, so every k-clique is owned by exactly one *root* — its
///    highest-ordered member (Lines 3-4).
/// 3. `HeapInit`: for every root, `FindMin` locates the clique of locally
///    minimum clique score; the local minima sit in a global min-heap
///    (Lines 10-14), found in parallel across roots.
/// 4. `Calculation`: repeatedly pop the global minimum. If its members are
///    all still valid it joins `S`; otherwise, if its root is still valid,
///    the root is re-probed against the shrunken graph and its new local
///    minimum re-enters the heap (Lines 31-39). With more than one worker
///    the heap drains in deterministic rounds whose stale-entry re-probes
///    run speculatively in parallel — bit-identical to the sequential
///    drain, pops and stats included (the validation argument lives on
///    `drain_rounds` in the source).
///
/// With [`LightweightSolver::prune`] the `FindMin` search applies the
/// score-driven pruning rule (the paper's **LP**); without it the search is
/// exhaustive (**L**). Both return identical solutions — pruning only skips
/// branches that cannot beat the incumbent — which the test-suite checks.
///
/// Time `O(n · m · (d/2)^(k-2))` worst case, space `O(n + m)`.
#[derive(Debug, Clone, Copy)]
pub struct LightweightSolver {
    /// Apply score-driven pruning (LP) or search exhaustively (L).
    pub prune: bool,
    /// Executor configuration for the score pass, `HeapInit`, and the
    /// `Calculation` phase's re-probe rounds. Results are deterministic
    /// regardless of thread count.
    pub par: ParConfig,
}

impl Default for LightweightSolver {
    fn default() -> Self {
        LightweightSolver { prune: true, par: ParConfig::default() }
    }
}

impl LightweightSolver {
    /// The paper's **LP** configuration (pruning on).
    pub fn lp() -> Self {
        LightweightSolver { prune: true, par: ParConfig::default() }
    }

    /// The paper's **L** configuration (pruning off).
    pub fn l() -> Self {
        LightweightSolver { prune: false, par: ParConfig::default() }
    }

    /// Overrides the thread count (1 = fully sequential).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.par = self.par.with_threads(threads);
        self
    }

    /// Overrides the full executor configuration.
    pub fn with_par(mut self, par: ParConfig) -> Self {
        self.par = par;
        self
    }
}

/// Heap entry: ordered by (score, clique) so ties break on the canonical
/// clique order and the pop sequence is deterministic. The root (the
/// clique's highest-ordered member) rides along for re-probing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    score: u64,
    clique: Clique,
    root: NodeId,
}

/// Instrumentation of one L/LP run — the quantities behind the paper's
/// "redundant computation is limited" argument (Section IV-C analysis).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LpRunStats {
    /// Entries pushed during `HeapInit` (one per root with a clique).
    pub initial_entries: u64,
    /// Total heap pops.
    pub heap_pops: u64,
    /// Pops whose clique had an invalidated member (the redundant work the
    /// score pruning keeps small).
    pub stale_pops: u64,
    /// `FindMin` re-probes triggered by stale pops with a live root.
    pub reprobes: u64,
    /// Re-probes that produced a replacement entry.
    pub reprobe_hits: u64,
    /// Cliques added to `S`.
    pub cliques_added: u64,
}

impl Solver for LightweightSolver {
    fn name(&self) -> &'static str {
        if self.prune {
            "LP"
        } else {
            "L"
        }
    }

    fn solve(&self, g: &CsrGraph, k: usize) -> Result<Solution, SolveError> {
        self.solve_with_stats(g, k).map(|(s, _)| s)
    }
}

impl LightweightSolver {
    /// [`Solver::solve`] plus run instrumentation.
    pub fn solve_with_stats(
        &self,
        g: &CsrGraph,
        k: usize,
    ) -> Result<(Solution, LpRunStats), SolveError> {
        check_k(k)?;
        let n = g.num_nodes();
        let mut stats = LpRunStats::default();
        // Line 2: node scores from one (parallel) enumeration pass over a
        // degeneracy-oriented DAG — the cheapest orientation for listing.
        let score_dag =
            Dag::from_graph(g, NodeOrder::compute(g, dkc_graph::OrderingKind::Degeneracy));
        let scores = ListRequest::new(k).with_par(self.par).scores(&score_dag);
        drop(score_dag);

        // Lines 3-4: score-ascending total order; every clique is owned by
        // its maximum-score member (ties by id).
        let order = NodeOrder::from_scores_asc(&scores);
        let dag = Dag::from_graph(g, order);

        let valid = vec![true; n];
        // Lines 10-14 (HeapInit, "for each node u in parallel").
        let entries = self.heap_init(&dag, &scores, &valid, k);
        stats.initial_entries = entries.len() as u64;
        let mut heap: BinaryHeap<Reverse<Entry>> = entries.into_iter().map(Reverse).collect();

        // Lines 31-39 (Calculation).
        let mut valid = valid;
        let mut solution = Solution::new(k);
        if self.par.threads <= 1 {
            self.drain_sequential(
                &dag,
                &scores,
                &mut heap,
                &mut valid,
                k,
                &mut stats,
                &mut solution,
            );
        } else {
            self.drain_rounds(&dag, &scores, &mut heap, &mut valid, k, &mut stats, &mut solution);
        }
        Ok((solution, stats))
    }

    /// The plain sequential Calculation drain (Lines 31-39 verbatim).
    #[allow(clippy::too_many_arguments)]
    fn drain_sequential(
        &self,
        dag: &Dag,
        scores: &[u64],
        heap: &mut BinaryHeap<Reverse<Entry>>,
        valid: &mut [bool],
        k: usize,
        stats: &mut LpRunStats,
        solution: &mut Solution,
    ) {
        let mut finder = MinScoreFinder::new(dag, scores, k, self.prune);
        while let Some(Reverse(entry)) = heap.pop() {
            stats.heap_pops += 1;
            if entry.clique.iter().all(|u| valid[u as usize]) {
                for u in entry.clique.iter() {
                    valid[u as usize] = false;
                }
                solution.push(entry.clique);
                stats.cliques_added += 1;
            } else {
                stats.stale_pops += 1;
                if valid[entry.root as usize] {
                    // Stale local minimum: re-probe the root against the
                    // current residual graph.
                    stats.reprobes += 1;
                    if let Some(found) = finder.find(entry.root, valid) {
                        stats.reprobe_hits += 1;
                        heap.push(Reverse(Entry {
                            score: found.score,
                            clique: found.clique,
                            root: entry.root,
                        }));
                    }
                }
            }
        }
    }

    /// The round-based Calculation drain: identical pops, stats and
    /// solution to [`LightweightSolver::drain_sequential`], but the
    /// `FindMin` re-probes — the expensive part of the phase — fan out
    /// over the executor.
    ///
    /// Each round pops the `R` smallest heap entries (so every remaining
    /// heap entry ranks after all of them), **speculatively** re-probes
    /// the already-stale ones against the round-start `valid` set in
    /// parallel, then replays the exact sequential pop order. A
    /// speculative result is used only when its clique is still fully
    /// valid at its pop — in that case it provably equals what an inline
    /// re-probe would return: the valid set only shrinks, every clique of
    /// the shrunken set is a clique of the snapshot set, and
    /// `MinScoreFinder` keeps the *first* clique (in its fixed recursion
    /// order) attaining the minimum score, so a surviving snapshot
    /// minimum is the shrunken set's minimum with the same tie-break.
    /// A speculative *miss* (`None`) is equally sound: a root with no
    /// valid clique in the snapshot has none in any subset. Everything
    /// else falls back to an inline re-probe, so the drain is
    /// bit-identical to sequential for any thread count or round size.
    #[allow(clippy::too_many_arguments)]
    fn drain_rounds(
        &self,
        dag: &Dag,
        scores: &[u64],
        heap: &mut BinaryHeap<Reverse<Entry>>,
        valid: &mut [bool],
        k: usize,
        stats: &mut LpRunStats,
        solution: &mut Solution,
    ) {
        // Rounds sized in executor chunks: enough per-worker probes to
        // amortise spawn/join (par_for_each_root runs small rounds
        // inline), small enough that intra-round invalidation — which
        // voids speculation — stays rare.
        let round = self.par.chunk.max(1).saturating_mul(4).max(16);
        let mut batch: Vec<Entry> = Vec::with_capacity(round);
        let mut pending: BinaryHeap<Reverse<Entry>> = BinaryHeap::new();
        let mut finder = MinScoreFinder::new(dag, scores, k, self.prune);
        while !heap.is_empty() {
            batch.clear();
            while batch.len() < round {
                match heap.pop() {
                    Some(Reverse(e)) => batch.push(e),
                    None => break,
                }
            }
            // Speculation: probe every entry that is already stale with a
            // live root, against the round-start valid set. Read-only and
            // keyed by root (the heap never holds two entries per root),
            // so the fan-out is embarrassingly parallel and the result is
            // schedule-independent. The cheap pre-scan compacts the probe
            // list first: low-staleness rounds (the common case per the
            // Section IV-C analysis) fan out over nothing and pay no
            // spawn/join, and the executor chunks over actual probes
            // rather than mostly-empty batch slots.
            let stale_roots: Vec<NodeId> = batch
                .iter()
                .filter(|e| !e.clique.iter().all(|u| valid[u as usize]) && valid[e.root as usize])
                .map(|e| e.root)
                .collect();
            // Each probe is a full FindMin recursion, far heavier than the
            // per-root work elsewhere — cap the probe chunk so a round's
            // worth of stale roots is enough to fan out.
            let probe_par = self.par.with_chunk(self.par.chunk.clamp(1, 8));
            let speculated: HashMap<NodeId, Option<dkc_clique::ScoredClique>> = par_for_each_root(
                probe_par,
                stale_roots.len(),
                || MinScoreFinder::new(dag, scores, k, self.prune),
                |worker_finder, i, out| {
                    let root = stale_roots[i];
                    out.push((root, worker_finder.find(root, valid)));
                },
            )
            .into_iter()
            .collect();

            // Replay: the sequential pop order over batch ∪ intra-round
            // pushes. Every remaining heap entry ranks after the whole
            // batch, so the merge below reproduces the global heap's pop
            // sequence exactly; pushes that outrank the rest of the batch
            // pop within the round, the others re-enter the global heap.
            let mut i = 0;
            loop {
                let take_pending = match (batch.get(i), pending.peek()) {
                    (Some(b), Some(Reverse(p))) => p < b,
                    (Some(_), None) => false,
                    (None, _) => break,
                };
                let entry = if take_pending {
                    pending.pop().expect("peeked").0
                } else {
                    let e = batch[i];
                    i += 1;
                    e
                };
                stats.heap_pops += 1;
                if entry.clique.iter().all(|u| valid[u as usize]) {
                    for u in entry.clique.iter() {
                        valid[u as usize] = false;
                    }
                    solution.push(entry.clique);
                    stats.cliques_added += 1;
                } else {
                    stats.stale_pops += 1;
                    if valid[entry.root as usize] {
                        stats.reprobes += 1;
                        let found = match speculated.get(&entry.root) {
                            // Surviving speculative hit: equals the inline
                            // result (see the method docs).
                            Some(Some(f)) if f.clique.iter().all(|u| valid[u as usize]) => Some(*f),
                            // Speculative miss: monotone, still a miss.
                            Some(None) => None,
                            // Invalidated or never speculated: probe inline.
                            _ => finder.find(entry.root, valid),
                        };
                        if let Some(found) = found {
                            stats.reprobe_hits += 1;
                            pending.push(Reverse(Entry {
                                score: found.score,
                                clique: found.clique,
                                root: entry.root,
                            }));
                        }
                    }
                }
            }
            heap.extend(pending.drain());
        }
    }
}

impl LightweightSolver {
    /// Lines 10-14 of Algorithm 3: one `FindMin` probe per root, fanned out
    /// on the executor. Each worker reuses a single [`MinScoreFinder`]
    /// (recursion buffers grow once); entries come back in ascending root
    /// order, identical to a sequential scan, for any thread count.
    fn heap_init(&self, dag: &Dag, scores: &[u64], valid: &[bool], k: usize) -> Vec<Entry> {
        par_for_each_root(
            self.par,
            dag.num_nodes(),
            || MinScoreFinder::new(dag, scores, k, self.prune),
            |finder, u, out| {
                let u = u as NodeId;
                if dag.out_degree(u) < k - 1 {
                    return;
                }
                if let Some(found) = finder.find(u, valid) {
                    out.push(Entry { score: found.score, clique: found.clique, root: u });
                }
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testgraphs::{paper_fig2, planted_triangles};
    use crate::GcSolver;

    #[test]
    fn lp_finds_the_maximum_on_fig2() {
        let g = paper_fig2();
        let s = LightweightSolver::lp().solve(&g, 3).unwrap();
        assert_eq!(s.len(), 3, "LP must find the maximum set S2 on Fig. 2");
        s.verify(&g).unwrap();
        s.verify_maximal(&g).unwrap();
    }

    #[test]
    fn lp_matches_gc_on_fig2_exactly() {
        // Theorem 4: with fixed total node and clique orders, Algorithms 2
        // and 3 produce the same S. Our tie-breaking differs slightly from a
        // strict global clique order (as does the paper's implementation),
        // but on Fig. 2 all choices coincide.
        let g = paper_fig2();
        let gc = GcSolver::new().solve(&g, 3).unwrap();
        let lp = LightweightSolver::lp().solve(&g, 3).unwrap();
        assert_eq!(gc.sorted_cliques(), lp.sorted_cliques());
    }

    #[test]
    fn l_and_lp_produce_identical_solutions() {
        let g = paper_fig2();
        for k in 3..=4 {
            let l = LightweightSolver::l().solve(&g, k).unwrap();
            let lp = LightweightSolver::lp().solve(&g, k).unwrap();
            assert_eq!(l, lp, "k={k}");
        }
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let g = planted_triangles(40);
        let base = LightweightSolver::lp().with_threads(1).solve(&g, 3).unwrap();
        for threads in [2, 4, 8] {
            // The small chunk forces real fan-out even on this small graph.
            let par = ParConfig::new(threads).with_chunk(8);
            let s = LightweightSolver::lp().with_par(par).solve(&g, 3).unwrap();
            assert_eq!(s.sorted_cliques(), base.sorted_cliques(), "threads={threads}");
        }
    }

    #[test]
    fn run_stats_are_thread_count_invariant() {
        let g = planted_triangles(40);
        let (base_sol, base_stats) =
            LightweightSolver::lp().with_threads(1).solve_with_stats(&g, 3).unwrap();
        for threads in [2, 4, 8] {
            let par = ParConfig::new(threads).with_chunk(8);
            let (sol, stats) =
                LightweightSolver::lp().with_par(par).solve_with_stats(&g, 3).unwrap();
            assert_eq!(sol, base_sol, "threads={threads}");
            assert_eq!(stats, base_stats, "LpRunStats must not depend on threads={threads}");
        }
    }

    #[test]
    fn recovers_planted_triangles() {
        let g = planted_triangles(12);
        let s = LightweightSolver::lp().solve(&g, 3).unwrap();
        assert_eq!(s.len(), 12);
        s.verify(&g).unwrap();
        s.verify_maximal(&g).unwrap();
    }

    #[test]
    fn rejects_invalid_k() {
        let g = paper_fig2();
        assert!(matches!(LightweightSolver::lp().solve(&g, 2), Err(SolveError::InvalidK { .. })));
    }

    #[test]
    fn run_stats_are_coherent() {
        let g = paper_fig2();
        let (s, st) = LightweightSolver::lp().solve_with_stats(&g, 3).unwrap();
        assert_eq!(st.cliques_added, s.len() as u64);
        assert_eq!(st.heap_pops, st.cliques_added + st.stale_pops);
        assert!(st.reprobes <= st.stale_pops);
        assert!(st.reprobe_hits <= st.reprobes);
        assert!(st.initial_entries >= s.len() as u64);
        // Total pushes = initial + reprobe hits = pops when the heap drains.
        assert_eq!(st.initial_entries + st.reprobe_hits, st.heap_pops);
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(LightweightSolver::lp().name(), "LP");
        assert_eq!(LightweightSolver::l().name(), "L");
    }

    #[test]
    fn empty_graph_and_oversized_k() {
        let s = LightweightSolver::lp().solve(&CsrGraph::empty(), 3).unwrap();
        assert!(s.is_empty());
        let g = paper_fig2();
        let s = LightweightSolver::lp().solve(&g, 5).unwrap();
        assert!(s.is_empty());
    }
}
