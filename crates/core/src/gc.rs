use crate::{check_k, Solution, SolveError, Solver};
use dkc_clique::{Clique, ListRequest};
use dkc_graph::{CsrGraph, Dag, NodeOrder, OrderingKind};
use dkc_par::ParConfig;

/// **GC** — the clique-score ordered greedy (Algorithm 2).
///
/// Materialises *every* k-clique, computes each clique's score
/// `s_c(C) = Σ_{u∈C} s_n(u)` (Definition 6) and processes cliques in
/// ascending score, adding each clique that is disjoint from everything
/// chosen so far. Because `s_c` sandwiches the clique-graph degree
/// (Theorem 2: `(s_c-k)/(k-1) <= deg_Gc <= s_c-k`), this emulates
/// min-degree greedy MIS on the clique graph without building it.
///
/// Time `O(k·m·(d/2)^(k-2) + τ log τ)` and — the crux — space `O(m+n+τ)`
/// where `τ` is the total clique count, which explodes on dense graphs
/// (Table III reports OOM for half the datasets). [`GcSolver::max_cliques`]
/// emulates that OOM deterministically.
#[derive(Debug, Clone, Copy, Default)]
pub struct GcSolver {
    /// Abort with [`SolveError::CliqueBudget`] when more cliques than this
    /// would have to be stored (`None` = unlimited).
    pub max_cliques: Option<usize>,
    /// Executor configuration for the listing/scoring phases. Results are
    /// deterministic regardless of thread count.
    pub par: ParConfig,
}

impl GcSolver {
    /// Unlimited-storage solver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solver with a clique-storage budget (emulated OOM).
    pub fn with_budget(max_cliques: usize) -> Self {
        GcSolver { max_cliques: Some(max_cliques), ..Self::default() }
    }

    /// Overrides the executor configuration.
    pub fn with_par(mut self, par: ParConfig) -> Self {
        self.par = par;
        self
    }
}

impl Solver for GcSolver {
    fn name(&self) -> &'static str {
        "GC"
    }

    fn solve(&self, g: &CsrGraph, k: usize) -> Result<Solution, SolveError> {
        check_k(k)?;
        let dag = Dag::from_graph(g, NodeOrder::compute(g, OrderingKind::Degeneracy));
        // The budget is enforced *during* collection: an over-limit clique
        // population aborts before materialising (deterministic OOM).
        let listing = ListRequest::new(k).with_par(self.par);
        let cliques = listing
            .collect(&dag, self.max_cliques)
            .map_err(|limit| SolveError::CliqueBudget { limit })?;
        let scores = listing.scores(&dag);
        // Fixed total clique order: ascending score, ties by canonical
        // member order — deterministic across runs. Sorting clique *ids*
        // against the arena (instead of tupled owned cliques) keeps the
        // sort keys at 4 bytes; member order for fixed `k` is exactly the
        // `Clique` ordering, so the permutation is unchanged.
        let clique_scores: Vec<u64> =
            cliques.iter().map(|c| c.iter().map(|&u| scores[u as usize]).sum()).collect();
        let mut order: Vec<u32> = (0..cliques.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            clique_scores[a].cmp(&clique_scores[b]).then_with(|| cliques.get(a).cmp(cliques.get(b)))
        });

        let mut valid = vec![true; g.num_nodes()];
        let mut solution = Solution::new(k);
        for id in order {
            let members = cliques.get(id as usize);
            if members.iter().all(|&u| valid[u as usize]) {
                for &u in members {
                    valid[u as usize] = false;
                }
                solution.push(Clique::from_sorted(members));
            }
        }
        Ok(solution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testgraphs::{paper_fig2, planted_triangles};

    #[test]
    fn finds_the_maximum_on_fig2() {
        // Clique scores on Fig. 2: C1=6, C7=6, C2=8, C6=8, C3=C4=C5=9.
        // Ascending-score greedy picks C1, C7, then C4 — the maximum set of
        // size 3 (Fig. 2d), where HG with identity order only finds 2.
        let g = paper_fig2();
        let s = GcSolver::new().solve(&g, 3).unwrap();
        assert_eq!(s.len(), 3);
        s.verify(&g).unwrap();
        s.verify_maximal(&g).unwrap();
        let set = s.sorted_cliques();
        assert_eq!(
            set,
            vec![
                Clique::new(&[0, 2, 5]), // C1 = (v1, v3, v6)
                Clique::new(&[1, 3, 8]), // C7 = (v2, v4, v9)
                Clique::new(&[4, 6, 7]), // C4 = (v5, v7, v8)
            ]
        );
    }

    #[test]
    fn budget_emulates_oom() {
        let g = paper_fig2();
        match GcSolver::with_budget(3).solve(&g, 3) {
            Err(SolveError::CliqueBudget { limit: 3 }) => {}
            other => panic!("expected CliqueBudget error, got {other:?}"),
        }
        // Exactly at the limit: fine.
        assert!(GcSolver::with_budget(7).solve(&g, 3).is_ok());
    }

    #[test]
    fn recovers_planted_triangles() {
        let g = planted_triangles(8);
        let s = GcSolver::new().solve(&g, 3).unwrap();
        assert_eq!(s.len(), 8);
        s.verify(&g).unwrap();
    }

    #[test]
    fn rejects_invalid_k_and_handles_empty() {
        let g = paper_fig2();
        assert!(matches!(GcSolver::new().solve(&g, 1), Err(SolveError::InvalidK { .. })));
        let s = GcSolver::new().solve(&CsrGraph::empty(), 3).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn deterministic_across_runs() {
        let g = paper_fig2();
        let a = GcSolver::new().solve(&g, 3).unwrap();
        let b = GcSolver::new().solve(&g, 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let g = planted_triangles(40);
        let base = GcSolver::new().with_par(ParConfig::sequential()).solve(&g, 3).unwrap();
        for threads in [2, 4, 8] {
            let par = ParConfig::new(threads).with_chunk(8);
            let s = GcSolver::new().with_par(par).solve(&g, 3).unwrap();
            assert_eq!(s, base, "threads={threads}");
        }
    }
}
