//! Analytical guarantees: Theorem 2 (clique-degree bounds from clique
//! scores) and Theorem 3 (k-approximation of any maximal solution).

use crate::SolveError;
use dkc_clique::ListRequest;
use dkc_cliquegraph::{CliqueGraph, CliqueGraphLimits};
use dkc_graph::{CsrGraph, Dag, NodeOrder, OrderingKind};

/// Lower/upper bounds on a clique's degree in the clique graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegreeBounds {
    /// `ceil((s_c(C) - k) / (k - 1))`.
    pub lower: u64,
    /// `s_c(C) - k`.
    pub upper: u64,
}

impl DegreeBounds {
    /// True when `deg` lies within the (inclusive) bounds.
    pub fn contains(&self, deg: u64) -> bool {
        self.lower <= deg && deg <= self.upper
    }
}

/// Theorem 2: given a k-clique with clique score `score`, its degree in the
/// clique graph satisfies `(s_c - k)/(k-1) <= deg <= s_c - k`.
///
/// # Panics
/// Panics if `score < k` — impossible for a real clique, whose every member
/// participates in at least that clique itself (`s_n >= 1`).
pub fn clique_degree_bounds(score: u64, k: usize) -> DegreeBounds {
    assert!(k >= 2, "bounds are defined for k >= 2");
    assert!(score >= k as u64, "clique score {score} < k = {k}: not a score of an actual clique");
    let excess = score - k as u64;
    DegreeBounds { lower: excess.div_ceil(k as u64 - 1), upper: excess }
}

/// Empirically validates Theorem 2 on a graph: builds the clique graph and
/// checks every clique's true degree against its score-derived bounds.
/// Returns the number of cliques checked. For tests and audits.
pub fn verify_theorem2(g: &CsrGraph, k: usize) -> Result<usize, SolveError> {
    crate::check_k(k)?;
    let cg = CliqueGraph::build(g, k, CliqueGraphLimits::unlimited())?;
    let dag = Dag::from_graph(g, NodeOrder::compute(g, OrderingKind::Degeneracy));
    let scores = ListRequest::new(k).scores(&dag);
    for id in 0..cg.num_cliques() as u32 {
        let c = cg.clique(id);
        let bounds = clique_degree_bounds(c.score(&scores), k);
        let deg = cg.clique_degree(id) as u64;
        assert!(
            bounds.contains(deg),
            "Theorem 2 violated for {c:?}: deg {deg} outside [{}, {}]",
            bounds.lower,
            bounds.upper
        );
    }
    Ok(cg.num_cliques())
}

/// Theorem 3: any *maximal* disjoint k-clique set is a k-approximation, i.e.
/// `|OPT| <= k · |S|`. Degenerate case: if the optimum is empty, so is `S`.
pub fn approx_guarantee_holds(opt_size: usize, maximal_size: usize, k: usize) -> bool {
    if opt_size == 0 {
        return maximal_size == 0;
    }
    opt_size <= k * maximal_size
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testgraphs::paper_fig2;

    #[test]
    fn bounds_match_example3() {
        // C3 = (v5, v6, v8) has s_c = 9, k = 3 → bounds [3, 6]; true degree
        // in Fig. 3 is 4.
        let b = clique_degree_bounds(9, 3);
        assert_eq!(b, DegreeBounds { lower: 3, upper: 6 });
        assert!(b.contains(4));
        assert!(!b.contains(2));
        assert!(!b.contains(7));
    }

    #[test]
    fn minimum_score_clique_has_zero_degree_bounds() {
        // An isolated k-clique: every member's score is 1, s_c = k, so the
        // bounds collapse to [0, 0].
        let b = clique_degree_bounds(3, 3);
        assert_eq!(b, DegreeBounds { lower: 0, upper: 0 });
        assert!(b.contains(0));
    }

    #[test]
    #[should_panic(expected = "not a score of an actual clique")]
    fn score_below_k_rejected() {
        let _ = clique_degree_bounds(2, 3);
    }

    #[test]
    fn theorem2_holds_on_fig2() {
        let g = paper_fig2();
        let checked = verify_theorem2(&g, 3).unwrap();
        assert_eq!(checked, 7);
    }

    #[test]
    fn lower_bound_rounding_is_ceil() {
        // s_c = 8, k = 3: (8-3)/2 = 2.5 → lower bound 3.
        let b = clique_degree_bounds(8, 3);
        assert_eq!(b.lower, 3);
        assert_eq!(b.upper, 5);
    }

    #[test]
    fn approximation_guarantee() {
        assert!(approx_guarantee_holds(3, 2, 3)); // Fig. 2: opt 3, HG finds 2
        assert!(approx_guarantee_holds(9, 3, 3));
        assert!(!approx_guarantee_holds(10, 3, 3));
        assert!(approx_guarantee_holds(0, 0, 3));
        assert!(!approx_guarantee_holds(1, 0, 3));
    }
}
