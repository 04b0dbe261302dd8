//! Property-based tests: the optimised listing/counting/search machinery is
//! compared against brute-force references on small random graphs, and
//! every [`ListRequest`] shape (kernel mode × thread count) against the
//! sequential [`KernelMode::Slice`] visitor.

use std::collections::BTreeSet;

use dkc_clique::{
    collect_kcliques_in_subset, Clique, FirstFinder, KernelMode, ListRequest, MinScoreFinder,
};
use dkc_graph::{CsrGraph, Dag, DynGraph, NodeId, NodeOrder, OrderingKind};
use dkc_par::ParConfig;
use proptest::prelude::*;

fn graph_strategy(max_n: u32, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    (4..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..max_m)
            .prop_map(move |edges| CsrGraph::from_edges(n as usize, edges).unwrap())
    })
}

/// Brute force: all k-subsets that are pairwise adjacent.
fn brute_force_cliques(g: &CsrGraph, k: usize) -> BTreeSet<Vec<NodeId>> {
    let n = g.num_nodes();
    let mut out = BTreeSet::new();
    let mut subset: Vec<NodeId> = Vec::new();
    fn rec(
        g: &CsrGraph,
        k: usize,
        start: NodeId,
        subset: &mut Vec<NodeId>,
        out: &mut BTreeSet<Vec<NodeId>>,
    ) {
        if subset.len() == k {
            out.insert(subset.clone());
            return;
        }
        for v in start..g.num_nodes() as NodeId {
            if subset.iter().all(|&u| g.has_edge(u, v)) {
                subset.push(v);
                rec(g, k, v + 1, subset, out);
                subset.pop();
            }
        }
    }
    if k <= n {
        rec(g, k, 0, &mut subset, &mut out);
    }
    out
}

fn dag(g: &CsrGraph, kind: OrderingKind) -> Dag {
    Dag::from_graph(g, NodeOrder::compute(g, kind))
}

const MODES: [KernelMode; 3] = [KernelMode::Slice, KernelMode::Bitset, KernelMode::Adaptive];

/// What every request must reproduce, taken from the sequential slice
/// visitor: the collected rows (visit order, each row sorted, flattened),
/// the clique count and the per-node scores.
struct Oracle {
    rows: Vec<NodeId>,
    count: u64,
    scores: Vec<u64>,
}

fn slice_visitor_oracle(d: &Dag, k: usize) -> Oracle {
    let mut oracle = Oracle { rows: Vec::new(), count: 0, scores: vec![0; d.num_nodes()] };
    ListRequest::new(k).with_kernel(KernelMode::Slice).visit(d, |nodes| {
        let mut row = nodes.to_vec();
        row.sort_unstable();
        for &u in &row {
            oracle.scores[u as usize] += 1;
        }
        oracle.rows.extend(row);
        oracle.count += 1;
        true
    });
    oracle
}

/// Checks one request shape against the oracle: unbounded and bounded
/// collection (each limit fails iff it is below the clique count), count
/// and scores.
fn check_request(
    req: ListRequest,
    d: &Dag,
    oracle: &Oracle,
    limits: &[usize],
) -> Result<(), TestCaseError> {
    let shape = format!("{} threads {} chunk {}", req.mode, req.par.threads, req.par.chunk);
    let all = req.collect(d, None).unwrap();
    prop_assert_eq!(all.as_flat(), &oracle.rows[..], "collect, {}", shape);
    for &limit in limits {
        match req.collect(d, Some(limit)) {
            Ok(store) => {
                prop_assert!(limit as u64 >= oracle.count, "limit {} passed, {}", limit, shape);
                prop_assert_eq!(&store, &all, "collect limit {}, {}", limit, shape);
            }
            Err(e) => {
                prop_assert!((limit as u64) < oracle.count, "limit {} failed, {}", limit, shape);
                prop_assert_eq!(e, limit, "collect error value, {}", shape);
            }
        }
    }
    prop_assert_eq!(req.count(d), oracle.count, "count, {}", shape);
    prop_assert_eq!(&req.scores(d), &oracle.scores, "scores, {}", shape);
    Ok(())
}

/// Every kernel mode × threads {1, 2, 8} at chunk 1 (the most interleaving
/// the executor allows) through [`check_request`].
fn check_every_shape(d: &Dag, k: usize, limits: &[usize]) -> Result<(), TestCaseError> {
    let oracle = slice_visitor_oracle(d, k);
    for mode in MODES {
        for threads in [1usize, 2, 8] {
            let par = ParConfig::new(threads).with_chunk(1);
            check_request(ListRequest::new(k).with_par(par).with_kernel(mode), d, &oracle, limits)?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn listing_matches_brute_force(g in graph_strategy(12, 50), k in 3usize..=5) {
        let expected = brute_force_cliques(&g, k);
        for kind in [OrderingKind::Identity, OrderingKind::Degeneracy, OrderingKind::DegreeAsc] {
            let d = dag(&g, kind);
            let req = ListRequest::new(k);
            let got: BTreeSet<Vec<NodeId>> =
                req.collect(&d, None).unwrap().iter().map(<[NodeId]>::to_vec).collect();
            prop_assert_eq!(&got, &expected, "ordering {:?}", kind);
            prop_assert_eq!(req.count(&d), expected.len() as u64);
            prop_assert_eq!(slice_visitor_oracle(&d, k).count, expected.len() as u64);
        }
    }

    #[test]
    fn node_scores_sum_to_k_times_count(g in graph_strategy(14, 70), k in 3usize..=5) {
        let d = dag(&g, OrderingKind::Degeneracy);
        let req = ListRequest::new(k);
        let scores = req.scores(&d);
        let total = req.count(&d);
        prop_assert_eq!(scores.iter().sum::<u64>(), k as u64 * total);
        // Per-node cross-check against brute force.
        let cliques = brute_force_cliques(&g, k);
        for u in 0..g.num_nodes() as NodeId {
            let expected = cliques.iter().filter(|c| c.contains(&u)).count() as u64;
            prop_assert_eq!(scores[u as usize], expected, "node {}", u);
        }
    }

    #[test]
    fn subset_listing_equals_restricted_brute_force(
        g in graph_strategy(14, 70),
        k in 3usize..=4,
        mask in proptest::collection::vec(any::<bool>(), 14),
    ) {
        let nodes: Vec<NodeId> = (0..g.num_nodes() as NodeId)
            .filter(|&u| mask.get(u as usize).copied().unwrap_or(false))
            .collect();
        let dyn_g = DynGraph::from_csr(&g);
        let got: BTreeSet<Vec<NodeId>> = collect_kcliques_in_subset(&dyn_g, &nodes, k)
            .iter()
            .map(|c| c.as_slice().to_vec())
            .collect();
        let expected: BTreeSet<Vec<NodeId>> = brute_force_cliques(&g, k)
            .into_iter()
            .filter(|c| c.iter().all(|u| nodes.contains(u)))
            .collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn first_finder_finds_iff_a_rooted_clique_exists(
        g in graph_strategy(12, 60),
        k in 3usize..=4,
    ) {
        let d = dag(&g, OrderingKind::Degeneracy);
        let valid = vec![true; g.num_nodes()];
        let mut finder = FirstFinder::new(&d, k);
        let all = brute_force_cliques(&g, k);
        for u in 0..g.num_nodes() as NodeId {
            let rooted_exists = all.iter().any(|c| {
                c.contains(&u) && c.iter().all(|&v| d.rank(v) <= d.rank(u))
            });
            match finder.find(u, &valid) {
                Some(c) => {
                    prop_assert!(rooted_exists, "found {:?} though none expected", c);
                    prop_assert!(c.contains(u));
                    prop_assert!(all.contains(c.as_slice()));
                }
                None => prop_assert!(!rooted_exists, "missed a clique rooted at {}", u),
            }
        }
    }

    #[test]
    fn min_finder_is_optimal_and_prune_invariant(
        g in graph_strategy(12, 60),
        k in 3usize..=4,
    ) {
        let d = dag(&g, OrderingKind::Degeneracy);
        let scores = ListRequest::new(k).scores(&d);
        let valid = vec![true; g.num_nodes()];
        let mut pruned = MinScoreFinder::new(&d, &scores, k, true);
        let mut exhaustive = MinScoreFinder::new(&d, &scores, k, false);
        let all = brute_force_cliques(&g, k);
        for u in 0..g.num_nodes() as NodeId {
            let a = pruned.find(u, &valid);
            let b = exhaustive.find(u, &valid);
            prop_assert_eq!(a, b, "prune changed the result at root {}", u);
            if let Some(sc) = a {
                // No rooted clique may score lower.
                let min_rooted = all
                    .iter()
                    .filter(|c| c.contains(&u) && c.iter().all(|&v| d.rank(v) <= d.rank(u)))
                    .map(|c| c.iter().map(|&v| scores[v as usize]).sum::<u64>())
                    .min();
                prop_assert_eq!(Some(sc.score), min_rooted);
            }
        }
    }

    #[test]
    fn parallel_machinery_is_thread_invariant(
        g in graph_strategy(40, 250),
        k in 3usize..=5,
    ) {
        // Larger graphs than the per-shape suite below, on the default
        // kernel: collect, count and scores are thread-count invariant.
        let d = dag(&g, OrderingKind::Degeneracy);
        let oracle = slice_visitor_oracle(&d, k);
        for threads in [1usize, 2, 8] {
            // Tiny chunks force genuine fan-out on these small graphs.
            let par = ParConfig::new(threads).with_chunk(3);
            check_request(ListRequest::new(k).with_par(par), &d, &oracle, &[])?;
        }
    }

    #[test]
    fn kernel_modes_agree_on_cliques_counts_and_scores(
        g in graph_strategy(24, 140),
        k in 3usize..=5,
    ) {
        // The sequential slice visitor is the reference; every kernel mode
        // on every executor shape must reproduce its cliques *in order*,
        // with and without a limit, its count and its per-node scores. The
        // reference itself is pinned to brute force.
        let d = dag(&g, OrderingKind::Degeneracy);
        let oracle = slice_visitor_oracle(&d, k);
        let mut rows: Vec<Vec<NodeId>> = oracle.rows.chunks(k).map(<[NodeId]>::to_vec).collect();
        rows.sort();
        let expected: Vec<Vec<NodeId>> = brute_force_cliques(&g, k).into_iter().collect();
        prop_assert_eq!(rows, expected);
        check_every_shape(&d, k, &[0, 3, 6, 7, 1000])?;
    }

    #[test]
    fn bounded_collection_decision_is_schedule_and_kernel_free(
        g in graph_strategy(18, 90),
        k in 3usize..=4,
        limit in 0usize..=40,
    ) {
        // The shared-budget collector must reach the exact Err/Ok decision
        // (and, on Ok, the exact output) for every kernel and thread count
        // — the monotone-criterion determinism argument, exercised on
        // random graphs, at a random limit and at the clique count's edge.
        let d = dag(&g, OrderingKind::Degeneracy);
        let count = ListRequest::new(k).count(&d) as usize;
        check_every_shape(&d, k, &[limit, count.saturating_sub(1), count, count + 1])?;
    }

    #[test]
    fn clique_disjointness_matches_set_semantics(
        a in proptest::collection::btree_set(0u32..30, 1..6),
        b in proptest::collection::btree_set(0u32..30, 1..6),
    ) {
        let ca = Clique::new(&a.iter().copied().collect::<Vec<_>>());
        let cb = Clique::new(&b.iter().copied().collect::<Vec<_>>());
        let expect = a.intersection(&b).next().is_none();
        prop_assert_eq!(ca.is_disjoint(&cb), expect);
        prop_assert_eq!(cb.is_disjoint(&ca), expect);
    }
}
