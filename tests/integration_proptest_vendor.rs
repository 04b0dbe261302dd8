//! Guards the vendored `proptest` stand-in: the crate-level property suites
//! (e.g. `crates/clique/tests/proptests.rs`) only mean something if the
//! macro really runs every case and the strategies really generate
//! non-degenerate graphs. This test replicates the suites' exact
//! `graph_strategy` shape and measures what comes out.

use disjoint_kcliques::prelude::*;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

static CASES: AtomicU64 = AtomicU64::new(0);
static NODES: AtomicU64 = AtomicU64::new(0);
static EDGES: AtomicU64 = AtomicU64::new(0);
static TRIANGLE_CASES: AtomicU64 = AtomicU64::new(0);

fn graph_strategy(max_n: u32, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    (4..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..max_m)
            .prop_map(move |edges| CsrGraph::from_edges(n as usize, edges).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Not marked #[test]: driven explicitly by `vendored_proptest_is_not_degenerate`
    // below so the stats can be checked after all cases ran.
    fn probe(g in graph_strategy(14, 70)) {
        CASES.fetch_add(1, Ordering::Relaxed);
        NODES.fetch_add(g.num_nodes() as u64, Ordering::Relaxed);
        EDGES.fetch_add(g.num_edges() as u64, Ordering::Relaxed);
        let dag = disjoint_kcliques::graph::Dag::from_graph(
            &g,
            disjoint_kcliques::graph::NodeOrder::compute(&g, OrderingKind::Degeneracy),
        );
        if disjoint_kcliques::clique::ListRequest::new(3).count(&dag) > 0 {
            TRIANGLE_CASES.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[test]
fn vendored_proptest_is_not_degenerate() {
    probe();
    let cases = CASES.load(Ordering::Relaxed);
    let nodes = NODES.load(Ordering::Relaxed);
    let edges = EDGES.load(Ordering::Relaxed);
    let with_triangles = TRIANGLE_CASES.load(Ordering::Relaxed);

    // The macro must honour the configured case count (modulo a CI
    // override through PROPTEST_CASES).
    if std::env::var("PROPTEST_CASES").is_err() {
        assert_eq!(cases, 64, "configured 64 cases must all run");
    } else {
        assert!(cases > 0);
    }
    // Node counts are uniform in 4..=14, so the mean must sit well inside;
    // edge lists are uniform in 0..70 *candidate* pairs (self-loops and
    // duplicates drop out), so plenty of real edges must survive.
    let mean_nodes = nodes as f64 / cases as f64;
    let mean_edges = edges as f64 / cases as f64;
    assert!((6.0..=12.0).contains(&mean_nodes), "mean nodes {mean_nodes}");
    assert!(mean_edges >= 10.0, "mean edges {mean_edges} — generation looks degenerate");
    // Dense-ish random graphs on ≤ 14 nodes contain triangles more often
    // than not; if almost none do, the k-clique suites test nothing.
    assert!(
        with_triangles * 2 >= cases,
        "only {with_triangles}/{cases} generated graphs contain a triangle"
    );
}

#[test]
fn vendored_proptest_reports_failures_with_seed() {
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        fn always_fails(x in 0u32..100) {
            prop_assert!(x > 1000, "x = {}", x);
        }
    }
    let err = std::panic::catch_unwind(always_fails).expect_err("property must fail");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("PROPTEST_SEED="), "panic must carry the repro seed, got: {msg}");
}

#[test]
fn vendored_proptest_wraps_body_panics_with_seed() {
    // Properties call `.unwrap()` on library code; a panic (not just a
    // prop_assert failure) must still surface the seed/case repro line.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        fn panics_mid_body(x in 0u32..100) {
            let none: Option<u32> = if x < 1000 { None } else { Some(x) };
            let _ = none.expect("boom: no value");
        }
    }
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // keep the double panic quiet
    let err = std::panic::catch_unwind(panics_mid_body).expect_err("body must panic");
    std::panic::set_hook(prev_hook);
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("PROPTEST_SEED=") && msg.contains("boom: no value"),
        "panic must carry both the repro seed and the original message, got: {msg}"
    );
}
