//! The pinned `dkc bench` suite: six metrics, one registry-resolved
//! stand-in, fixed seeds — the same workload every run, so two lines of a
//! bench file differ only by machine and code.
//!
//! | Metric | Measures | Counters recorded alongside |
//! |---|---|---|
//! | `listing_ns` | parallel k-clique listing into the flat arena | `kcliques` |
//! | `list_peak_bytes` | peak heap of a sequential arena listing | |
//! | `solve_alloc_count` | allocation calls inside a sequential LP solve | |
//! | `lp_solve_ns` | [`Engine::solve`] with [`Algo::Lp`] | `lp_size`, `lp_heap_pops` |
//! | `partition_ns` | [`Engine::partition_all`] | `partition_groups` |
//! | `text_parse_ns` | edge-list parse of the suite graph | |
//! | `snapshot_load_ns` | `.dkcsr` load of the same graph | `snapshot_bytes` |
//! | `snapshot_mmap_ns` | zero-copy `.dkcsr` load via `read_snapshot_path` | |
//! | `apply_batch_ns` | dynamic maintenance of a mixed update stream | `apply_applied` |
//! | `serve_p{50,95,99}_us` | in-process `dkc-serve` + seeded loadgen | `serve_errors` |
//! | `serve_cached_read_p99_us` | read-only loadgen (reply-cache hits) | |
//! | `serve_sharded_p99_us` | the same loadgen against a 2-shard router | `router_merge_replies`, `serve_sharded_errors` |
//! | `improve_step_us` | per-step cost of the `dkc-improve` pass over HG | `improve_uplift`, `improve_moves_applied` |
//!
//! Timings aggregate to `{median, min}` over [`SuiteConfig::reps`];
//! counters are deterministic for a pinned configuration (and
//! thread-invariant, like every solver in the workspace), which is what
//! lets the baseline gate compare them exactly across machines.

use super::line::MetricValue;
use crate::mem::{with_alloc_tracking, with_peak_tracking};
use dkc_clique::ListRequest;
use dkc_core::{improve, Algo, Engine, ImproveConfig, SolveRequest};
use dkc_datagen::registry::DatasetId;
use dkc_datagen::workload::{paper_mixed_workload, Update};
use dkc_datagen::DatasetRegistry;
use dkc_dynamic::{EdgeUpdate, ServingSolver};
use dkc_graph::io::{
    load_graph, read_snapshot_path, write_edge_list_labeled, write_snapshot_path, LoadedGraph,
};
use dkc_graph::{partition_shards, Dag, DynGraph, NodeOrder, OrderingKind};
use dkc_json::Json;
use dkc_par::ParConfig;
use dkc_serve::protocol::{render_query_request, Query};
use dkc_serve::{run_loadgen, LoadgenConfig, Router, RouterConfig, Server, ServerConfig};
use std::path::PathBuf;
use std::time::Instant;

/// Knobs of one suite run. Everything that influences a metric is here,
/// so a line fully documents how it was produced.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Dataset stand-in to resolve.
    pub dataset: DatasetId,
    /// Stand-in scale (`1.0` = paper size).
    pub scale: f64,
    /// Stand-in seed (also seeds the update stream and the loadgen).
    pub seed: u64,
    /// Clique size for listing / solve / partition / serving.
    pub k: usize,
    /// Repetitions per timing metric.
    pub reps: usize,
    /// Parallelism the measured kernels run with.
    pub par: ParConfig,
    /// Scratch directory for the text/snapshot ingestion files (created
    /// if absent; the suite leaves its files behind for debugging).
    pub scratch: PathBuf,
    /// Optional registry data dir (`None` = in-memory resolution).
    pub data_dir: Option<PathBuf>,
    /// Loadgen connections for the serve metric.
    pub serve_conns: usize,
    /// Measured loadgen operations per connection.
    pub serve_ops: usize,
    /// Warmup operations per connection, excluded from percentiles.
    pub serve_warmup: usize,
    /// Update batches applied by the `apply_batch` metric…
    pub apply_batches: usize,
    /// …of this many edge updates each.
    pub apply_batch_size: usize,
}

impl SuiteConfig {
    /// The pinned defaults behind bare `dkc bench`: HST at scale 0.3 —
    /// big enough that the solver metrics dominate fixed costs, small
    /// enough for a CI gate.
    pub fn pinned(scratch: impl Into<PathBuf>) -> Self {
        SuiteConfig {
            dataset: DatasetId::Hst,
            scale: 0.3,
            seed: 42,
            k: 3,
            reps: 3,
            par: ParConfig::default(),
            scratch: scratch.into(),
            data_dir: None,
            serve_conns: 2,
            serve_ops: 60,
            serve_warmup: 16,
            apply_batches: 32,
            apply_batch_size: 16,
        }
    }
}

/// What [`run_suite`] produced: the metric list (suite order) plus the
/// resolved graph's shape for the human summary.
#[derive(Debug, Clone)]
pub struct SuiteOutcome {
    /// Metric name → aggregate, in suite order.
    pub metrics: Vec<(String, MetricValue)>,
    /// Nodes of the resolved stand-in.
    pub nodes: usize,
    /// Edges of the resolved stand-in.
    pub edges: usize,
}

/// Any failure inside the suite (resolution, solving, I/O, serving).
#[derive(Debug)]
pub struct SuiteError(pub String);

impl std::fmt::Display for SuiteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bench suite failed: {}", self.0)
    }
}

impl std::error::Error for SuiteError {}

fn fail(stage: &str, e: impl std::fmt::Display) -> SuiteError {
    SuiteError(format!("{stage}: {e}"))
}

/// Runs the full pinned suite and returns every metric.
pub fn run_suite(cfg: &SuiteConfig) -> Result<SuiteOutcome, SuiteError> {
    let reps = cfg.reps.max(1);
    let registry = match &cfg.data_dir {
        Some(dir) => DatasetRegistry::new(dir.clone()),
        None => DatasetRegistry::in_memory(),
    }
    .with_par(cfg.par);
    let resolved = registry
        .resolve_standin(cfg.dataset, cfg.scale, cfg.seed)
        .map_err(|e| fail("dataset resolution", e))?;
    let g = resolved.loaded.graph.clone();

    let mut metrics: Vec<(String, MetricValue)> = Vec::new();
    let mut push = |name: &str, v: MetricValue| metrics.push((name.to_string(), v));

    // 1. k-clique listing (the paper's core enumeration kernel) into the
    //    flat `CliqueStore` arena.
    let mut samples = Vec::with_capacity(reps);
    let mut kcliques = 0u64;
    for _ in 0..reps {
        let t = Instant::now();
        let dag = Dag::from_graph(&g, NodeOrder::compute(&g, OrderingKind::Degeneracy));
        let cliques = ListRequest::new(cfg.k).with_par(cfg.par).collect(&dag, None);
        let cliques = cliques.expect("an unbounded collection never fails");
        samples.push(ns(t));
        kcliques = cliques.len() as u64;
    }
    push("listing_ns", MetricValue::summarize(samples));
    push("kcliques", MetricValue::counter(kcliques));

    // 1b. Allocation accounting of the hot kernels. Both metrics are
    //     **exact-gated**: they run sequentially (allocation events are
    //     schedule-dependent across worker threads) and only read real
    //     values in binaries that install `TrackingAllocator` (the `dkc`
    //     CLI does; under `cargo test` both sides of a check read 0, which
    //     still compares consistently).
    let dag = Dag::from_graph(&g, NodeOrder::compute(&g, OrderingKind::Degeneracy));
    let (store, list_peak) = with_peak_tracking(|| ListRequest::new(cfg.k).collect(&dag, None));
    let store = store.expect("an unbounded collection never fails");
    if store.len() as u64 != kcliques {
        return Err(fail("list alloc bracket", "sequential arena disagrees with parallel count"));
    }
    drop(store);
    let seq_request = SolveRequest::new(Algo::Lp, cfg.k).with_par(ParConfig::sequential());
    let (solve, solve_allocs) = with_alloc_tracking(|| Engine::solve(&g, seq_request));
    solve.map_err(|e| fail("solve alloc bracket", e))?;
    push("list_peak_bytes", MetricValue::counter(list_peak as u64));
    push("solve_alloc_count", MetricValue::counter(solve_allocs as u64));

    // 2. LP solve (the flagship solver) through the engine.
    let request = SolveRequest::new(Algo::Lp, cfg.k).with_par(cfg.par);
    let mut samples = Vec::with_capacity(reps);
    let (mut lp_size, mut lp_heap_pops) = (0u64, 0u64);
    for _ in 0..reps {
        let t = Instant::now();
        let report = Engine::solve(&g, request).map_err(|e| fail("lp solve", e))?;
        samples.push(ns(t));
        lp_size = report.solution.len() as u64;
        lp_heap_pops = report.lp_stats.map(|s| s.heap_pops).unwrap_or(0);
    }
    push("lp_solve_ns", MetricValue::summarize(samples));
    push("lp_size", MetricValue::counter(lp_size));
    push("lp_heap_pops", MetricValue::counter(lp_heap_pops));

    // 3. Full partition (the residual loop over shrinking k).
    let mut samples = Vec::with_capacity(reps);
    let mut groups = 0u64;
    for _ in 0..reps {
        let t = Instant::now();
        let report = Engine::partition_all(&g, request).map_err(|e| fail("partition", e))?;
        samples.push(ns(t));
        groups = report.partition.num_groups() as u64;
    }
    push("partition_ns", MetricValue::summarize(samples));
    push("partition_groups", MetricValue::counter(groups));

    // 4. Ingestion: text parse vs snapshot load of the same graph.
    std::fs::create_dir_all(&cfg.scratch).map_err(|e| fail("scratch dir", e))?;
    let text_path = cfg.scratch.join("suite.txt");
    let snap_path = cfg.scratch.join("suite.dkcsr");
    let file = std::fs::File::create(&text_path).map_err(|e| fail("write edge list", e))?;
    write_edge_list_labeled(&resolved.loaded, file).map_err(|e| fail("write edge list", e))?;
    write_snapshot_path(&resolved.loaded, &snap_path).map_err(|e| fail("write snapshot", e))?;
    let snapshot_bytes = std::fs::metadata(&snap_path).map_err(|e| fail("snapshot size", e))?.len();
    let mut text_samples = Vec::with_capacity(reps);
    let mut snap_samples = Vec::with_capacity(reps);
    let mut mmap_samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let (loaded, _) = load_graph(&text_path, cfg.par).map_err(|e| fail("text parse", e))?;
        text_samples.push(ns(t));
        check_loaded(&loaded, &resolved.loaded)?;
        let t = Instant::now();
        let (loaded, _) = load_graph(&snap_path, cfg.par).map_err(|e| fail("snapshot load", e))?;
        snap_samples.push(ns(t));
        check_loaded(&loaded, &resolved.loaded)?;
        // The dedicated zero-copy path: snapshot decode straight off a
        // memory mapping, without the format sniff of `load_graph`.
        let t = Instant::now();
        let loaded = read_snapshot_path(&snap_path).map_err(|e| fail("snapshot mmap", e))?;
        mmap_samples.push(ns(t));
        check_loaded(&loaded, &resolved.loaded)?;
    }
    push("text_parse_ns", MetricValue::summarize(text_samples));
    push("snapshot_load_ns", MetricValue::summarize(snap_samples));
    push("snapshot_mmap_ns", MetricValue::summarize(mmap_samples));
    push("snapshot_bytes", MetricValue::counter(snapshot_bytes));

    // 5. Dynamic maintenance throughput over the paper's mixed workload.
    let count_each = cfg.apply_batches * cfg.apply_batch_size / 2;
    let (g_prime, updates) = paper_mixed_workload(&g, count_each.max(1), cfg.seed);
    let updates: Vec<EdgeUpdate> = updates
        .into_iter()
        .map(|u| match u {
            Update::Insert(a, b) => EdgeUpdate::Insert(a, b),
            Update::Delete(a, b) => EdgeUpdate::Delete(a, b),
        })
        .collect();
    let mut samples = Vec::with_capacity(reps);
    let mut applied = 0u64;
    for _ in 0..reps {
        let mut serving =
            ServingSolver::in_memory(&g_prime, request).map_err(|e| fail("apply_batch init", e))?;
        applied = 0;
        let t = Instant::now();
        for chunk in updates.chunks(cfg.apply_batch_size.max(1)) {
            let (outcome, _view) =
                serving.apply_batch(chunk).map_err(|e| fail("apply_batch", e))?;
            applied += outcome.applied as u64;
        }
        samples.push(ns(t));
    }
    push("apply_batch_ns", MetricValue::summarize(samples));
    push("apply_applied", MetricValue::counter(applied));

    // 6. Serving latency: an in-process server on an ephemeral port driven
    //    by the seeded loadgen, warmup excluded from the percentiles.
    let (mut p50s, mut p95s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    let mut errors = 0u64;
    for _ in 0..reps {
        let serving = ServingSolver::in_memory(&g, request).map_err(|e| fail("serve init", e))?;
        let listener =
            std::net::TcpListener::bind(("127.0.0.1", 0)).map_err(|e| fail("serve bind", e))?;
        let handle = Server::start(listener, serving, ServerConfig::default())
            .map_err(|e| fail("serve start", e))?;
        let lg = LoadgenConfig {
            addr: handle.local_addr().to_string(),
            connections: cfg.serve_conns.max(1),
            ops_per_connection: cfg.serve_ops.max(1),
            warmup_ops: cfg.serve_warmup,
            update_fraction: 0.3,
            improve_fraction: 0.0,
            improve_steps: 64,
            batch: 8,
            nodes: (g.num_nodes() as dkc_graph::NodeId).max(2),
            seed: cfg.seed,
            pools: None,
        };
        let report = run_loadgen(&lg);
        handle.stop();
        handle.join();
        let report = report.map_err(|e| fail("loadgen", e))?;
        let us = |d: std::time::Duration| d.as_micros() as u64;
        p50s.push(us(report.queries.p50));
        p95s.push(us(report.queries.p95));
        p99s.push(us(report.queries.p99));
        errors += report.errors as u64;
    }
    push("serve_p50_us", MetricValue::summarize(p50s));
    push("serve_p95_us", MetricValue::summarize(p95s));
    push("serve_p99_us", MetricValue::summarize(p99s));
    push("serve_errors", MetricValue::counter(errors));

    // 6b. Cached read path: the same loadgen with **zero** update traffic,
    //     so the epoch never moves and every solution query after the
    //     first is a reply-cache hit served from the shared rendered body.
    //     Gated on tail latency; the hit/miss split is not gated (which
    //     reader renders the first body per epoch is a scheduling race).
    let mut cached_p99s = Vec::with_capacity(reps);
    for _ in 0..reps {
        let serving = ServingSolver::in_memory(&g, request).map_err(|e| fail("serve init", e))?;
        let listener =
            std::net::TcpListener::bind(("127.0.0.1", 0)).map_err(|e| fail("serve bind", e))?;
        let handle = Server::start(listener, serving, ServerConfig::default())
            .map_err(|e| fail("serve start", e))?;
        let lg = LoadgenConfig {
            addr: handle.local_addr().to_string(),
            connections: cfg.serve_conns.max(1),
            ops_per_connection: cfg.serve_ops.max(1),
            warmup_ops: cfg.serve_warmup,
            update_fraction: 0.0,
            improve_fraction: 0.0,
            improve_steps: 64,
            batch: 8,
            nodes: (g.num_nodes() as dkc_graph::NodeId).max(2),
            seed: cfg.seed,
            pools: None,
        };
        let report = run_loadgen(&lg);
        handle.stop();
        handle.join();
        let report = report.map_err(|e| fail("cached loadgen", e))?;
        cached_p99s.push(report.queries.p99.as_micros() as u64);
    }
    push("serve_cached_read_p99_us", MetricValue::summarize(cached_p99s));

    // 7. Sharded serving: the identical seeded loadgen, with pool-local
    //    endpoints, against a 2-shard deployment behind the router. The
    //    merge counter is deterministic (the stats-op schedule is a pure
    //    function of the loadgen seed), so it gates exactly.
    const SHARDS: usize = 2;
    let plan = partition_shards(&g, SHARDS, cfg.seed);
    let pools = plan.node_pools();
    let mut p99s = Vec::with_capacity(reps);
    let mut merges = 0u64;
    let mut sharded_errors = 0u64;
    for _ in 0..reps {
        let mut shard_handles = Vec::with_capacity(SHARDS);
        let mut addrs = Vec::with_capacity(SHARDS);
        for s in 0..SHARDS {
            let serving = ServingSolver::in_memory(&plan.shard_graph(&g, s), request)
                .map_err(|e| fail("shard init", e))?;
            let listener =
                std::net::TcpListener::bind(("127.0.0.1", 0)).map_err(|e| fail("shard bind", e))?;
            let handle = Server::start(listener, serving, ServerConfig::default())
                .map_err(|e| fail("shard start", e))?;
            addrs.push(handle.local_addr().to_string());
            shard_handles.push(handle);
        }
        let listener =
            std::net::TcpListener::bind(("127.0.0.1", 0)).map_err(|e| fail("router bind", e))?;
        let router = Router::start(listener, addrs, plan.clone(), RouterConfig::default())
            .map_err(|e| fail("router start", e))?;
        let lg = LoadgenConfig {
            addr: router.local_addr().to_string(),
            connections: cfg.serve_conns.max(1),
            ops_per_connection: cfg.serve_ops.max(1),
            warmup_ops: cfg.serve_warmup,
            update_fraction: 0.3,
            improve_fraction: 0.0,
            improve_steps: 64,
            batch: 8,
            nodes: (g.num_nodes() as dkc_graph::NodeId).max(2),
            seed: cfg.seed,
            pools: Some(pools.clone()),
        };
        let report = run_loadgen(&lg);
        let observed = router_merges(&router.local_addr().to_string());
        router.stop();
        router.join();
        for handle in shard_handles {
            handle.stop();
            handle.join();
        }
        let report = report.map_err(|e| fail("sharded loadgen", e))?;
        p99s.push(report.queries.p99.as_micros() as u64);
        merges += observed?;
        sharded_errors += report.errors as u64;
    }
    push("serve_sharded_p99_us", MetricValue::summarize(p99s));
    push("router_merge_replies", MetricValue::counter(merges));
    push("serve_sharded_errors", MetricValue::counter(sharded_errors));

    // 8. Improvement: the `dkc-improve` local-search pass over the HG
    //    construction (the construction with the most headroom left; LP is
    //    near-optimal at this scale). Step budget and seed are pinned, so
    //    the uplift and applied-move counts are deterministic and gate
    //    exactly; the timing is recorded as per-tried-move cost in µs.
    const IMPROVE_STEPS: u64 = 512;
    const IMPROVE_SEED: u64 = 42;
    let hg_request = SolveRequest::new(Algo::Hg, cfg.k).with_par(cfg.par);
    let mut samples = Vec::with_capacity(reps);
    let (mut uplift, mut moves_applied) = (0u64, 0u64);
    for _ in 0..reps {
        let report = Engine::solve(&g, hg_request).map_err(|e| fail("hg solve", e))?;
        let dg = DynGraph::from_csr(&g);
        let icfg = ImproveConfig::new(IMPROVE_STEPS, IMPROVE_SEED).with_par(cfg.par);
        let t = Instant::now();
        let out = improve(&dg, cfg.k, report.solution.store(), &icfg);
        let total_us = t.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        samples.push(total_us / out.stats.moves_tried.max(1));
        uplift = out.stats.uplift;
        moves_applied = out.stats.moves_applied;
    }
    push("improve_step_us", MetricValue::summarize(samples));
    push("improve_uplift", MetricValue::counter(uplift));
    push("improve_moves_applied", MetricValue::counter(moves_applied));

    Ok(SuiteOutcome { metrics, nodes: g.num_nodes(), edges: g.num_edges() })
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Reads the router's lifetime merge counter via a stats query. The query
/// itself is counted as a merge before the reply renders, so the observed
/// value covers every fan-out of the run — still a pure function of the
/// loadgen schedule, which is what lets it gate exactly.
fn router_merges(addr: &str) -> Result<u64, SuiteError> {
    use std::io::{BufRead, BufReader, Write};
    let stream = std::net::TcpStream::connect(addr).map_err(|e| fail("router stats", e))?;
    let mut writer = stream.try_clone().map_err(|e| fail("router stats", e))?;
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{}", render_query_request(Query::Stats))
        .map_err(|e| fail("router stats", e))?;
    writer.flush().map_err(|e| fail("router stats", e))?;
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| fail("router stats", e))?;
    let v = Json::parse(line.trim_end()).map_err(|e| fail("router stats", e))?;
    v.get("router")
        .and_then(|r| r.get("merges"))
        .and_then(Json::as_u64)
        .ok_or_else(|| SuiteError("router stats reply lacks router.merges".into()))
}

/// Both ingestion paths must reproduce the resolved graph — a format
/// regression would otherwise masquerade as a speedup. Text parsing
/// re-interns node ids by first appearance, so the comparison happens in
/// label space (node count + the labelled edge set).
fn check_loaded(loaded: &LoadedGraph, expected: &LoadedGraph) -> Result<(), SuiteError> {
    if loaded.graph.num_nodes() != expected.graph.num_nodes()
        || labelled_edges(loaded) != labelled_edges(expected)
    {
        return Err(SuiteError("ingested graph differs from the resolved stand-in".into()));
    }
    Ok(())
}

fn labelled_edges(loaded: &LoadedGraph) -> Vec<(u64, u64)> {
    let mut edges: Vec<(u64, u64)> = loaded
        .graph
        .iter_edges()
        .map(|(a, b)| {
            let (la, lb) = (loaded.labels[a as usize], loaded.labels[b as usize]);
            (la.min(lb), la.max(lb))
        })
        .collect();
    edges.sort_unstable();
    edges
}
