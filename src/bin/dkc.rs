//! `dkc` — command-line front end for the disjoint k-clique toolkit.
//!
//! ```text
//! dkc stats     <graph> [--kmax K] [common flags]            graph statistics + k-clique counts
//! dkc solve     <graph> --k K [common flags] [--json]        maximal disjoint k-clique set
//! dkc partition <graph> --k K [common flags] [--json]        assign EVERY node to a group (≤ K)
//! dkc serve     <dataset|graph> --k K [--port P] [--state-dir D]   dynamic serving over TCP
//!               [--shards N] [--fsync POLICY] [--staleness N]      … sharded: router + N primaries
//! dkc replica   <shard-addr> [--port P] [--router ADDR --shard I]  read replica tailing a shard
//! dkc loadgen   <host:port> [--conns N] [--ops N] [--update-pct P] [--improve-pct P] [--sharded]   drive a server, report latency
//! dkc bench     [--reps N] [--check BASELINE] [--out FILE]   pinned perf suite → one JSON line
//! dkc bench     summary [FILES...] [--json] [--plot]         fold trajectory files into a table
//! dkc convert   <in> <out> [--threads N]                     text ⇄ binary .dkcsr snapshot
//! dkc gen       <dataset> <out> [--scale X] [--seed N]       write a stand-in (edge list, or .dkcsr)
//! dkc cache     <dataset> --data-dir D [--scale X] [--seed N] [--json]   warm the snapshot cache
//! dkc cache     evict --data-dir D [--dataset NAME] [--scale X] [--seed N]   GC cache entries
//! ```
//!
//! Common flags (accepted uniformly by every solving subcommand):
//! `--algo hg|gc|l|lp|opt|greedy-cg`, `--ordering <kind>` (HG only),
//! `--threads N`, and the budget knobs `--max-cliques N`,
//! `--max-conflicts N`, `--mis-nodes N` — which apply to whichever
//! algorithm can trip on them, not just `opt` — plus the improvement
//! knobs `--improve-steps N` / `--improve-seed N`, which run the
//! `dkc-improve` local-search pass over the constructed solution.
//!
//! `<graph>` accepts either format — KONECT-style text edge lists (`u v`
//! per line, `%`/`#` comments, arbitrary integer labels) or binary
//! `.dkcsr` snapshots — detected by content, not extension. `convert`
//! writes a snapshot when `<out>` ends in `.dkcsr` and a labelled edge
//! list otherwise, so both directions round-trip. `--threads` defaults to
//! the available parallelism (or the `DKC_THREADS` environment variable
//! when set); every parallel phase, text parsing included, is
//! deterministic, so the output is identical for any thread count. Output
//! uses the input file's original labels; `--json` swaps the human output
//! for the engine's `SolveReport`/`PartitionReport` JSON rendering.
//!
//! `bench` runs the pinned performance suite (see
//! `dkc_bench::trajectory`): k-clique listing, LP solve, full partition,
//! text-parse vs snapshot-load ingestion, dynamic `apply_batch`
//! throughput, and serve latency percentiles via an in-process server +
//! loadgen — on a registry-resolved stand-in at a fixed scale/seed — and
//! appends exactly one JSON line to `BENCH_<host>.json` (or `--out`).
//! With `--check <baseline.json>` the fresh run is additionally compared
//! against the committed baseline's last line and the exit status is
//! nonzero when any gated metric regresses beyond its tolerance — the CI
//! `perf-gate` job is exactly this invocation. `bench summary` reads the
//! accumulated trajectory files instead of running anything: every line
//! of each `BENCH_<host>.json` given (default: this host's file) folds
//! into a per-metric `{median, min}` table across runs, or the matching
//! JSON document with `--json`.
//!
//! `serve` starts the dynamic serving layer (see the `dkc-serve` crate
//! docs for the newline-delimited JSON protocol): `<dataset|graph>` is a
//! Table I dataset name (resolved through the registry, honouring
//! `--data-dir`/`--scale`/`--seed`) or a graph file path. With
//! `--state-dir` the server is durable — it journals updates, `snapshot`
//! persists, and a restart resumes at the exact epoch via log replay; an
//! existing state directory wins over `<dataset>`. `--fsync` picks the
//! journal durability point (`per-commit`, `per-batch` (default), or
//! `snapshot`). With `--shards N` the deployment is horizontal: the graph
//! is deterministically partitioned (whole components first, degree-
//! balanced split of the giant component), one shard primary per part on
//! `port+1..=port+N`, and a router on `--port` that routes updates by the
//! node → shard map and fans reads out, merging at a per-shard epoch
//! vector; the plan persists to `<state-dir>/plan.json` so restarts reuse
//! the exact assignment. `replica` bootstraps a read replica from a shard
//! primary (`fetch` + journal tail) and optionally registers with the
//! router (`--router ADDR --shard I`) to join that shard's read rotation,
//! bounded by the router's `--staleness` (max epoch lag). `loadgen`
//! drives a running server with a seeded update/query mix and prints
//! throughput and latency percentiles; `--sharded` fetches the router's
//! node pools first so updates stay intra-shard, and `--improve-pct`
//! mixes in `improve` verbs (`--improve-steps` per call). On the serve
//! side `--improve-slice N` turns on background improvement: whenever
//! the writer is idle it runs an N-step improvement slice, journals any
//! slice that applied moves, and publishes the improved view as a new
//! epoch — replicas and restarts replay the exact same slices.

use disjoint_kcliques::clique::ListRequest;
use disjoint_kcliques::core::{Algo, Budget, Engine, SolveRequest};
use disjoint_kcliques::datagen::registry::DatasetId;
use disjoint_kcliques::datagen::{DatasetRegistry, EvictFilter};
use disjoint_kcliques::dynamic::{FsyncPolicy, ServeStateError, ServingSolver};
use disjoint_kcliques::graph::io::{
    load_graph, write_edge_list_labeled, write_edge_list_path, write_snapshot_path, LoadReport,
    LoadedGraph,
};
use disjoint_kcliques::graph::{partition_shards, ShardPlan};
use disjoint_kcliques::graph::{Dag, NodeOrder};
use disjoint_kcliques::json::Json;
use disjoint_kcliques::par::ParConfig;
use disjoint_kcliques::prelude::*;
use disjoint_kcliques::serve::{
    fetch_pools, run_loadgen, LoadgenConfig, Replica, ReplicaConfig, Router, RouterConfig, Server,
    ServerConfig,
};
use std::time::{Duration, Instant};

/// Every allocation in the CLI is counted, so the bench suite's
/// `list_peak_bytes` / `solve_alloc_count` metrics (and Table I's space
/// column under `repro`) read real values instead of 0.
#[global_allocator]
static ALLOC: disjoint_kcliques::bench::mem::TrackingAllocator =
    disjoint_kcliques::bench::mem::TrackingAllocator;

fn usage() -> ! {
    eprintln!(
        "usage:\n  dkc stats <graph> [--kmax K] [common flags]\n  dkc solve <graph> --k K [common flags] [--json]\n  dkc partition <graph> --k K [common flags] [--json]\n  dkc serve <dataset|graph> --k K [--port P] [--state-dir D] [--data-dir D]\n            [--scale X] [--seed N] [--readers N] [--batch-max N]\n            [--batch-delay-ms MS] [--max-node N] [--shards N] [--improve-slice N]\n            [--fsync per-commit|per-batch|snapshot] [--staleness N] [common flags]\n  dkc replica <shard-addr> [--port P] [--readers N] [--router ADDR --shard I]\n  dkc loadgen <host:port> [--conns N] [--ops N] [--warmup N] [--update-pct P]\n            [--improve-pct P] [--improve-steps N] [--batch N] [--nodes N]\n            [--seed N] [--sharded] [--json]\n  dkc bench [--dataset NAME] [--scale X] [--seed N] [--k K] [--reps N]\n            [--threads N] [--out FILE] [--check BASELINE.json] [--stamp DATE]\n            [--host NAME] [--git-rev SHA] [--data-dir D] [--scratch D]\n            [--conns N] [--ops N] [--warmup N] [--batches N] [--batch-size N]\n  dkc bench summary [FILES...] [--json] [--plot]\n  dkc convert <in> <out> [--threads N]\n  dkc gen <dataset> <out> [--scale X] [--seed N]\n  dkc cache <dataset> --data-dir D [--scale X] [--seed N] [--threads N] [--json]\n  dkc cache evict --data-dir D [--dataset NAME] [--scale X] [--seed N]\n\ncommon flags: --algo hg|gc|l|lp|opt|greedy-cg   --threads N\n              --ordering identity|degree-asc|degree-desc|degeneracy|color\n              --max-cliques N --max-conflicts N --mis-nodes N\n              --improve-steps N --improve-seed N\n\n<graph> is a KONECT-style edge list or a binary .dkcsr snapshot (detected\nby content); gen writes a snapshot when <out> ends in .dkcsr. --scale X\nis a fraction of the paper's dataset size, in (0, 1]. --threads defaults\nto the available parallelism (env DKC_THREADS overrides); results are\nidentical for any thread count.\n--algo opt defaults to the standard deterministic OOM/OOT budgets; the\nbudget flags override them for any algorithm. --json prints the engine\nreport as JSON on stdout. serve speaks newline-delimited JSON (see the\ndkc-serve crate docs); with --state-dir it journals updates and restarts\nresume at the exact epoch via snapshot + log replay. bench appends one\nJSON line per run to BENCH_<host>.json and, with --check, exits nonzero\nwhen a gated metric regresses past the committed baseline's tolerance.\nbench summary folds every line of the given trajectory files (default:\nthis host's file) into a per-metric median/min table across runs;\n--plot appends per-metric ASCII sparklines in run order."
    );
    std::process::exit(2);
}

struct Args {
    command: String,
    path: String,
    out: Option<String>,
    /// Trailing positional file list (`bench summary` only).
    files: Vec<String>,
    k: usize,
    kmax: usize,
    algo: Algo,
    ordering: Option<OrderingKind>,
    max_cliques: Option<usize>,
    max_conflicts: Option<usize>,
    mis_nodes: Option<u64>,
    json: bool,
    scale: Option<f64>,
    seed: Option<u64>,
    dataset: Option<String>,
    data_dir: Option<String>,
    par: ParConfig,
    // serve flags
    port: u16,
    state_dir: Option<String>,
    readers: usize,
    batch_max: usize,
    batch_delay_ms: u64,
    max_node: Option<u32>,
    shards: usize,
    fsync: FsyncPolicy,
    staleness: u64,
    // replica flags
    router: Option<String>,
    shard: Option<usize>,
    // loadgen flags
    sharded: bool,
    // loadgen flags (conns/ops default differently for loadgen and bench)
    conns: Option<usize>,
    ops: Option<usize>,
    warmup: Option<usize>,
    update_pct: f64,
    batch: usize,
    nodes: Option<u32>,
    // improvement flags (budget on solving subcommands, slice size on
    // serve, op mix on loadgen)
    improve_steps: Option<u64>,
    improve_seed: Option<u64>,
    improve_slice: u64,
    improve_pct: f64,
    // bench flags
    reps: usize,
    bench_out: Option<String>,
    check: Option<String>,
    stamp: Option<String>,
    host: Option<String>,
    git_rev: Option<String>,
    scratch: Option<String>,
    batches: usize,
    batch_size: usize,
    plot: bool,
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1).peekable();
    let Some(command) = it.next() else { usage() };
    // `bench` runs the suite with no positional argument; its `summary`
    // form consumes the keyword and then any number of trajectory files.
    let path = if command == "bench" {
        if it.peek().map(String::as_str) == Some("summary") {
            it.next().unwrap()
        } else {
            String::new()
        }
    } else {
        let Some(path) = it.next() else { usage() };
        path
    };
    let mut args = Args {
        command,
        path,
        out: None,
        files: Vec::new(),
        k: 0,
        kmax: 6,
        algo: Algo::Lp,
        ordering: None,
        max_cliques: None,
        max_conflicts: None,
        mis_nodes: None,
        json: false,
        scale: None,
        seed: None,
        dataset: None,
        data_dir: None,
        par: ParConfig::default(),
        port: 7911,
        state_dir: None,
        readers: 4,
        batch_max: 4096,
        batch_delay_ms: 2,
        max_node: None,
        shards: 1,
        fsync: FsyncPolicy::default(),
        staleness: 8,
        router: None,
        shard: None,
        sharded: false,
        conns: None,
        ops: None,
        warmup: None,
        update_pct: 30.0,
        batch: 8,
        nodes: None,
        improve_steps: None,
        improve_seed: None,
        improve_slice: 0,
        improve_pct: 0.0,
        reps: 3,
        bench_out: None,
        check: None,
        stamp: None,
        host: None,
        git_rev: None,
        scratch: None,
        batches: 32,
        batch_size: 16,
        plot: false,
    };
    // `convert` and `gen` take a second positional argument; `bench
    // summary` takes any number of trajectory file positionals.
    let takes_out = matches!(args.command.as_str(), "convert" | "gen");
    let takes_files = args.command == "bench" && args.path == "summary";
    let mut positional_out = None;
    while let Some(flag) = it.next() {
        if !flag.starts_with("--") && takes_files {
            args.files.push(flag);
            continue;
        }
        if !flag.starts_with("--") && takes_out && positional_out.is_none() {
            positional_out = Some(flag);
            continue;
        }
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--k" => args.k = value().parse().unwrap_or_else(|_| usage()),
            "--kmax" => args.kmax = value().parse().unwrap_or_else(|_| usage()),
            "--algo" => {
                args.algo = value().parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                })
            }
            "--ordering" => {
                args.ordering = Some(value().parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                }))
            }
            "--max-cliques" => args.max_cliques = Some(value().parse().unwrap_or_else(|_| usage())),
            "--max-conflicts" => {
                args.max_conflicts = Some(value().parse().unwrap_or_else(|_| usage()))
            }
            "--mis-nodes" => args.mis_nodes = Some(value().parse().unwrap_or_else(|_| usage())),
            "--json" => args.json = true,
            "--scale" => {
                // Stand-ins are sub-samples of the paper's datasets: a scale
                // outside (0, 1] (NaN and infinities included) is a usage
                // error, not a generator panic.
                let scale = value().parse().ok().filter(|s: &f64| *s > 0.0 && *s <= 1.0);
                args.scale = Some(scale.unwrap_or_else(|| usage()));
            }
            "--seed" => args.seed = Some(value().parse().unwrap_or_else(|_| usage())),
            "--dataset" => args.dataset = Some(value()),
            "--data-dir" => args.data_dir = Some(value()),
            "--threads" => {
                let threads: usize = value().parse().unwrap_or_else(|_| usage());
                if threads == 0 {
                    usage();
                }
                args.par = args.par.with_threads(threads);
            }
            "--port" => args.port = value().parse().unwrap_or_else(|_| usage()),
            "--state-dir" => args.state_dir = Some(value()),
            "--readers" => args.readers = value().parse().unwrap_or_else(|_| usage()),
            "--batch-max" => args.batch_max = value().parse().unwrap_or_else(|_| usage()),
            "--batch-delay-ms" => args.batch_delay_ms = value().parse().unwrap_or_else(|_| usage()),
            "--max-node" => args.max_node = Some(value().parse().unwrap_or_else(|_| usage())),
            "--shards" => {
                args.shards = value().parse().unwrap_or_else(|_| usage());
                if args.shards == 0 {
                    usage();
                }
            }
            "--fsync" => {
                args.fsync = value().parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                })
            }
            "--staleness" => args.staleness = value().parse().unwrap_or_else(|_| usage()),
            "--router" => args.router = Some(value()),
            "--shard" => args.shard = Some(value().parse().unwrap_or_else(|_| usage())),
            "--sharded" => args.sharded = true,
            "--conns" => args.conns = Some(value().parse().unwrap_or_else(|_| usage())),
            "--ops" => args.ops = Some(value().parse().unwrap_or_else(|_| usage())),
            "--warmup" => args.warmup = Some(value().parse().unwrap_or_else(|_| usage())),
            "--update-pct" => {
                let pct: f64 = value().parse().unwrap_or_else(|_| usage());
                if !(0.0..=100.0).contains(&pct) {
                    usage();
                }
                args.update_pct = pct;
            }
            "--batch" => args.batch = value().parse().unwrap_or_else(|_| usage()),
            "--nodes" => args.nodes = Some(value().parse().unwrap_or_else(|_| usage())),
            "--improve-steps" => {
                args.improve_steps = Some(value().parse().unwrap_or_else(|_| usage()))
            }
            "--improve-seed" => {
                args.improve_seed = Some(value().parse().unwrap_or_else(|_| usage()))
            }
            "--improve-slice" => args.improve_slice = value().parse().unwrap_or_else(|_| usage()),
            "--improve-pct" => {
                let pct: f64 = value().parse().unwrap_or_else(|_| usage());
                if !(0.0..=100.0).contains(&pct) {
                    usage();
                }
                args.improve_pct = pct;
            }
            "--plot" => args.plot = true,
            "--reps" => {
                args.reps = value().parse().unwrap_or_else(|_| usage());
                if args.reps == 0 {
                    usage();
                }
            }
            "--out" => args.bench_out = Some(value()),
            "--check" => args.check = Some(value()),
            "--stamp" => args.stamp = Some(value()),
            "--host" => args.host = Some(value()),
            "--git-rev" => args.git_rev = Some(value()),
            "--scratch" => args.scratch = Some(value()),
            "--batches" => args.batches = value().parse().unwrap_or_else(|_| usage()),
            "--batch-size" => args.batch_size = value().parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    args.out = positional_out;
    args
}

fn load(path: &str, par: ParConfig) -> (LoadedGraph, LoadReport) {
    match load_graph(path, par) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("failed to load {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn dataset_for(name: &str) -> DatasetId {
    let upper = name.to_ascii_uppercase();
    match DatasetId::ALL.into_iter().find(|d| d.name() == upper) {
        Some(id) => id,
        None => {
            let names: Vec<&str> = DatasetId::ALL.iter().map(|d| d.name()).collect();
            eprintln!("unknown dataset {name:?} (try one of {})", names.join("|"));
            std::process::exit(2);
        }
    }
}

/// The single Engine-backed construction point the solving subcommands
/// share: one request from the uniform `--algo`/`--ordering`/`--threads`/
/// budget flags. `opt` starts from the standard deterministic budgets
/// (degrade to a structured OOM/OOT error instead of hanging past exact
/// scale); every algorithm honours explicit budget overrides.
fn request_from_args(args: &Args) -> SolveRequest {
    let mut budget = match args.algo {
        Algo::Opt => Budget::standard(),
        _ => Budget::unlimited(),
    };
    if let Some(n) = args.max_cliques {
        budget = budget.with_max_cliques(n);
    }
    if let Some(n) = args.max_conflicts {
        budget = budget.with_max_conflicts(n);
    }
    if let Some(n) = args.mis_nodes {
        budget = budget.with_mis_node_limit(n);
    }
    if let Some(steps) = args.improve_steps {
        budget = budget.with_improve_steps(steps);
    }
    if let Some(seed) = args.improve_seed {
        budget = budget.with_improve_seed(seed);
    }
    let mut req = SolveRequest::new(args.algo, args.k).with_budget(budget).with_par(args.par);
    if let Some(ordering) = args.ordering {
        req = req.with_ordering(ordering);
    }
    req
}

/// Loads the input graph and prints the shared load-path provenance line
/// (to stderr, so `--json`/label output on stdout stays machine-clean).
fn load_with_provenance(args: &Args) -> LoadedGraph {
    let (loaded, report) = load(&args.path, args.par);
    eprintln!("# load: {report}");
    loaded
}

fn main() {
    let args = parse_args();
    match args.command.as_str() {
        "stats" => cmd_stats(&args),
        "solve" => cmd_solve(&args),
        "partition" => cmd_partition(&args),
        "serve" if args.shards > 1 => cmd_serve_sharded(&args),
        "serve" => cmd_serve(&args),
        "replica" => cmd_replica(&args),
        "loadgen" => cmd_loadgen(&args),
        "bench" if args.path == "summary" => cmd_bench_summary(&args),
        "bench" => cmd_bench(&args),
        "convert" => cmd_convert(&args),
        "gen" => cmd_gen(&args),
        "cache" if args.path == "evict" => cmd_cache_evict(&args),
        "cache" => cmd_cache(&args),
        _ => usage(),
    }
}

/// Bootstraps the serve graph: an existing file path wins, then a Table I
/// dataset name through the registry (snapshot-cached under `--data-dir`).
fn serve_bootstrap(args: &Args) -> Result<CsrGraph, ServeStateError> {
    if std::path::Path::new(&args.path).is_file() {
        let (loaded, report) = load_graph(&args.path, args.par).map_err(ServeStateError::Graph)?;
        eprintln!("# load: {report}");
        return Ok(loaded.graph);
    }
    let id = dataset_for(&args.path);
    let registry = match &args.data_dir {
        Some(dir) => DatasetRegistry::new(dir),
        None => DatasetRegistry::in_memory(),
    }
    .with_par(args.par);
    let resolved = registry
        .resolve_standin(id, args.scale.unwrap_or(1.0), args.seed.unwrap_or(42))
        .map_err(ServeStateError::Graph)?;
    eprintln!(
        "# {} resolved from {} ({} nodes, {} edges)",
        id.name(),
        resolved.from,
        resolved.loaded.graph.num_nodes(),
        resolved.loaded.graph.num_edges()
    );
    Ok(resolved.loaded.graph)
}

fn cmd_serve(args: &Args) {
    if args.k == 0 {
        usage();
    }
    let request = request_from_args(args);
    let built = match &args.state_dir {
        Some(dir) => ServingSolver::open(dir, request, || serve_bootstrap(args)),
        None => serve_bootstrap(args)
            .and_then(|g| ServingSolver::in_memory(&g, request).map_err(Into::into))
            .map(|s| (s, false)),
    };
    let (serving, restored) = match built {
        Ok(v) => v,
        Err(e) => {
            eprintln!("serve bootstrap failed: {e}");
            std::process::exit(1);
        }
    };
    let view = serving.view();
    let listener = match std::net::TcpListener::bind(("127.0.0.1", args.port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("failed to bind 127.0.0.1:{}: {e}", args.port);
            std::process::exit(1);
        }
    };
    let config = ServerConfig {
        readers: args.readers.max(1),
        queue_capacity: 128,
        batch_max_updates: args.batch_max.max(1),
        batch_delay: Duration::from_millis(args.batch_delay_ms),
        max_node: args.max_node,
        fsync: args.fsync,
        improve_slice: args.improve_slice,
        improve_seed: args.improve_seed.unwrap_or(0),
    };
    let handle = match Server::start(listener, serving, config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("failed to start server: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "# serving on {} — k={} algo={} epoch={} |S|={}{}{}",
        handle.local_addr(),
        view.k(),
        request.algo,
        view.epoch(),
        view.len(),
        if restored { " (restored from state dir)" } else { "" },
        match &args.state_dir {
            Some(d) => format!(" state-dir={d}"),
            None => " (in-memory, no durability)".to_string(),
        }
    );
    handle.join();
    eprintln!("# server stopped");
}

/// Persisted shard-plan document (`<state-dir>/plan.json`): the assignment
/// a deployment was created with, reused verbatim on restart — the graph
/// has mutated since, so re-partitioning it would re-route nodes.
fn plan_to_json(plan: &ShardPlan, seed: u64) -> Json {
    Json::Obj(vec![
        ("version".into(), Json::u64(1)),
        ("shards".into(), Json::usize(plan.shards())),
        ("seed".into(), Json::u64(seed)),
        (
            "assign".into(),
            Json::Arr(plan.assignment().iter().map(|&s| Json::u64(s as u64)).collect()),
        ),
        (
            "cut_edges".into(),
            Json::Arr(
                plan.cut_edges()
                    .iter()
                    .map(|&(u, v)| Json::Arr(vec![Json::u64(u as u64), Json::u64(v as u64)]))
                    .collect(),
            ),
        ),
        ("split_components".into(), Json::usize(plan.split_components())),
    ])
}

fn plan_from_json(doc: &Json) -> Option<ShardPlan> {
    let shards = doc.get("shards").and_then(Json::as_u64)? as usize;
    let assign: Vec<u32> = doc
        .get("assign")
        .and_then(Json::as_arr)?
        .iter()
        .map(|v| v.as_u64().map(|s| s as u32))
        .collect::<Option<_>>()?;
    let cut_edges = doc
        .get("cut_edges")
        .and_then(Json::as_arr)?
        .iter()
        .map(|e| {
            let pair = e.as_arr()?;
            Some((pair.first()?.as_u64()? as u32, pair.get(1)?.as_u64()? as u32))
        })
        .collect::<Option<Vec<_>>>()?;
    let split = doc.get("split_components").and_then(Json::as_u64)? as usize;
    Some(ShardPlan::from_parts(shards, assign, cut_edges, split))
}

/// `dkc serve --shards N`: one `ServingSolver` per shard (each with its own
/// generation-named state dir under `<state-dir>/shard<i>`) behind a router
/// on `--port`; shard primaries listen on `port+1 ..= port+N`.
fn cmd_serve_sharded(args: &Args) {
    if args.k == 0 {
        usage();
    }
    let request = request_from_args(args);
    let seed = args.seed.unwrap_or(42);
    let graph = match serve_bootstrap(args) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("serve bootstrap failed: {e}");
            std::process::exit(1);
        }
    };
    // The plan: reuse the persisted one when restarting a durable
    // deployment, partition afresh otherwise.
    let plan_path = args.state_dir.as_ref().map(|d| std::path::Path::new(d).join("plan.json"));
    let persisted = plan_path
        .as_ref()
        .and_then(|p| std::fs::read_to_string(p).ok())
        .and_then(|text| Json::parse(text.trim()).ok())
        .and_then(|doc| plan_from_json(&doc));
    let (plan, restored_plan) = match persisted {
        Some(plan) => {
            if plan.shards() != args.shards {
                eprintln!(
                    "state dir was created with {} shards; --shards {} cannot re-shard it",
                    plan.shards(),
                    args.shards
                );
                std::process::exit(1);
            }
            (plan, true)
        }
        None => (partition_shards(&graph, args.shards, seed), false),
    };
    eprintln!("# plan: {}{}", plan.summary(), if restored_plan { " (restored)" } else { "" });

    let config = ServerConfig {
        readers: args.readers.max(1),
        queue_capacity: 128,
        batch_max_updates: args.batch_max.max(1),
        batch_delay: Duration::from_millis(args.batch_delay_ms),
        max_node: args.max_node,
        fsync: args.fsync,
        improve_slice: args.improve_slice,
        improve_seed: args.improve_seed.unwrap_or(0),
    };
    let mut shard_addrs = Vec::new();
    let mut shard_handles = Vec::new();
    for s in 0..plan.shards() {
        let built = match &args.state_dir {
            Some(dir) => {
                let shard_dir = std::path::Path::new(dir).join(format!("shard{s}"));
                ServingSolver::open(shard_dir, request, || Ok(plan.shard_graph(&graph, s)))
            }
            None => ServingSolver::in_memory(&plan.shard_graph(&graph, s), request)
                .map_err(Into::into)
                .map(|v| (v, false)),
        };
        let (serving, restored) = match built {
            Ok(v) => v,
            Err(e) => {
                eprintln!("shard {s} bootstrap failed: {e}");
                std::process::exit(1);
            }
        };
        let port = args.port + 1 + s as u16;
        let listener = match std::net::TcpListener::bind(("127.0.0.1", port)) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("failed to bind shard {s} on 127.0.0.1:{port}: {e}");
                std::process::exit(1);
            }
        };
        let view = serving.view();
        let handle = match Server::start(listener, serving, config) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("failed to start shard {s}: {e}");
                std::process::exit(1);
            }
        };
        eprintln!(
            "# shard {s} on {} — epoch={} |S|={}{}",
            handle.local_addr(),
            view.epoch(),
            view.len(),
            if restored { " (restored)" } else { "" }
        );
        shard_addrs.push(handle.local_addr().to_string());
        shard_handles.push(handle);
    }
    if let (Some(path), false) = (&plan_path, restored_plan) {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).ok();
        }
        if let Err(e) = std::fs::write(path, plan_to_json(&plan, seed).render() + "\n") {
            eprintln!("failed to persist {}: {e}", path.display());
            std::process::exit(1);
        }
    }

    let listener = match std::net::TcpListener::bind(("127.0.0.1", args.port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("failed to bind router on 127.0.0.1:{}: {e}", args.port);
            std::process::exit(1);
        }
    };
    let router_config = RouterConfig { workers: args.readers.max(1), staleness: args.staleness };
    let router = match Router::start(listener, shard_addrs, plan, router_config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("failed to start router: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "# router on {} — {} shards, staleness bound {}, fsync {}",
        router.local_addr(),
        args.shards,
        args.staleness,
        args.fsync
    );
    router.join();
    for h in shard_handles {
        h.join();
    }
    eprintln!("# sharded deployment stopped");
}

/// `dkc replica <shard-addr>`: bootstrap from the shard primary (`fetch`),
/// tail its journal, serve read queries; optionally announce the replica
/// to a router so it joins that shard's read rotation.
fn cmd_replica(args: &Args) {
    let listener = match std::net::TcpListener::bind(("127.0.0.1", args.port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("failed to bind 127.0.0.1:{}: {e}", args.port);
            std::process::exit(1);
        }
    };
    let config = ReplicaConfig { readers: args.readers.max(1), ..ReplicaConfig::default() };
    let handle = match Replica::start(&args.path, listener, config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("replica bootstrap from {} failed: {e}", args.path);
            std::process::exit(1);
        }
    };
    eprintln!(
        "# replica on {} — tailing {} from epoch {}",
        handle.local_addr(),
        args.path,
        handle.epoch()
    );
    if let Some(router) = &args.router {
        let shard = args.shard.unwrap_or(0);
        let line = disjoint_kcliques::serve::protocol::render_register_replica_request(
            shard,
            &handle.local_addr().to_string(),
        );
        let registered = std::net::TcpStream::connect(router).and_then(|stream| {
            use std::io::{BufRead, BufReader, Write};
            let mut w = stream.try_clone()?;
            writeln!(w, "{line}")?;
            w.flush()?;
            let mut reply = String::new();
            BufReader::new(stream).read_line(&mut reply)?;
            Ok(reply)
        });
        match registered {
            Ok(reply) if reply.contains("\"ok\":true") => {
                eprintln!("# registered with router {router} for shard {shard}");
            }
            Ok(reply) => eprintln!("# router {router} refused registration: {}", reply.trim_end()),
            Err(e) => eprintln!("# could not reach router {router}: {e}"),
        }
    }
    handle.join();
    eprintln!("# replica stopped");
}

fn cmd_loadgen(args: &Args) {
    // `--sharded` asks the router for its per-shard node pools so every
    // generated update stays intra-shard (never dropped as a cut edge).
    let pools = if args.sharded {
        match fetch_pools(&args.path) {
            Ok(pools) => {
                eprintln!(
                    "# sharded mode: {} pools ({} nodes)",
                    pools.len(),
                    pools.iter().map(Vec::len).sum::<usize>()
                );
                Some(pools)
            }
            Err(e) => {
                eprintln!("failed to fetch shard pools from {}: {e}", args.path);
                std::process::exit(1);
            }
        }
    } else {
        None
    };
    let cfg = LoadgenConfig {
        addr: args.path.clone(),
        connections: args.conns.unwrap_or(4).max(1),
        ops_per_connection: args.ops.unwrap_or(200).max(1),
        warmup_ops: args.warmup.unwrap_or(0),
        update_fraction: args.update_pct / 100.0,
        improve_fraction: args.improve_pct / 100.0,
        improve_steps: args.improve_steps.unwrap_or(64),
        batch: args.batch.max(1),
        nodes: args.nodes.unwrap_or(1000),
        seed: args.seed.unwrap_or(42),
        pools,
    };
    match run_loadgen(&cfg) {
        Ok(report) => {
            if args.json {
                let us = |d: Duration| Json::u64(d.as_micros() as u64);
                let summary = |s: &disjoint_kcliques::serve::LatencySummary| {
                    Json::Obj(vec![
                        ("count".into(), Json::usize(s.count)),
                        ("p50_us".into(), us(s.p50)),
                        ("p95_us".into(), us(s.p95)),
                        ("p99_us".into(), us(s.p99)),
                        ("max_us".into(), us(s.max)),
                    ])
                };
                let doc = Json::Obj(vec![
                    ("total_ops".into(), Json::usize(report.total_ops)),
                    ("errors".into(), Json::usize(report.errors)),
                    ("elapsed_us".into(), us(report.elapsed)),
                    ("ops_per_sec".into(), Json::u64(report.throughput() as u64)),
                    ("updates".into(), summary(&report.updates)),
                    ("improves".into(), summary(&report.improves)),
                    ("queries".into(), summary(&report.queries)),
                    ("final_epoch".into(), Json::u64(report.final_epoch)),
                    ("final_size".into(), Json::usize(report.final_size)),
                ]);
                println!("{}", doc.render());
            } else {
                println!("{report}");
            }
            if report.errors > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("loadgen failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs the pinned perf suite, appends one JSON line to the trajectory
/// file, and (with `--check`) gates against the committed baseline.
fn cmd_bench(args: &Args) {
    use disjoint_kcliques::bench::trajectory::{
        check_line, gates, run_suite, BenchLine, SuiteConfig, SCHEMA_VERSION,
    };
    let dataset = dataset_for(args.dataset.as_deref().unwrap_or("HST"));
    let mut cfg = SuiteConfig::pinned(
        args.scratch
            .clone()
            .unwrap_or_else(|| format!("{}/dkc-bench-scratch", std::env::temp_dir().display())),
    );
    cfg.dataset = dataset;
    cfg.scale = args.scale.unwrap_or(cfg.scale);
    cfg.seed = args.seed.unwrap_or(cfg.seed);
    if args.k != 0 {
        cfg.k = args.k;
    }
    cfg.reps = args.reps;
    cfg.par = args.par;
    cfg.data_dir = args.data_dir.clone().map(Into::into);
    cfg.serve_conns = args.conns.unwrap_or(cfg.serve_conns);
    cfg.serve_ops = args.ops.unwrap_or(cfg.serve_ops);
    // Warmup is defaulted ON here (unlike `dkc loadgen`) so the serve
    // percentiles aren't dominated by first-connection noise.
    cfg.serve_warmup = args.warmup.unwrap_or(cfg.serve_warmup);
    cfg.apply_batches = args.batches.max(1);
    cfg.apply_batch_size = args.batch_size.max(1);

    let host = bench_host(args);
    let outcome = match run_suite(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    let line = BenchLine {
        schema: SCHEMA_VERSION,
        host: host.clone(),
        git_rev: bench_git_rev(args),
        date: bench_stamp(args),
        threads: args.par.threads,
        dataset: dataset.name().to_string(),
        scale: format!("{}", cfg.scale),
        seed: cfg.seed,
        k: cfg.k,
        reps: cfg.reps,
        metrics: outcome.metrics,
    };
    let rendered = line.render();
    let out_path = args.bench_out.clone().unwrap_or_else(|| format!("BENCH_{host}.json"));
    let append =
        std::fs::OpenOptions::new().create(true).append(true).open(&out_path).and_then(|mut f| {
            std::io::Write::write_all(&mut f, format!("{rendered}\n").as_bytes())
        });
    if let Err(e) = append {
        eprintln!("failed to append to {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "# bench: {} scale {} seed {} ({} nodes, {} edges), k={} reps={} threads={} → {}",
        line.dataset,
        line.scale,
        line.seed,
        outcome.nodes,
        outcome.edges,
        line.k,
        line.reps,
        line.threads,
        out_path
    );
    println!("{rendered}");

    if let Some(baseline_path) = &args.check {
        let baseline = std::fs::read_to_string(baseline_path)
            .map_err(|e| e.to_string())
            .and_then(|text| BenchLine::parse_last(&text).map_err(|e| e.to_string()));
        let baseline = match baseline {
            Ok(b) => b,
            Err(e) => {
                eprintln!("failed to read baseline {baseline_path}: {e}");
                std::process::exit(1);
            }
        };
        let violations = check_line(&line, &baseline);
        if violations.is_empty() {
            eprintln!(
                "# perf gate PASSED against {baseline_path} ({} gated metrics)",
                gates().len()
            );
        } else {
            eprintln!("# perf gate FAILED against {baseline_path}:");
            for v in &violations {
                eprintln!("#   {v}");
            }
            std::process::exit(1);
        }
    }
}

/// Folds every line of the given trajectory files (default: this host's
/// `BENCH_<host>.json`) into a per-metric `{median, min}` table.
fn cmd_bench_summary(args: &Args) {
    use disjoint_kcliques::bench::trajectory::{parse_trajectory, summarize, BenchLine};
    let files = if args.files.is_empty() {
        vec![format!("BENCH_{}.json", bench_host(args))]
    } else {
        args.files.clone()
    };
    let mut lines: Vec<BenchLine> = Vec::new();
    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("failed to read {path}: {e}");
                std::process::exit(1);
            }
        };
        match parse_trajectory(&text) {
            Ok(parsed) => lines.extend(parsed),
            Err(e) => {
                eprintln!("failed to parse {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    let summary = summarize(&lines);
    if args.json {
        println!("{}", summary.to_json_value().render());
        return;
    }
    let span = summary
        .span
        .as_ref()
        .map(|(first, last)| format!(", {first} → {last}"))
        .unwrap_or_default();
    eprintln!(
        "# {} run{} from {} file{} (hosts: {}{span})",
        summary.runs,
        if summary.runs == 1 { "" } else { "s" },
        files.len(),
        if files.len() == 1 { "" } else { "s" },
        if summary.hosts.is_empty() { "-".to_string() } else { summary.hosts.join(",") },
    );
    print!("{}", summary.render_table());
    if args.plot {
        print!("{}", disjoint_kcliques::bench::trajectory::render_sparklines(&lines));
    }
}

/// `--host`, else `DKC_BENCH_HOST`, else `HOSTNAME`, else `unknown` —
/// sanitised so `BENCH_<host>.json` is always a safe file name.
fn bench_host(args: &Args) -> String {
    let raw = args
        .host
        .clone()
        .or_else(|| std::env::var("DKC_BENCH_HOST").ok())
        .or_else(|| std::env::var("HOSTNAME").ok())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    raw.chars()
        .map(|c| if c.is_ascii_alphanumeric() || "._-".contains(c) { c } else { '-' })
        .collect()
}

/// `--git-rev`, else `GITHUB_SHA`, else `git rev-parse HEAD`, else
/// `unknown`.
fn bench_git_rev(args: &Args) -> String {
    if let Some(rev) = &args.git_rev {
        return rev.clone();
    }
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// `--stamp`, else seconds since the Unix epoch.
fn bench_stamp(args: &Args) -> String {
    if let Some(stamp) = &args.stamp {
        return stamp.clone();
    }
    std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map(|d| format!("unix:{}", d.as_secs()))
        .unwrap_or_else(|_| "unstamped".into())
}

fn cmd_stats(args: &Args) {
    let loaded = load_with_provenance(args);
    let g = &loaded.graph;
    println!("{}", GraphStats::of(g));
    let dag = Dag::from_graph(g, NodeOrder::compute(g, OrderingKind::Degeneracy));
    for k in 3..=args.kmax {
        let t = Instant::now();
        let count = ListRequest::new(k).with_par(args.par).count(&dag);
        println!("{k}-cliques: {count} ({:.1} ms)", t.elapsed().as_secs_f64() * 1e3);
    }
}

fn cmd_solve(args: &Args) {
    if args.k == 0 {
        usage();
    }
    let loaded = load_with_provenance(args);
    let req = request_from_args(args);
    match Engine::solve(&loaded.graph, req) {
        Ok(report) => {
            report.solution.verify(&loaded.graph).expect("solver produced an invalid set");
            eprintln!(
                "# {}: |S| = {} ({} nodes covered, {:.1} ms, threads={})",
                report.algo.paper_name(),
                report.solution.len(),
                report.solution.covered_nodes(),
                report.elapsed.as_secs_f64() * 1e3,
                report.threads,
            );
            if args.json {
                println!("{}", report.to_json_with_labels(&loaded.labels));
            } else {
                for c in report.solution.cliques() {
                    let labels: Vec<String> =
                        c.iter().map(|u| loaded.labels[u as usize].to_string()).collect();
                    println!("{}", labels.join(" "));
                }
            }
        }
        Err(e) => {
            eprintln!("solve failed: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_partition(args: &Args) {
    if args.k == 0 {
        usage();
    }
    let loaded = load_with_provenance(args);
    let req = request_from_args(args);
    match Engine::partition_all(&loaded.graph, req) {
        Ok(report) => {
            eprintln!(
                "# {}: {} groups in {:.1} ms — histogram {:?}",
                report.algo.paper_name(),
                report.partition.num_groups(),
                report.elapsed.as_secs_f64() * 1e3,
                report.partition.size_histogram()
            );
            if args.json {
                println!("{}", report.to_json_with_labels(&loaded.labels));
            } else {
                for group in &report.partition.groups {
                    let labels: Vec<String> =
                        group.iter().map(|&u| loaded.labels[u as usize].to_string()).collect();
                    println!("{}", labels.join(" "));
                }
            }
        }
        Err(e) => {
            eprintln!("partition failed: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_convert(args: &Args) {
    let Some(out) = &args.out else { usage() };
    let loaded = load_with_provenance(args);
    let t = Instant::now();
    let result = if out.ends_with(".dkcsr") {
        write_snapshot_path(&loaded, out)
    } else {
        std::fs::File::create(out)
            .map_err(Into::into)
            .and_then(|f| write_edge_list_labeled(&loaded, f))
    };
    match result {
        Ok(()) => eprintln!(
            "# wrote {out} ({} nodes, {} edges, {:.1} ms)",
            loaded.graph.num_nodes(),
            loaded.graph.num_edges(),
            t.elapsed().as_secs_f64() * 1e3
        ),
        Err(e) => {
            eprintln!("failed to write {out}: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_gen(args: &Args) {
    let Some(out) = &args.out else { usage() };
    let id = dataset_for(&args.path);
    let (scale, seed) = (args.scale.unwrap_or(1.0), args.seed.unwrap_or(42));
    let g = id.standin(scale, seed);
    let (nodes, edges) = (g.num_nodes(), g.num_edges());
    let result = if out.ends_with(".dkcsr") {
        write_snapshot_path(&LoadedGraph::identity(g), out)
    } else {
        write_edge_list_path(&g, out)
    };
    match result {
        Ok(()) => eprintln!(
            "# wrote {out}: {} stand-in at scale {} seed {} ({} nodes, {} edges)",
            id.name(),
            scale,
            seed,
            nodes,
            edges
        ),
        Err(e) => {
            eprintln!("failed to write {out}: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_cache(args: &Args) {
    let Some(dir) = &args.data_dir else { usage() };
    let id = dataset_for(&args.path);
    let registry = DatasetRegistry::new(dir).with_par(args.par);
    match registry.resolve_standin(id, args.scale.unwrap_or(1.0), args.seed.unwrap_or(42)) {
        Ok(resolved) => {
            if args.json {
                // Machine form of the resolution + counters, rendered via
                // the shared JSON module (the same layer behind the engine
                // reports and the serve protocol).
                let s = registry.stats();
                let stats = Json::Obj(vec![
                    ("snapshot_hits".into(), Json::u64(s.snapshot_hits)),
                    ("text_loads".into(), Json::u64(s.text_loads)),
                    ("synthetic_builds".into(), Json::u64(s.synthetic_builds)),
                    ("cache_writes".into(), Json::u64(s.cache_writes)),
                    ("cache_errors".into(), Json::u64(s.cache_errors)),
                    ("evictions".into(), Json::u64(s.evictions)),
                ]);
                let doc = Json::Obj(vec![
                    ("dataset".into(), Json::str(id.name())),
                    ("from".into(), Json::str(resolved.from.to_string())),
                    ("nodes".into(), Json::usize(resolved.loaded.graph.num_nodes())),
                    ("edges".into(), Json::usize(resolved.loaded.graph.num_edges())),
                    ("elapsed_us".into(), Json::u64(resolved.elapsed.as_micros() as u64)),
                    ("cache_written".into(), Json::Bool(resolved.cache_written)),
                    ("stats".into(), stats),
                ]);
                println!("{}", doc.render());
            } else {
                eprintln!(
                    "# {} resolved from {} in {:.1} ms ({} nodes, {} edges); {}",
                    id.name(),
                    resolved.from,
                    resolved.elapsed.as_secs_f64() * 1e3,
                    resolved.loaded.graph.num_nodes(),
                    resolved.loaded.graph.num_edges(),
                    registry.stats_line()
                );
            }
        }
        Err(e) => {
            eprintln!("cache failed: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_cache_evict(args: &Args) {
    let Some(dir) = &args.data_dir else { usage() };
    let registry = DatasetRegistry::new(dir);
    let filter = EvictFilter {
        dataset: args.dataset.as_deref().map(dataset_for),
        scale: args.scale,
        seed: args.seed,
    };
    match registry.evict_standins(&filter) {
        Ok(removed) => {
            eprintln!(
                "# evicted {removed} cache entr{}; {}",
                plural_y(removed),
                registry.stats_line()
            );
        }
        Err(e) => {
            eprintln!("evict failed: {e}");
            std::process::exit(1);
        }
    }
}

fn plural_y(n: usize) -> &'static str {
    if n == 1 {
        "y"
    } else {
        "ies"
    }
}
