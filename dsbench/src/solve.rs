//! The static phase: snapshot load, then LP and GC solves alternating on
//! the same graph (the paper's main static experiment, LP against its GC
//! competitor). The first pair is warm-up and is not timed; the timed
//! pairs are spread over the run's rounds.

use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{ms, secs, K, THREADS};
use dkc_bench::mem;
use dkc_clique::{collect_kcliques_store_parallel, node_scores_parallel};
use dkc_core::{Algo, Engine, SolveRequest};
use dkc_graph::io::read_snapshot_path;
use dkc_graph::{CsrGraph, Dag, NodeOrder, OrderingKind};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What the static phase measured.
#[derive(Debug, Default)]
pub struct SolveOut {
    /// Snapshot load times, s.
    pub load_s: Vec<f64>,
    /// LP solve times after warm-up, ms.
    pub lp_ms: Vec<f64>,
    /// GC solve times after warm-up, ms.
    pub gc_ms: Vec<f64>,
    /// LP's |S|.
    pub cliques: usize,
    /// Peak heap of one solve, bytes above the loaded graph (the highest
    /// over every solve).
    pub peak_bytes: usize,
}

/// Loads the snapshot at `ds` and appends the load time, s, to `times`.
fn timed_load(ds: &Path, times: &mut Vec<f64>) -> std::io::Result<CsrGraph> {
    let t = Instant::now();
    let loaded = read_snapshot_path(ds).map_err(std::io::Error::other)?;
    times.push(secs(t));
    Ok(loaded.graph)
}

fn request(algo: Algo) -> SolveRequest {
    SolveRequest::new(algo, K).with_threads(THREADS)
}

/// The static phase across a run's rounds: the loaded graph and what was
/// measured so far.
pub struct Solve {
    ds: PathBuf,
    graph: CsrGraph,
    /// |S| of the first LP and the first GC solve.
    sizes: [Option<usize>; 2],
    /// What the phase measured.
    pub out: SolveOut,
}

impl Solve {
    /// Loads `ds`, timed, then runs the untimed warm-up pair.
    pub fn new(ds: &Path, report: &mut Report) -> std::io::Result<Solve> {
        let mut out = SolveOut::default();
        let graph = timed_load(ds, &mut out.load_s)?;
        let mut solve = Solve { ds: ds.to_path_buf(), graph, sizes: [None; 2], out };
        solve.pair(false, report);
        Ok(solve)
    }

    /// Loads the snapshot again, timed; the new copy replaces the graph.
    pub fn load(&mut self) -> std::io::Result<()> {
        self.graph = timed_load(&self.ds, &mut self.out.load_s)?;
        Ok(())
    }

    /// The loaded graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// One LP solve and one GC solve, timed when `timed`. Every solution
    /// is verified and each solver must repeat its first |S| exactly.
    pub fn pair(&mut self, timed: bool, report: &mut Report) {
        let g = &self.graph;
        for (slot, algo) in [Algo::Lp, Algo::Gc].into_iter().enumerate() {
            let base = mem::reset_peak();
            let t = Instant::now();
            let solved = Engine::solve(g, request(algo));
            let elapsed = ms(t);
            self.out.peak_bytes = self.out.peak_bytes.max(mem::peak_bytes().saturating_sub(base));
            let Ok(rep) = solved else {
                report.check(false, || format!("{algo} solve failed: {solved:?}"));
                continue;
            };
            let valid = rep.solution.verify(g);
            report.check(valid.is_ok(), || format!("{algo} solution invalid: {valid:?}"));
            let size = rep.solution.len();
            let first = *self.sizes[slot].get_or_insert(size);
            report.check(size == first, || format!("{algo} |S| changed: {first} then {size}"));
            if timed {
                if algo == Algo::Lp { &mut self.out.lp_ms } else { &mut self.out.gc_ms }
                    .push(elapsed);
            }
        }
        self.out.cliques = self.sizes[0].unwrap_or(0);
    }
}

/// The traced decomposition of one LP and one GC solve, replayed `reps`
/// times through the public calls each solver makes, in its order:
/// degeneracy order → DAG → scores → score re-order (LP) or listing (GC).
/// Whole solves run in between so each layer's share can be taken out of
/// the solver total. Reports the `graph.*`, `clique.*` and `core.*`
/// per-layer metrics.
pub fn trace(
    g: &CsrGraph,
    reps: usize,
    load_ms: f64,
    untraced_lp_ms: f64,
    tracer: &Tracer,
    report: &mut Report,
) {
    let par = request(Algo::Lp).par;
    let mut stats = None;
    let mut kcliques = 0usize;
    let mut list_peak = 0usize;
    for rep in 0..reps.max(1) as u64 {
        let order = tracer
            .span("graph.order", None, rep, || NodeOrder::compute(g, OrderingKind::Degeneracy));
        let dag = tracer.span("graph.dag", None, rep, || Dag::from_graph(g, order));
        let scores = tracer.span("clique.scores", None, rep, || node_scores_parallel(&dag, K, par));
        let base = mem::reset_peak();
        let store =
            tracer.span("clique.list", None, rep, || collect_kcliques_store_parallel(&dag, K, par));
        list_peak = list_peak.max(mem::peak_bytes().saturating_sub(base));
        kcliques = store.len();
        drop((store, dag));
        let reordered = tracer.span("graph.reorder", None, rep, || {
            Dag::from_graph(g, NodeOrder::from_scores_asc(&scores))
        });
        drop(reordered);
        let lp = tracer.span("core.lp", None, rep, || Engine::solve(g, request(Algo::Lp)));
        stats = lp.ok().and_then(|r| r.lp_stats);
        tracer.span("core.gc", None, rep, || Engine::solve(g, request(Algo::Gc))).ok();
    }
    let med = |name: &str| median(&tracer.durations_ms(name)).unwrap_or(0.0);
    let (order, dag, scores, reorder) =
        (med("graph.order"), med("graph.dag"), med("clique.scores"), med("graph.reorder"));
    let (list, lp, gc) = (med("clique.list"), med("core.lp"), med("core.gc"));
    let n = format!("median of {reps}");
    report.put("graph.load_ms", load_ms, "median snapshot load");
    report.put("graph.order_ms", order, n.clone());
    report.put("graph.dag_ms", dag, n.clone());
    report.put("graph.reorder_ms", reorder, n.clone());
    report.put("clique.scores_ms", scores, n.clone());
    report.put("clique.list_ms", list, n.clone());
    report.put("clique.kcliques", kcliques as f64, "");
    report.put("clique.list_peak_mb", list_peak as f64 / MIB, "heap above the DAG");
    report.put(
        "core.lp_drain_ms",
        lp - order - dag - scores - reorder,
        "LP minus order, DAG, scores, re-order",
    );
    report.put(
        "core.gc_select_ms",
        gc - list - scores - order - dag,
        "GC minus list, scores, order, DAG",
    );
    let s = stats.unwrap_or_default();
    report.put("core.lp_heap_pops", s.heap_pops as f64, "");
    report.put("core.lp_stale_pops", s.stale_pops as f64, "");
    report.put("core.lp_reprobes", s.reprobes as f64, "");
    report.put("core.lp_reprobe_hits", s.reprobe_hits as f64, "");
    report.put(
        "core.lp_useful_ratio",
        s.cliques_added as f64 / s.heap_pops.max(1) as f64,
        format!("{} added / {} pops", s.cliques_added, s.heap_pops),
    );
    report.put(
        "trace.lp_overhead_ms",
        lp - untraced_lp_ms,
        format!("traced {lp:.1} - untraced {untraced_lp_ms:.1}"),
    );
}

/// Bytes per MiB.
pub const MIB: f64 = 1024.0 * 1024.0;
