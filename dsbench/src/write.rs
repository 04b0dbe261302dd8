//! The write phase: a durable server (journal `fdatasync` per batch) on
//! G′, a closed-loop writer sending the mixed stream in batches of
//! [`BATCH`], an open-loop reader sending `group_of` lookups (and `stats`
//! every 16th request) on a fixed schedule, and restarts from the state
//! directory whose epoch, `stats` and `solution` must match byte for byte.
//! The server, its traffic and its restarts carry over the run's rounds.

use crate::report::Report;
use crate::server::{
    self, durable_stats, member_u64, solution_request, stats_request, verify_solution, Running,
};
use crate::stats::median;
use crate::trace::Tracer;
use crate::traffic::Traffic;
use crate::wire::{reply_ok, Conn, Schedule};
use crate::{ms, secs, settle, Rng, K, THREADS};
use dkc_bench::mem;
use dkc_core::{Algo, SolveRequest};
use dkc_dynamic::{DynamicSolver, EdgeUpdate, FsyncPolicy, LogRecord, ServingSolver, UpdateLog};
use dkc_graph::io::read_snapshot_path;
use dkc_graph::CsrGraph;
use dkc_serve::protocol::{render_query_request, render_update_request};
use dkc_serve::{Query, ServerConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Updates per client request.
pub const BATCH: usize = 8;
/// Writer requests before timing starts.
pub const WARMUP_BATCHES: usize = 16;
/// Writer requests at the start of each traffic call that are not timed.
const ROUND_WARMUP_BATCHES: usize = 2;
/// Reader requests at the start of each traffic call that are not timed.
const ROUND_WARMUP_LOOKUPS: usize = 16;
/// The reader's schedule: one request per period.
const LOOKUP_PERIOD: Duration = Duration::from_micros(1000);

/// What the write phase measured.
#[derive(Debug, Default)]
pub struct WriteOut {
    /// Serving-state creation until the first reply, s.
    pub setup_s: Vec<f64>,
    /// Restarts until the first reply, s.
    pub restore_s: Vec<f64>,
    /// Update request latencies, ms (untraced requests only).
    pub update_ms: Vec<f64>,
    /// Update request latencies with a client span around them, ms.
    pub traced_update_ms: Vec<f64>,
    /// Lookup latencies from their due time, µs.
    pub lookup_us: Vec<f64>,
    /// How late each lookup went out, ms.
    pub late_ms: Vec<f64>,
    /// Served |S| at the end.
    pub cliques: usize,
    /// Peak heap from the last creation to the end of the warm-up, bytes.
    pub peak_bytes: usize,
    /// Epochs per update request.
    pub epochs_per_request: f64,
    /// The final `stats` body.
    pub stats_body: String,
}

/// The durable server's settings: the `dkc serve` defaults with a
/// journal forced to disk after every batch.
pub fn config() -> ServerConfig {
    ServerConfig { fsync: FsyncPolicy::PerCommit, ..ServerConfig::default() }
}

fn request() -> SolveRequest {
    SolveRequest::new(Algo::Lp, K).with_threads(THREADS)
}

/// The write phase across a run's rounds.
pub struct Write {
    /// The benchmark's own copy of G′, for the replay check.
    g: CsrGraph,
    traffic: Traffic,
    state: PathBuf,
    running: Option<Running>,
    seed: u64,
    /// Traffic calls so far (seeds each call's lookup stream).
    calls: u64,
    /// Update requests sent so far, warm-up included.
    requests: u64,
    /// What the phase measured.
    pub out: WriteOut,
}

impl Write {
    /// `setups` timed creations of the durable server on G′ (the last one
    /// serves), then [`WARMUP_BATCHES`] untimed update requests. The peak
    /// heap is taken from the last creation to the end of the warm-up.
    pub fn new(
        gprime: &Path,
        stream: &[EdgeUpdate],
        state: &Path,
        setups: usize,
        seed: u64,
        tracer: &Tracer,
        report: &mut Report,
    ) -> std::io::Result<Write> {
        // Loaded before anything is timed.
        let g = read_snapshot_path(gprime).map_err(std::io::Error::other)?.graph;
        let traffic = Traffic::new(stream, &g);
        let mut w = Write {
            g,
            traffic,
            state: state.to_path_buf(),
            running: None,
            seed,
            calls: 0,
            requests: 0,
            out: WriteOut::default(),
        };
        let mut base = 0;
        for _ in 0..setups.max(1) {
            if let Some(r) = w.running.take() {
                server::stop(r)?;
            }
            base = mem::reset_peak();
            let t = Instant::now();
            let loaded = read_snapshot_path(gprime).map_err(std::io::Error::other)?;
            let serving = ServingSolver::create(state, &loaded.graph, request())
                .map_err(std::io::Error::other)?;
            drop(loaded);
            let (r, _) = server::start(serving, config())?;
            w.out.setup_s.push(secs(t));
            report.op(true);
            settle(state)?;
            w.running = Some(r);
        }
        w.traffic(WARMUP_BATCHES, false, tracer, report)?;
        w.out.peak_bytes = mem::peak_bytes().saturating_sub(base);
        Ok(w)
    }

    /// Update requests from the closed-loop writer while the open-loop
    /// reader sends lookups on its schedule. A timed call first sends
    /// [`ROUND_WARMUP_BATCHES`] untimed requests, then `batches` timed
    /// ones, and leaves out its first [`ROUND_WARMUP_LOOKUPS`] lookups:
    /// each call opens fresh connections, after a restart to a fresh
    /// server. An untimed call sends `batches` requests.
    pub fn traffic(
        &mut self,
        batches: usize,
        timed: bool,
        tracer: &Tracer,
        report: &mut Report,
    ) -> std::io::Result<()> {
        let addr = self.running.as_ref().expect("server running").addr;
        let num_nodes = self.g.num_nodes() as u64;
        let first_request = self.requests;
        let warm = if timed { ROUND_WARMUP_BATCHES } else { 0 };
        let batches = warm + batches;
        let lookup_seed = self.seed ^ 0x100C ^ (self.calls << 32);
        self.calls += 1;
        let done = AtomicBool::new(false);
        let traffic = &mut self.traffic;
        let (writer, reader) = std::thread::scope(|s| {
            let done = &done;
            let writer = s.spawn(move || -> std::io::Result<(Vec<f64>, Vec<f64>, u64)> {
                let mut conn = Conn::connect(addr)?;
                let (mut plain, mut traced) = (Vec::new(), Vec::new());
                let mut failed = 0;
                for i in 0..batches {
                    let batch = traffic.next_batch(BATCH);
                    let line = render_update_request(&batch);
                    let request = first_request + i as u64;
                    // In a traced run every other request carries a client
                    // span, so the two halves give the tracing overhead.
                    let spanned = tracer.enabled() && request.is_multiple_of(2);
                    let t = Instant::now();
                    let reply = if spanned {
                        tracer.span("wire.update", None, request, || {
                            conn.call(&line).map(str::to_string)
                        })
                    } else {
                        conn.call(&line).map(str::to_string)
                    };
                    let elapsed = ms(t);
                    let reply = reply.inspect_err(|_| done.store(true, Ordering::SeqCst))?;
                    if !reply_ok(&reply) || member_u64(&reply, &["applied"]) != Some(BATCH as u64) {
                        failed += 1;
                    }
                    if timed && i >= warm {
                        if spanned { &mut traced } else { &mut plain }.push(elapsed);
                    }
                }
                done.store(true, Ordering::SeqCst);
                Ok((plain, traced, failed))
            });
            let reader = s.spawn(move || -> std::io::Result<(Vec<f64>, Vec<f64>, u64, u64)> {
                let mut conn = Conn::connect(addr)?;
                let mut rng = Rng::new(lookup_seed);
                let schedule = Schedule::new(LOOKUP_PERIOD);
                let (mut lookups, mut late) = (Vec::new(), Vec::new());
                let (mut sent, mut failed) = (0u64, 0u64);
                while !done.load(Ordering::SeqCst) {
                    let line = if sent % 16 == 15 {
                        stats_request()
                    } else {
                        render_query_request(Query::GroupOf(rng.below(num_nodes) as u32))
                    };
                    let (reply, timed_at) = schedule.run(sent, || conn.call(&line).map(reply_ok));
                    if !reply? {
                        failed += 1;
                    }
                    if timed && sent as usize >= ROUND_WARMUP_LOOKUPS {
                        lookups.push(timed_at.latency_ns as f64 / 1e3);
                        late.push(timed_at.late_ns as f64 / 1e6);
                    }
                    sent += 1;
                }
                Ok((lookups, late, sent, failed))
            });
            (writer.join().expect("writer thread"), reader.join().expect("reader thread"))
        });
        let (plain, traced, write_failed) = writer?;
        let (lookups, late, sent, read_failed) = reader?;
        self.requests += batches as u64;
        report.ops(batches as u64 + sent, write_failed + read_failed);
        self.out.update_ms.extend(plain);
        self.out.traced_update_ms.extend(traced);
        self.out.lookup_us.extend(lookups);
        self.out.late_ms.extend(late);
        Ok(())
    }

    /// The served `stats` and `solution` bodies.
    fn bodies(&self) -> std::io::Result<(String, String)> {
        let mut conn = Conn::connect(self.running.as_ref().expect("server running").addr)?;
        let stats = conn.call(&stats_request())?.to_string();
        let solution = conn.call(&solution_request())?.to_string();
        Ok((stats, solution))
    }

    /// Stops the server and restarts it from the state directory, timed
    /// until the first reply. The restarted server must report the epoch,
    /// `stats` body and `solution` body it had before shutdown, byte for
    /// byte; it serves the following rounds.
    pub fn restart(&mut self, report: &mut Report) -> std::io::Result<()> {
        let (stats_body, solution_body) = self.bodies()?;
        let epoch = member_u64(&stats_body, &["epoch"]);
        server::stop(self.running.take().expect("server running"))?;
        settle(&self.state)?;
        let t = Instant::now();
        let restored = ServingSolver::restore(&self.state).map_err(std::io::Error::other)?;
        let (running, first) = server::start(restored, config())?;
        self.out.restore_s.push(secs(t));
        let again = Conn::connect(running.addr)?.call(&solution_request())?.to_string();
        self.running = Some(running);
        report.check(member_u64(&first, &["epoch"]) == epoch && epoch.is_some(), || {
            format!("restart epoch {:?}, before {epoch:?}", member_u64(&first, &["epoch"]))
        });
        report.check(durable_stats(&first) == durable_stats(&stats_body), || {
            format!(
                "restart stats differ:\n  {}\n  {}",
                durable_stats(&stats_body),
                durable_stats(&first)
            )
        });
        report.check(again == solution_body, || "restart solution body differs".into());
        Ok(())
    }

    /// Checks the final served solution against the benchmark's own replay
    /// of the traffic, stops the server and returns what was measured.
    pub fn finish(mut self, report: &mut Report) -> std::io::Result<WriteOut> {
        let (stats_body, solution_body) = self.bodies()?;
        let epoch = member_u64(&stats_body, &["epoch"]);
        self.out.epochs_per_request = epoch.unwrap_or(0) as f64 / self.requests.max(1) as f64;
        match verify_solution(&solution_body, K, &self.g, &self.traffic) {
            Ok(size) => {
                self.out.cliques = size;
                report.op(true);
            }
            Err(e) => report.check(false, || format!("write phase: {e}")),
        }
        server::stop(self.running.take().expect("server running"))?;
        settle(&self.state)?;
        self.out.stats_body = stats_body;
        Ok(self.out)
    }
}

/// The traced replay of the write path: the first `batches` batches of the
/// traffic run in-process through the public calls a served update makes,
/// in `ServingSolver::apply_grouped`'s order — journal append, `fdatasync`,
/// apply, publish — followed by a restore of the write phase's state
/// (index rebuild, journal replay). Reports the `dynamic.*` metrics and
/// the update-path shares of the `serve.*` metrics.
#[allow(clippy::too_many_arguments)]
pub fn trace(
    g: &CsrGraph,
    stream: &[EdgeUpdate],
    batches: usize,
    scratch: &Path,
    state: &Path,
    out: &WriteOut,
    tracer: &Tracer,
    report: &mut Report,
) -> std::io::Result<()> {
    let mut solver = tracer
        .span("dynamic.create", None, 0, || {
            let mut s = DynamicSolver::from_scratch(g, request());
            if let Ok(s) = &mut s {
                s.canonicalize();
            }
            s
        })
        .map_err(std::io::Error::other)?;
    let initial = solver.solution();
    std::fs::create_dir_all(scratch)?;
    let journal = scratch.join("trace.log");
    std::fs::remove_file(&journal).ok();
    let mut log = UpdateLog::open(&journal).map_err(std::io::Error::other)?;
    // Append flushes to the OS; the fdatasync is its own call (the two
    // halves of `FsyncPolicy::PerCommit`).
    log.set_policy(FsyncPolicy::PerBatch);
    let header = std::fs::metadata(&journal)?.len();
    let mut traffic = Traffic::new(stream, g);
    for i in 0..batches as u64 {
        let batch = traffic.next_batch(BATCH);
        let parent = tracer.start("dynamic.batch", None, i);
        let r = tracer.span("dynamic.journal", parent, i, || log.append_batch(batch.iter()));
        r.map_err(std::io::Error::other)?;
        tracer.span("dynamic.fsync", parent, i, || log.sync()).map_err(std::io::Error::other)?;
        tracer.span("dynamic.apply", parent, i, || solver.apply_batch(batch.iter().copied()));
        let view = tracer.span("dynamic.publish", parent, i, || solver.solution_view(i + 1));
        drop(view);
        tracer.finish(parent);
    }
    let journal_bytes =
        (std::fs::metadata(&journal)?.len() - header) as f64 / batches.max(1) as f64;

    // Restore decomposition on the write phase's own state directory.
    let restored = tracer.span("dynamic.restore_index", None, 0, || {
        DynamicSolver::from_solution_with_request(g, initial, request())
    });
    let mut restored = restored;
    let log_path = state.join("updates.0.log");
    tracer
        .span("dynamic.replay", None, 0, || -> Result<(), dkc_dynamic::LogError> {
            for record in UpdateLog::replay(&log_path)? {
                if let LogRecord::Batch(b) = record {
                    restored.apply_batch(b.iter().copied());
                }
            }
            Ok(())
        })
        .map_err(std::io::Error::other)?;

    let us =
        |name: &str| -> Vec<f64> { tracer.durations_ms(name).iter().map(|m| m * 1e3).collect() };
    let p50 = |name: &str| median(&us(name)).unwrap_or(0.0);
    let tail = |name: &str| crate::stats::tail(&us(name));
    let n = format!("{batches} batches of {BATCH}");
    report.put(
        "dynamic.create_ms",
        median(&tracer.durations_ms("dynamic.create")).unwrap_or(0.0),
        "",
    );
    report.put("dynamic.journal_p50_us", p50("dynamic.journal"), n.clone());
    report.put("dynamic.journal_bytes", journal_bytes, "per batch record");
    report.put("dynamic.fsync_p50_us", p50("dynamic.fsync"), n.clone());
    crate::put_tail(report, "dynamic.fsync_p99_us", tail("dynamic.fsync"));
    report.put("dynamic.apply_p50_us", p50("dynamic.apply"), n.clone());
    crate::put_tail(report, "dynamic.apply_p99_us", tail("dynamic.apply"));
    report.put("dynamic.publish_p50_us", p50("dynamic.publish"), n.clone());
    crate::put_tail(report, "dynamic.publish_p99_us", tail("dynamic.publish"));
    let counter = |key: &str| member_u64(&out.stats_body, &["stats", key]).unwrap_or(0) as f64;
    for (metric, key) in [
        ("dynamic.swaps_attempted", "swaps_attempted"),
        ("dynamic.swaps_applied", "swaps_applied"),
        ("dynamic.cliques_added", "cliques_added"),
        ("dynamic.cliques_removed", "cliques_removed"),
    ] {
        report.put(metric, counter(key), "served stats at the end of the write phase");
    }
    report.put(
        "dynamic.restore_index_ms",
        median(&tracer.durations_ms("dynamic.restore_index")).unwrap_or(0.0),
        "",
    );
    report.put(
        "dynamic.replay_ms",
        median(&tracer.durations_ms("dynamic.replay")).unwrap_or(0.0),
        "",
    );
    report.put("serve.epochs", out.epochs_per_request, "epochs per update request");
    let update_us = median(&out.update_ms).unwrap_or(0.0) * 1e3;
    let layers = p50("dynamic.journal")
        + p50("dynamic.fsync")
        + p50("dynamic.apply")
        + p50("dynamic.publish");
    report.put(
        "serve.update_wait_us",
        update_us - layers,
        format!("update p50 {update_us:.0} - layer p50s {layers:.0}"),
    );
    crate::put_tail(report, "serve.gen_late_p99_ms", crate::stats::tail(&out.late_ms));
    let n = format!("n={}, timed from due", out.lookup_us.len());
    report.put("serve.write_lookup_p50_us", median(&out.lookup_us).unwrap_or(0.0), n);
    crate::put_tail(report, "serve.write_lookup_p99_us", crate::stats::tail(&out.lookup_us));
    let traced = median(&out.traced_update_ms).unwrap_or(0.0);
    let plain = median(&out.update_ms).unwrap_or(0.0);
    report.put(
        "trace.update_p50_overhead_ms",
        traced - plain,
        format!("traced {traced:.3} - untraced {plain:.3}"),
    );
    std::fs::remove_file(&journal).ok();
    Ok(())
}
