//! The read phase: an in-memory server on DS and two closed-loop reader
//! connections. Client A sends `group_of` lookups, `stats` on average
//! every 16th request, the full `solution` every 32nd and one update batch
//! every [`UPDATE_EVERY`] operations; client B sends lookups and `stats`
//! until A is done. A alone writes and reads the full solution, so the
//! update order, and with it every reply-cache miss (the first `solution`
//! after an update renders the body, the later ones are served from the
//! cache), is a function of the seed. When both clients also sent
//! `solution`, whether B's request landed in A's render-on-miss window
//! was decided by timing, and the number of renders, which dominates the
//! phase's time, moved by up to half between runs of the same seed.
//! The server and both clients' request streams carry over the run's
//! rounds.

use crate::report::Report;
use crate::server::{self, member_u64, solution_request, stats_request, verify_solution, Running};
use crate::stats::median;
use crate::trace::Tracer;
use crate::traffic::Traffic;
use crate::wire::{reply_ok, Conn};
use crate::write::BATCH;
use crate::{ms, secs, Rng, K, THREADS};
use dkc_bench::mem;
use dkc_core::{Algo, SolveRequest};
use dkc_dynamic::{EdgeUpdate, ServingSolver, SolutionView};
use dkc_graph::io::read_snapshot_path;
use dkc_graph::CsrGraph;
use dkc_serve::protocol::{
    group_of_reply, parse_request, render_query_request, render_update_request, solution_reply,
};
use dkc_serve::{Query, ServerConfig};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Client A sends one update batch per this many operations.
pub const UPDATE_EVERY: usize = 256;
/// Operations of client A before timing starts.
pub const WARMUP_OPS: usize = 256;

/// What the read phase measured.
#[derive(Debug, Default)]
pub struct ReadOut {
    /// Serving-state creation until the first reply, s.
    pub setup_s: Vec<f64>,
    /// `group_of` / `stats` latencies, µs.
    pub lookup_us: Vec<f64>,
    /// `solution` latencies, ms.
    pub solution_ms: Vec<f64>,
    /// Client A's timed requests per second.
    pub ops_per_s: f64,
    /// Served |S| at the end.
    pub cliques: usize,
    /// Peak heap from the last creation to the end of the warm-up, bytes.
    pub peak_bytes: usize,
    /// Reply-cache hits and misses read from `stats` at the end.
    pub cache: (u64, u64),
    /// The epoch-0 view, kept in a traced run for the render replay.
    pub view: Option<Arc<SolutionView>>,
}

#[derive(Default)]
struct ClientOut {
    lookup_us: Vec<f64>,
    solution_ms: Vec<f64>,
    update_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl ClientOut {
    /// Sends `line`, checks the reply for its kind and, when `timed`,
    /// records the latency.
    fn call(
        &mut self,
        conn: &mut Conn,
        kind: Kind,
        line: &str,
        timed: bool,
        tracer: &Tracer,
        request: u64,
    ) -> std::io::Result<()> {
        let t = Instant::now();
        let ok = tracer.span(kind.span(), None, request, || {
            conn.call(line).map(|r| {
                reply_ok(r)
                    && match kind {
                        Kind::Update => member_u64(r, &["applied"]) == Some(BATCH as u64),
                        Kind::Solution => r.contains(r#""cliques":"#),
                        Kind::Lookup => true,
                    }
            })
        })?;
        let elapsed = ms(t);
        self.attempted += 1;
        self.failed += u64::from(!ok);
        if timed {
            match kind {
                Kind::Update => self.update_ms.push(elapsed),
                Kind::Solution => self.solution_ms.push(elapsed),
                Kind::Lookup => self.lookup_us.push(elapsed * 1e3),
            }
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Lookup,
    Solution,
    Update,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Update => "wire.update",
            Kind::Solution => "wire.solution",
            Kind::Lookup => "wire.lookup",
        }
    }
}

/// A `group_of` on a random node, or `stats` one time in 16.
fn lookup(rng: &mut Rng, num_nodes: u64) -> String {
    if rng.below(16) == 0 {
        stats_request()
    } else {
        render_query_request(Query::GroupOf(rng.below(num_nodes) as u32))
    }
}

/// The read phase across a run's rounds.
pub struct Read {
    /// The benchmark's own copy of DS, for the replay check.
    g: CsrGraph,
    traffic: Traffic,
    running: Running,
    rng_a: Rng,
    rng_b: Rng,
    /// Client A's operations so far, warm-up included.
    ops_a: usize,
    /// Client B's operations so far.
    ops_b: u64,
    /// Client A's timed requests and the time it spent on them, s. B's
    /// requests load the server alongside but are not counted: their
    /// number is set by thread wake-ups on the loopback path, which moved
    /// it by a quartile spread of up to 0.23 between runs of the same code.
    timed_ops: usize,
    timed_s: f64,
    /// What the phase measured.
    pub out: ReadOut,
}

impl Read {
    /// `setups` timed creations of the in-memory server on DS (the last
    /// one serves), then [`WARMUP_OPS`] untimed operations of client A.
    /// The peak heap is taken from the last creation to the end of the
    /// warm-up.
    pub fn new(
        ds: &Path,
        stream: &[EdgeUpdate],
        setups: usize,
        seed: u64,
        tracer: &Tracer,
        report: &mut Report,
    ) -> std::io::Result<Read> {
        let g = read_snapshot_path(ds).map_err(std::io::Error::other)?.graph;
        let mut out = ReadOut::default();
        let mut running = None;
        let mut base = 0;
        for _ in 0..setups.max(1) {
            if let Some(r) = running.take() {
                server::stop(r)?;
            }
            base = mem::reset_peak();
            let t = Instant::now();
            let loaded = read_snapshot_path(ds).map_err(std::io::Error::other)?;
            let request = SolveRequest::new(Algo::Lp, K).with_threads(THREADS);
            let serving =
                ServingSolver::in_memory(&loaded.graph, request).map_err(std::io::Error::other)?;
            drop(loaded);
            if tracer.enabled() {
                out.view = Some(serving.view());
            }
            let (r, _) = server::start(serving, ServerConfig::default())?;
            out.setup_s.push(secs(t));
            report.op(true);
            running = Some(r);
        }
        let traffic = Traffic::new(stream, &g);
        let mut read = Read {
            g,
            traffic,
            running: running.expect("at least one setup"),
            rng_a: Rng::new(seed ^ 0x4EAD),
            rng_b: Rng::new(seed ^ 0x4EAE),
            ops_a: 0,
            ops_b: 0,
            timed_ops: 0,
            timed_s: 0.0,
            out,
        };
        read.traffic(WARMUP_OPS, false, tracer, report)?;
        read.out.peak_bytes = mem::peak_bytes().saturating_sub(base);
        Ok(read)
    }

    /// `ops` operations of client A while client B sends lookups until A
    /// is done; timed when `timed`.
    pub fn traffic(
        &mut self,
        ops: usize,
        timed: bool,
        tracer: &Tracer,
        report: &mut Report,
    ) -> std::io::Result<()> {
        let addr = self.running.addr;
        let num_nodes = self.g.num_nodes() as u64;
        let first = self.ops_a;
        let first_b = self.ops_b;
        let done = AtomicBool::new(false);
        let (traffic, rng_a, rng_b) = (&mut self.traffic, &mut self.rng_a, &mut self.rng_b);
        let (a, b) = std::thread::scope(|s| {
            let done = &done;
            let a = s.spawn(move || -> std::io::Result<(ClientOut, f64)> {
                let mut conn = Conn::connect(addr)?;
                let mut o = ClientOut::default();
                let start = Instant::now();
                let result = (first..first + ops).try_for_each(|i| {
                    // The kind of each request is drawn, not placed: 1 in 32
                    // `solution`, else a lookup (see [`lookup`]).
                    let (kind, line) = if i % UPDATE_EVERY == 0 {
                        (Kind::Update, render_update_request(&traffic.next_batch(BATCH)))
                    } else if rng_a.below(32) == 0 {
                        (Kind::Solution, solution_request())
                    } else {
                        (Kind::Lookup, lookup(rng_a, num_nodes))
                    };
                    o.call(&mut conn, kind, &line, timed, tracer, i as u64)
                });
                let elapsed = secs(start);
                done.store(true, Ordering::SeqCst);
                result.map(|()| (o, elapsed))
            });
            let b = s.spawn(move || -> std::io::Result<ClientOut> {
                let mut conn = Conn::connect(addr)?;
                let mut o = ClientOut::default();
                let mut i = first_b;
                // B is timed exactly while A is.
                while !done.load(Ordering::SeqCst) {
                    o.call(&mut conn, Kind::Lookup, &lookup(rng_b, num_nodes), timed, tracer, i)?;
                    i += 1;
                }
                Ok(o)
            });
            (a.join().expect("reader client A"), b.join().expect("reader client B"))
        });
        let ((a, elapsed), b) = (a?, b?);
        self.ops_a += ops;
        self.ops_b += b.attempted;
        if timed {
            self.timed_ops += a.lookup_us.len() + a.solution_ms.len() + a.update_ms.len();
            self.timed_s += elapsed;
        }
        for o in [a, b] {
            report.ops(o.attempted, o.failed);
            self.out.lookup_us.extend(o.lookup_us);
            self.out.solution_ms.extend(o.solution_ms);
        }
        Ok(())
    }

    /// Reads the reply-cache counters, checks the final served solution
    /// against the benchmark's own replay of the updates, stops the
    /// server and returns what was measured.
    pub fn finish(mut self, report: &mut Report) -> std::io::Result<ReadOut> {
        self.out.ops_per_s = self.timed_ops as f64 / self.timed_s.max(f64::MIN_POSITIVE);
        let mut conn = Conn::connect(self.running.addr)?;
        let stats_body = conn.call(&stats_request())?.to_string();
        self.out.cache = (
            member_u64(&stats_body, &["reply_cache", "hits"]).unwrap_or(0),
            member_u64(&stats_body, &["reply_cache", "misses"]).unwrap_or(0),
        );
        let solution_body = conn.call(&solution_request())?.to_string();
        drop(conn);
        match verify_solution(&solution_body, K, &self.g, &self.traffic) {
            Ok(size) => {
                self.out.cliques = size;
                report.op(true);
            }
            Err(e) => report.check(false, || format!("read phase: {e}")),
        }
        server::stop(self.running)?;
        Ok(self.out)
    }
}

/// The traced replay of the read path on the epoch-0 view: request
/// parsing, `group_of` rendering and full `solution` rendering, each
/// through the public `protocol` calls the reader workers make. Reports
/// the `serve.*` read-path metrics; the cache counters come from the
/// served run.
pub fn trace(out: &ReadOut, seed: u64, tracer: &Tracer, report: &mut Report) {
    let Some(view) = &out.view else { return };
    const CALLS: u64 = 2000;
    let mut rng = Rng::new(seed ^ 0x7ACE);
    for i in 0..CALLS {
        let node = rng.below(view.num_nodes() as u64) as u32;
        let line = render_query_request(Query::GroupOf(node));
        tracer.span("serve.parse", None, i, || parse_request(&line)).ok();
        tracer.span("serve.render_lookup", None, i, || group_of_reply(view, node).render());
    }
    let mut bytes = 0;
    for i in 0..3 {
        bytes =
            tracer.span("serve.render_solution", None, i, || solution_reply(view).render()).len();
    }
    let us = |name: &str| median(&tracer.durations_ms(name)).unwrap_or(0.0) * 1e3;
    report.put("serve.parse_us", us("serve.parse"), format!("median of {CALLS}"));
    report.put("serve.render_lookup_us", us("serve.render_lookup"), format!("median of {CALLS}"));
    report.put(
        "serve.render_solution_ms",
        median(&tracer.durations_ms("serve.render_solution")).unwrap_or(0.0),
        "median of 3",
    );
    report.put("serve.solution_bytes", bytes as f64, "");
    let (hits, misses) = out.cache;
    report.put("serve.cache_hits", hits as f64, "solution replies served from the cache");
    report.put("serve.cache_misses", misses as f64, "");
    report.put("serve.cache_hit_ratio", hits as f64 / (hits + misses).max(1) as f64, "");
}
