//! DS-scale benchmark of the disjoint k-clique workspace.
//!
//! One run is one process and one workload. Every run exercises the same
//! three phases on inputs generated from its seed:
//!
//! 1. **solve** — load the DS snapshot, then alternate LP and GC solves
//!    ([`solve`]);
//! 2. **write** — a durable server on G′ under a closed-loop writer and an
//!    open-loop reader, with restarts from its state directory ([`write`]);
//! 3. **read** — an in-memory server on DS under two closed-loop readers
//!    ([`read`]).
//!
//! Each phase is set up once (its setup repeated when it is the heavy
//! one) and warmed up; then the run goes through [`ROUNDS`] rounds, each
//! doing a share of every phase's timed work. A metric's samples are so
//! spread over the whole run rather than bunched in a few seconds of it,
//! and a slow spell of the machine weighs on every metric a little
//! instead of on one metric a lot. The workload decides which phase is
//! *heavy*: it gets `--seconds` of extra timed work, the others a small
//! fixed dose, so every run reports every end-to-end metric and each
//! layer does most of its work in one workload and little in the others.
//! See `README.md` next to this crate for the metric map.

pub mod calib;
pub mod inputs;
pub mod read;
pub mod report;
pub mod server;
pub mod solve;
pub mod stats;
pub mod trace;
pub mod traffic;
pub mod wire;
pub mod write;

use report::{Report, END_TO_END, PER_LAYER};
use stats::{median, Tail};
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// Clique size of every solve.
pub const K: usize = 4;
/// Solver threads (the machine budget is two cores).
pub const THREADS: usize = 2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Static LP against GC.
    Solve,
    /// Durable serving under update traffic.
    Write,
    /// In-memory serving under read traffic.
    Read,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 3] = [Workload::Solve, Workload::Write, Workload::Read];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Solve => "solve-ds-k4",
            Workload::Write => "serve-write-ds-k4",
            Workload::Read => "serve-read-ds-k4",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which phase is heavy.
    pub workload: Workload,
    /// Input and traffic seed.
    pub seed: u64,
    /// Time budget of the heavy phase, s.
    pub seconds: f64,
    /// Traced run: record spans and report per-layer metrics.
    pub trace: bool,
    /// Dataset scale (1.0 = DS size; tests use tiny scales).
    pub scale: f64,
    /// Directory for cached inputs, server state and traces.
    pub work: PathBuf,
}

/// End-to-end metrics reported at the reference speed (see [`calib`]):
/// the CPU-bound ones, each with the per-layer name of its raw value. Lookup
/// latencies are bound by thread wake-ups, which the probe does not
/// follow, and stay raw.
pub const AT_REFERENCE_SPEED: [(&str, &str); 9] = [
    ("setup_s", "raw.setup_s"),
    ("restore_s", "raw.restore_s"),
    ("lp_ms", "raw.lp_ms"),
    ("gc_ms", "raw.gc_ms"),
    ("update_p50_ms", "raw.update_p50_ms"),
    ("update_p99_ms", "raw.update_p99_ms"),
    ("solution_p50_ms", "raw.solution_p50_ms"),
    ("solution_p99_ms", "raw.solution_p99_ms"),
    ("ops_per_s", "raw.ops_per_s"),
];

/// Rounds a run's timed work is spread over.
pub const ROUNDS: usize = 6;

/// How much each phase does in a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Snapshot loads timed in the solve phase after the first.
    pub loads: usize,
    /// Timed LP/GC pairs after the warm-up pair.
    pub pairs: usize,
    /// Timed creations of the durable server.
    pub write_setups: usize,
    /// Timed update requests after the warm-up.
    pub batches: usize,
    /// Timed restarts of the durable server.
    pub restarts: usize,
    /// Timed creations of the in-memory server.
    pub read_setups: usize,
    /// Timed operations of reader client A after the warm-up.
    pub read_ops: usize,
}

/// Light doses: enough samples for a median and a tail, little time.
const LIGHT: Plan = Plan {
    loads: 0,
    pairs: 3,
    write_setups: 1,
    batches: 360,
    restarts: ROUNDS,
    read_setups: 1,
    read_ops: 6144,
};
/// Setups repeated in the heavy phase (`setup_s` is their median).
const HEAVY_SETUPS: usize = 2;
/// Nominal costs that turn the time budget into fixed work counts, so a
/// run with a given seed and budget always does the same operations.
const PAIR_S: f64 = 2.2;
const BATCHES_PER_S: f64 = 80.0;
/// Client A's rate: a render-on-miss after each update dominates it.
const READ_OPS_PER_S: f64 = 3000.0;

impl Plan {
    /// The plan of `workload`: the light doses plus `seconds` of timed
    /// work for its heavy phase.
    pub fn of(workload: Workload, seconds: f64) -> Plan {
        let mut p = LIGHT;
        match workload {
            Workload::Solve => {
                p.loads = 2 * ROUNDS;
                p.pairs += (seconds / PAIR_S).round() as usize;
            }
            Workload::Write => {
                p.write_setups = HEAVY_SETUPS;
                p.batches += (seconds * BATCHES_PER_S) as usize;
            }
            Workload::Read => {
                p.read_setups = HEAVY_SETUPS;
                p.read_ops += (seconds * READ_OPS_PER_S) as usize;
            }
        }
        p
    }
}

/// Round `round`'s share of `total` units of work spread evenly over
/// [`ROUNDS`] rounds (the shares add up to `total`).
pub fn share(total: usize, round: usize) -> usize {
    (round + 1) * total / ROUNDS - round * total / ROUNDS
}

/// Milliseconds since `t`.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Small deterministic generator (SplitMix64) for request streams.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Records a tail metric with its percentile and sample count, or a
/// failed check when there are too few samples for one.
pub fn put_tail(report: &mut Report, name: &'static str, tail: Option<Tail>) {
    match tail {
        Some(t) => report.put(name, t.value, format!("p{} of n={}", t.pct, t.n)),
        None => report.check(false, || format!("{name}: fewer than 20 samples")),
    }
}

fn put_median(report: &mut Report, name: &'static str, samples: &[f64]) {
    match median(samples) {
        Some(v) => report.put(name, v, format!("median of n={}", samples.len())),
        None => report.check(false, || format!("{name}: no samples")),
    }
}

/// Forces every file under `dir` to disk. Called outside the timed
/// regions, after the benchmark or the server wrote files: dirty pages
/// left behind are written back about 30 s later, in the middle of some
/// later timed region, and a journal `fdatasync` issued then waits behind
/// that writeback (it moved the update tail by up to 2× between runs).
pub fn settle(dir: &std::path::Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_dir() {
            settle(&entry.path())?;
        } else {
            std::fs::File::open(entry.path())?.sync_all()?;
        }
    }
    Ok(())
}

/// Runs one workload and returns its report. Input generation happens
/// before anything is timed.
pub fn run(cfg: &Config) -> std::io::Result<Report> {
    let inputs = inputs::prepare(&cfg.work.join("inputs"), cfg.scale, cfg.seed)?;
    settle(&cfg.work)?;
    // Each process has its own state directory, removed at the end, so a
    // run never restores another run's files.
    let state = cfg.work.join("state").join(std::process::id().to_string());
    let plan = Plan::of(cfg.workload, cfg.seconds);
    let tracer = Tracer::new(cfg.trace);
    let mut report = Report::default();
    let heavy = cfg.workload;

    let mut solve = solve::Solve::new(&inputs.ds, &mut report)?;
    let mut write = write::Write::new(
        &inputs.gprime,
        &inputs.updates,
        &state.join("write"),
        plan.write_setups,
        cfg.seed,
        &tracer,
        &mut report,
    )?;
    let mut read = read::Read::new(
        &inputs.ds,
        &inputs.updates,
        plan.read_setups,
        cfg.seed,
        &tracer,
        &mut report,
    )?;
    // The probe runs between the phases, while the servers are idle; a
    // sample during which they were not is dropped and taken again once
    // they have stopped.
    let mut probe = calib::Probe::new();
    for round in 0..ROUNDS {
        probe.sample();
        for _ in 0..share(plan.loads, round) {
            solve.load()?;
        }
        for _ in 0..share(plan.pairs, round) {
            solve.pair(true, &mut report);
        }
        probe.sample();
        write.traffic(share(plan.batches, round), true, &tracer, &mut report)?;
        for _ in 0..share(plan.restarts, round) {
            write.restart(&mut report)?;
        }
        probe.sample();
        read.traffic(share(plan.read_ops, round), true, &tracer, &mut report)?;
        probe.sample();
    }
    let written = write.finish(&mut report)?;
    let read = read.finish(&mut report)?;
    probe.fill();
    let solved = &solve.out;

    let (setup, cliques, peak) = match heavy {
        Workload::Solve => (&solved.load_s, solved.cliques, solved.peak_bytes),
        Workload::Write => (&written.setup_s, written.cliques, written.peak_bytes),
        Workload::Read => (&read.setup_s, read.cliques, read.peak_bytes),
    };
    put_median(&mut report, "setup_s", setup);
    put_median(&mut report, "restore_s", &written.restore_s);
    put_median(&mut report, "lp_ms", &solved.lp_ms);
    put_median(&mut report, "gc_ms", &solved.gc_ms);
    put_median(&mut report, "update_p50_ms", &written.update_ms);
    put_tail(&mut report, "update_p99_ms", stats::tail(&written.update_ms));
    put_median(&mut report, "solution_p50_ms", &read.solution_ms);
    put_tail(&mut report, "solution_p99_ms", stats::tail(&read.solution_ms));
    report.put("ops_per_s", read.ops_per_s, "client A");
    let slowdown = probe.slowdown();
    let mut raw = Vec::new();
    for m in report.metrics.iter_mut() {
        let Some(&(_, raw_name)) = AT_REFERENCE_SPEED.iter().find(|(n, _)| *n == m.name) else {
            continue;
        };
        raw.push((raw_name, m.value, m.note.clone()));
        // Times shrink on a faster machine, rates grow.
        if m.unit == "ops/s" {
            m.value *= slowdown;
        } else {
            m.value /= slowdown;
        }
        m.note = format!("at the reference speed, {}", m.note);
    }
    for (name, value, note) in raw {
        report.put(name, value, note);
    }
    report.put(
        "calib.probe_ms",
        probe.median_ms().unwrap_or(0.0),
        format!(
            "median of {}, {} retaken after the servers stopped, nominal {}",
            probe.samples.len(),
            probe.dropped,
            calib::NOMINAL_MS
        ),
    );
    put_median(&mut report, "lookup_p50_us", &read.lookup_us);
    put_tail(&mut report, "lookup_p99_us", stats::tail(&read.lookup_us));
    report.put("cliques", cliques as f64, "");
    report.put("peak_mb", peak as f64 / solve::MIB, "heap above the loaded inputs");

    if cfg.trace {
        let load_ms = median(&solved.load_s).unwrap_or(0.0) * 1e3;
        let lp_ms = median(&solved.lp_ms).unwrap_or(0.0);
        solve::trace(solve.graph(), 3, load_ms, lp_ms, &tracer, &mut report);
        let gprime =
            dkc_graph::io::read_snapshot_path(&inputs.gprime).map_err(std::io::Error::other)?.graph;
        let replay = plan.batches.min(400);
        write::trace(
            &gprime,
            &inputs.updates,
            replay,
            &state.join("trace"),
            &state.join("write"),
            &written,
            &tracer,
            &mut report,
        )?;
        read::trace(&read, cfg.seed, &tracer, &mut report);
        let dir = cfg.work.join("traces");
        std::fs::create_dir_all(&dir)?;
        std::fs::write(
            dir.join(format!("{}-seed{}.jsonl", heavy.name(), cfg.seed)),
            tracer.render(),
        )?;
    }
    std::fs::remove_dir_all(&state)?;
    let ok = report.attempted.saturating_sub(report.failed) as f64 / report.attempted.max(1) as f64;
    report.put(
        "ok_frac",
        ok,
        format!("{} of {} operations", report.attempted - report.failed, report.attempted),
    );
    let wanted = if cfg.trace { PER_LAYER } else { END_TO_END };
    for name in report.missing(wanted) {
        report.check(false, || format!("metric {name} was not measured"));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(report::valid_name(w.name()));
        }
        assert_eq!(Workload::parse("serve-ds-k4"), None);
    }

    #[test]
    fn heavy_phase_gets_the_budget() {
        let s = Plan::of(Workload::Solve, 22.0);
        assert_eq!(
            (s.loads, s.pairs, s.batches, s.read_ops),
            (12, 13, LIGHT.batches, LIGHT.read_ops)
        );
        let w = Plan::of(Workload::Write, 8.0);
        assert_eq!(
            (w.loads, w.pairs, w.batches, w.write_setups),
            (0, LIGHT.pairs, 1000, HEAVY_SETUPS)
        );
        let r = Plan::of(Workload::Read, 8.0);
        assert_eq!((r.pairs, r.batches, r.read_ops), (LIGHT.pairs, LIGHT.batches, 30_144));
    }

    #[test]
    fn shares_spread_work_evenly_over_the_rounds() {
        for total in [0, 1, 3, 4, 7, 360, 30_144] {
            let shares: Vec<usize> = (0..ROUNDS).map(|r| share(total, r)).collect();
            assert_eq!(shares.iter().sum::<usize>(), total);
            assert!(shares.iter().max().unwrap() - shares.iter().min().unwrap() <= 1);
        }
        // Three pairs over six rounds: every other round.
        assert_eq!((0..ROUNDS).map(|r| share(3, r)).collect::<Vec<_>>(), [0, 1, 0, 1, 0, 1]);
    }

    /// A tiny-scale run of each workload, untraced and traced, emits every
    /// metric and passes every check.
    #[test]
    fn tiny_runs_emit_every_metric() {
        let work = std::env::temp_dir().join(format!("dsbench-smoke-{}", std::process::id()));
        for workload in Workload::ALL {
            for trace in [false, true] {
                let cfg = Config {
                    workload,
                    seed: 3,
                    seconds: 0.2,
                    trace,
                    scale: 0.004,
                    work: work.clone(),
                };
                let report = run(&cfg).unwrap();
                assert!(report.correct(), "{} trace={trace}: {:?}", workload.name(), report.errors);
                let wanted = if trace { PER_LAYER } else { END_TO_END };
                assert_eq!(report.missing(wanted), Vec::<String>::new());
                let line = report.render_json(wanted);
                for (name, unit) in wanted {
                    assert!(line.contains(&format!(r#""{name}":{{"value":"#)), "{name} missing");
                    assert!(line.contains(&format!(r#""unit":"{unit}""#)));
                }
            }
        }
        std::fs::remove_dir_all(&work).ok();
    }
}
