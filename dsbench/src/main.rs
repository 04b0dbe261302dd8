//! `dsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!          [--work <dir>] [--scale <x>]`
//!
//! Runs one workload and prints one line per metric, then the result as
//! one JSON object on the last line. Exits nonzero when a correctness
//! check fails or the run cannot complete.

use dsbench::report::{END_TO_END, PER_LAYER};
use dsbench::{Config, Workload};
use std::path::PathBuf;

#[global_allocator]
static ALLOC: dkc_bench::mem::TrackingAllocator = dkc_bench::mem::TrackingAllocator;

fn usage() -> ! {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: dsbench --workload <{}> --seed N --seconds S --trace 0|1 [--work DIR] [--scale X]",
        names.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut cfg = Config {
        workload: Workload::Solve,
        seed: 42,
        seconds: 6.0,
        trace: false,
        scale: 1.0,
        work: PathBuf::from(".dsbench"),
    };
    let mut workload = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).unwrap_or_else(|| usage())),
            "--seed" => cfg.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => cfg.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--work" => cfg.work = PathBuf::from(value),
            "--scale" => cfg.scale = value.parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    if !(cfg.seconds > 0.0 && cfg.scale > 0.0 && cfg.scale <= 1.0) {
        usage();
    }
    cfg.workload = workload.unwrap_or_else(|| usage());
    let report = match dsbench::run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dsbench: {} failed: {e}", cfg.workload.name());
            std::process::exit(1);
        }
    };
    print!("{}", report.render_text());
    println!("{}", report.render_json(if cfg.trace { PER_LAYER } else { END_TO_END }));
    if !report.correct() {
        std::process::exit(1);
    }
}
