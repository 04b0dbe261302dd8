//! The machine-speed reference.
//!
//! The development machine is a 2-vCPU guest on a shared host, and the
//! host's speed drifts over minutes: every CPU-bound operation of a run
//! gets slower or faster together, by a tenth to a quarter between runs a
//! few minutes apart, which no in-run median takes out. So every run also
//! times a fixed reference computation that uses no workspace code,
//! [`SAMPLES`] times spread over its rounds, and the CPU-bound end-to-end
//! times are reported at the reference speed:
//! `raw × NOMINAL_MS / median probe time`.
//!
//! A sample counts only if no other thread of the process ran meanwhile:
//! the CPU time of every thread is read from `/proc` before and after it,
//! and a sample during which the idle servers used more than
//! [`IDLE_CPU_NS`] is dropped. Dropped samples are taken again after the
//! last server has stopped and been joined. So a change to the program,
//! even one that gives an idle server background work, cannot slow the
//! probe: it moves the program's times and not the probe's, and shows in
//! full. A slow spell of the host moves both and cancels.

use crate::stats::median;
use crate::Rng;
use std::collections::HashMap;
use std::ffi::OsString;
use std::time::Instant;

/// Nodes of the chased permutation: 8M × 4 bytes, far beyond the caches.
const CHAIN: usize = 1 << 23;
/// Pointer-chasing steps per thread and sample.
const STEPS: usize = 1 << 18;
/// Keys sorted per thread and sample.
const KEYS: usize = 1 << 16;
/// Probe samples per run: four per round.
pub const SAMPLES: usize = 4 * crate::ROUNDS;
/// CPU time the rest of the process may use during a sample, ns. An idle
/// server's periodic wake-ups cost microseconds.
pub const IDLE_CPU_NS: u64 = 1_000_000;
/// The probe's median time the reported times are scaled to, ms (about
/// its median on the development machine).
pub const NOMINAL_MS: f64 = 40.0;

/// The reference computation and its timings.
pub struct Probe {
    chain: Vec<u32>,
    keys: Vec<u32>,
    /// Wall time of each kept sample, ms.
    pub samples: Vec<f64>,
    /// Samples dropped because another thread of the process ran.
    pub dropped: usize,
}

impl Probe {
    /// Builds the fixed inputs, the same on every run.
    pub(crate) fn new() -> Probe {
        let mut rng = Rng::new(0xCA11_B8A7);
        // One cycle through every node (Sattolo's shuffle).
        let mut order: Vec<u32> = (0..CHAIN as u32).collect();
        for i in (1..CHAIN).rev() {
            order.swap(i, rng.below(i as u64) as usize);
        }
        let mut chain = vec![0u32; CHAIN];
        for i in 0..CHAIN {
            chain[order[i] as usize] = order[(i + 1) % CHAIN];
        }
        let keys = (0..KEYS).map(|_| rng.next_u64() as u32).collect();
        Probe { chain, keys, samples: Vec::new(), dropped: 0 }
    }

    /// Memory-latency-bound pointer chasing, then a branchy sort: the two
    /// kinds of work the solvers and the serving path spend their time on.
    fn work(&self, start: u32) -> u64 {
        let mut at = start;
        for _ in 0..STEPS {
            at = self.chain[at as usize];
        }
        let mut keys = self.keys.clone();
        keys.sort_unstable();
        u64::from(at) + u64::from(keys[KEYS / 2])
    }

    /// The reference work on two threads at once, as the solvers run.
    /// Returns its wall time, ms, and the helper thread's id.
    fn time(&self) -> (f64, Option<OsString>) {
        let t = Instant::now();
        let (sum, helper) = std::thread::scope(|s| {
            let other = s.spawn(|| (self.work(1), thread_id()));
            let mine = self.work(0);
            let (theirs, helper) = other.join().expect("probe thread");
            (mine + theirs, helper)
        });
        std::hint::black_box(sum);
        (crate::ms(t), helper)
    }

    /// Takes one sample while the servers are up and idle. It is kept only
    /// when the other threads of the process used at most
    /// [`IDLE_CPU_NS`] of CPU meanwhile (never when `/proc` cannot tell).
    pub fn sample(&mut self) {
        let before = threads_cpu_ns();
        let (ms, helper) = self.time();
        let busy = match (before, threads_cpu_ns(), thread_id()) {
            (Some(before), Some(after), Some(me)) => Some(
                after
                    .iter()
                    .filter(|(tid, _)| **tid != me && Some(*tid) != helper.as_ref())
                    .map(|(tid, ns)| ns.saturating_sub(before.get(tid).copied().unwrap_or(0)))
                    .sum::<u64>(),
            ),
            _ => None,
        };
        if busy.is_some_and(|ns| ns <= IDLE_CPU_NS) {
            self.samples.push(ms);
        } else {
            self.dropped += 1;
        }
    }

    /// Tops the samples up to [`SAMPLES`]. Called after every server has
    /// stopped, when no other thread of the process exists.
    pub fn fill(&mut self) {
        while self.samples.len() < SAMPLES {
            let (ms, _) = self.time();
            self.samples.push(ms);
        }
    }

    /// Median sample, ms.
    pub fn median_ms(&self) -> Option<f64> {
        median(&self.samples)
    }

    /// The factor raw times are divided by: how much slower than nominal
    /// the machine ran (1.0 when nothing was sampled).
    pub fn slowdown(&self) -> f64 {
        self.median_ms().map_or(1.0, |m| m / NOMINAL_MS)
    }
}

/// The calling thread's id, from `/proc/thread-self`.
fn thread_id() -> Option<OsString> {
    Some(std::fs::read_link("/proc/thread-self").ok()?.file_name()?.to_owned())
}

/// CPU time each thread of this process has used so far, ns, keyed by
/// thread id (`/proc/self/task/*/schedstat`). `None` where the kernel does
/// not expose it.
fn threads_cpu_ns() -> Option<HashMap<OsString, u64>> {
    let mut cpu = HashMap::new();
    for entry in std::fs::read_dir("/proc/self/task").ok()? {
        let entry = entry.ok()?;
        // A thread that exits meanwhile has no file left; it ran before.
        let Ok(stat) = std::fs::read_to_string(entry.path().join("schedstat")) else { continue };
        cpu.insert(entry.file_name(), stat.split_whitespace().next()?.parse().ok()?);
    }
    Some(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_is_one_cycle_and_slowdown_is_relative_to_nominal() {
        let p = Probe::new();
        let (mut at, mut steps) = (0u32, 0usize);
        loop {
            at = p.chain[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, CHAIN);
        let mut p = Probe { samples: vec![50.0, 60.0, 80.0], ..p };
        assert_eq!(p.slowdown(), 60.0 / NOMINAL_MS);
        p.samples.clear();
        assert_eq!(p.slowdown(), 1.0);
    }

    #[test]
    fn samples_are_dropped_while_another_thread_runs() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let mut p = Probe::new();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
            p.sample();
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!((p.samples.len(), p.dropped), (0, 1));
        p.fill();
        assert_eq!(p.samples.len(), SAMPLES);
        assert!(p.samples.iter().all(|&ms| ms > 0.0));
    }
}
