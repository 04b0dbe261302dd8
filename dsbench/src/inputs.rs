//! Seeded input generation, cached per seed and kept out of every timed
//! region.
//!
//! For a seed the benchmark writes, once:
//!
//! * `ds.dkcsr` — the DS stand-in (260K nodes, 2.15M edges at scale 1),
//!   taken through the text edge-list format and parsed back, exactly as
//!   `dkc gen DS` followed by `dkc convert` produces it (the parser numbers
//!   nodes by first appearance);
//! * `gprime.dkcsr` — G′, DS minus the insert half of the paper's mixed
//!   workload (Section VI-E);
//! * `updates.txt` — the mixed stream (re-insertions of G′'s missing edges
//!   interleaved with deletions), one `+ u v` / `- u v` per line.
//!
//! A `complete` marker is written last, so an interrupted generation is
//! redone rather than read. Only the [`KEEP_SEEDS`] most recently used
//! seeds stay cached.

use dkc_datagen::registry::DatasetId;
use dkc_datagen::workload::{paper_mixed_workload, Update};
use dkc_dynamic::EdgeUpdate;
use dkc_graph::io::{load_graph, write_edge_list_path, write_snapshot_path, LoadedGraph};
use dkc_par::ParConfig;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Seeds whose inputs stay on disk.
pub const KEEP_SEEDS: usize = 3;

/// Mixed-workload size per half at scale 1 (the paper's 10K + 10K).
const PAPER_UPDATES_EACH: usize = 10_000;

const MARKER: &str = "complete";

/// Paths of one seed's generated inputs plus the update stream.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The DS stand-in snapshot.
    pub ds: PathBuf,
    /// G′ snapshot.
    pub gprime: PathBuf,
    /// The mixed update stream, in order.
    pub updates: Vec<EdgeUpdate>,
}

/// Returns the inputs for `(scale, seed)` under `cache`, generating them
/// first when they are not cached.
pub fn prepare(cache: &Path, scale: f64, seed: u64) -> std::io::Result<Inputs> {
    let dir = cache.join(format!("ds-s{scale}-seed{seed}"));
    let inputs =
        Inputs { ds: dir.join("ds.dkcsr"), gprime: dir.join("gprime.dkcsr"), updates: Vec::new() };
    if !dir.join(MARKER).is_file() {
        generate(&dir, scale, seed).map_err(std::io::Error::other)?;
    }
    // Touch the marker: eviction keeps the most recently used seeds.
    std::fs::write(dir.join(MARKER), b"ok\n")?;
    evict(cache, KEEP_SEEDS)?;
    let updates = parse_updates(&std::fs::read_to_string(dir.join("updates.txt"))?)?;
    Ok(Inputs { updates, ..inputs })
}

fn generate(
    dir: &Path,
    scale: f64,
    seed: u64,
) -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    let text = dir.join("ds.txt");
    write_edge_list_path(&DatasetId::Ds.standin(scale, seed), &text)?;
    let (loaded, _) = load_graph(&text, ParConfig::new(2))?;
    std::fs::remove_file(&text)?;
    write_snapshot_path(&loaded, dir.join("ds.dkcsr"))?;

    let each = ((PAPER_UPDATES_EACH as f64 * scale).ceil() as usize).max(64);
    let (gprime, updates) = paper_mixed_workload(&loaded.graph, each, seed);
    write_snapshot_path(&LoadedGraph::identity(gprime), dir.join("gprime.dkcsr"))?;
    let mut out = std::io::BufWriter::new(std::fs::File::create(dir.join("updates.txt"))?);
    for u in updates {
        match u {
            Update::Insert(a, b) => writeln!(out, "+ {a} {b}")?,
            Update::Delete(a, b) => writeln!(out, "- {a} {b}")?,
        }
    }
    out.flush()?;
    Ok(())
}

fn parse_updates(text: &str) -> std::io::Result<Vec<EdgeUpdate>> {
    let bad = |line: &str| std::io::Error::other(format!("bad update line `{line}`"));
    text.lines()
        .map(|line| {
            let mut it = line.split_ascii_whitespace();
            let (op, a, b) = (it.next(), it.next(), it.next());
            let (Some(op), Some(a), Some(b)) = (op, a, b) else { return Err(bad(line)) };
            let (a, b) = (a.parse().map_err(|_| bad(line))?, b.parse().map_err(|_| bad(line))?);
            match op {
                "+" => Ok(EdgeUpdate::Insert(a, b)),
                "-" => Ok(EdgeUpdate::Delete(a, b)),
                _ => Err(bad(line)),
            }
        })
        .collect()
}

/// Removes all but the `keep` most recently used seed directories.
fn evict(cache: &Path, keep: usize) -> std::io::Result<()> {
    let mut dirs: Vec<(std::time::SystemTime, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(cache)? {
        let path = entry?.path();
        match std::fs::metadata(path.join(MARKER)).and_then(|m| m.modified()) {
            Ok(t) => dirs.push((t, path)),
            // Unfinished generations are not ours to keep.
            Err(_) if path.is_dir() => dirs.push((std::time::UNIX_EPOCH, path)),
            Err(_) => {}
        }
    }
    dirs.sort_unstable_by_key(|d| std::cmp::Reverse(d.0));
    for (_, path) in dirs.into_iter().skip(keep) {
        std::fs::remove_dir_all(path)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkc_graph::io::read_snapshot_path;

    #[test]
    fn inputs_are_cached_and_deterministic() {
        let cache = std::env::temp_dir().join(format!("dsbench-inputs-{}", std::process::id()));
        let a = prepare(&cache, 0.002, 7).unwrap();
        let ds = std::fs::read(&a.ds).unwrap();
        let b = prepare(&cache, 0.002, 7).unwrap();
        assert_eq!(ds, std::fs::read(&b.ds).unwrap());
        assert_eq!(a.updates, b.updates);
        let gp = read_snapshot_path(&a.gprime).unwrap().graph;
        let g = read_snapshot_path(&a.ds).unwrap().graph;
        // Every insert is missing from G′ and every delete present; G′
        // lacks exactly the inserted half of DS.
        let inserts = a.updates.iter().filter(|u| u.is_insert()).count();
        assert_eq!(gp.num_edges() + inserts, g.num_edges());
        for u in &a.updates {
            let (x, y) = u.endpoints();
            assert_eq!(gp.has_edge(x, y), !u.is_insert());
        }
        for seed in 8..8 + KEEP_SEEDS as u64 {
            prepare(&cache, 0.002, seed).unwrap();
        }
        assert!(!a.ds.exists(), "least recently used seed is evicted");
        std::fs::remove_dir_all(&cache).unwrap();
    }
}
