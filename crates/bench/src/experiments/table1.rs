//! **Table I** — dataset statistics and k-clique counts for k = 3..6,
//! plus the space consumption of materialising the smallest-k listing
//! into the flat `CliqueStore` arena (the paper's Table III angle):
//! the column brackets a sequential arena listing with the tracking
//! allocator, so it reads real bytes in binaries that install it
//! (`repro` and `dkc` do) and 0 elsewhere.

use crate::config::ReproConfig;
use crate::mem::with_peak_tracking;
use crate::table::Table;
use crate::{human_count, timed};
use dkc_clique::ListRequest;
use dkc_graph::{Dag, NodeOrder, OrderingKind};
use dkc_par::ParConfig;

/// Resolves every dataset through the registry and counts its k-cliques.
pub fn run(cfg: &ReproConfig) -> String {
    let mut header: Vec<String> = ["Name", "n", "m"].iter().map(|s| s.to_string()).collect();
    header.extend(cfg.ks.iter().map(|k| format!("k={k}")));
    header.push("gen+count ms".into());
    header.push("list peak MiB".into());
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(
        format!("Table I: dataset statistics (stand-ins, scale={}, seed={})", cfg.scale, cfg.seed),
        &header_refs,
    );
    let registry = cfg.registry();
    for id in cfg.dataset_list() {
        let g = cfg.graph(&registry, id);
        let (counts, elapsed) = timed(|| {
            let dag = Dag::from_graph(&g, NodeOrder::compute(&g, OrderingKind::Degeneracy));
            let par = ParConfig::default();
            cfg.ks
                .iter()
                .map(|&k| ListRequest::new(k).with_par(par).count(&dag))
                .collect::<Vec<u64>>()
        });
        let mut row = vec![
            id.name().to_string(),
            human_count(g.num_nodes() as u64),
            human_count(g.num_edges() as u64),
        ];
        row.extend(counts.iter().map(|&c| human_count(c)));
        row.push(format!("{:.0}", elapsed.as_secs_f64() * 1e3));
        // Space consumption of the smallest-k listing through the arena
        // collector (sequential: peak bytes are schedule-independent).
        let kmin = cfg.ks.iter().copied().min().unwrap_or(3);
        let peak = {
            let dag = Dag::from_graph(&g, NodeOrder::compute(&g, OrderingKind::Degeneracy));
            let (store, peak) = with_peak_tracking(|| ListRequest::new(kmin).collect(&dag, None));
            drop(store);
            peak
        };
        row.push(format!("{:.1}", peak as f64 / (1024.0 * 1024.0)));
        table.add_row(row);
    }
    // Greppable resolution footer: the CI io-smoke step asserts that a
    // second cached run reports synthetic-builds=0.
    format!("{}(dataset resolution: {})\n", table.render(), registry.stats_line())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkc_datagen::registry::DatasetId;

    #[test]
    fn renders_requested_datasets() {
        let cfg = ReproConfig {
            scale: 0.5,
            datasets: Some(vec![DatasetId::Ftb]),
            ks: vec![3, 4],
            ..Default::default()
        };
        let text = run(&cfg);
        assert!(text.contains("FTB"));
        assert!(!text.contains("HST"));
        assert!(text.contains("Table I"));
        assert!(text.contains("synthetic-builds=1"), "in-memory run regenerates: {text}");
    }

    #[test]
    fn cached_rerun_does_not_regenerate() {
        let dir = std::env::temp_dir().join(format!("dkc_table1_cache_{}", std::process::id()));
        let cfg = ReproConfig {
            scale: 0.5,
            datasets: Some(vec![DatasetId::Ftb]),
            ks: vec![3],
            data_dir: Some(dir.clone()),
            ..Default::default()
        };
        let first = run(&cfg);
        assert!(first.contains("synthetic-builds=1 cache-writes=1"), "{first}");
        let second = run(&cfg);
        assert!(second.contains("snapshot-hits=1"), "{second}");
        assert!(second.contains("synthetic-builds=0"), "{second}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
