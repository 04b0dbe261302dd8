//! End-to-end tests of `dkc gen`: a bad `--scale` is a usage error (exit 2,
//! no panic), and an output path ending in `.dkcsr` gets a binary snapshot
//! of the same graph the text edge list holds.

use disjoint_kcliques::graph::io::{load_graph, LoadSource, LoadedGraph};
use disjoint_kcliques::par::ParConfig;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dkc-gen-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn dkc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dkc")).args(args).output().expect("dkc runs")
}

/// The edge set in label space, each edge as an ordered label pair.
fn label_edges(loaded: &LoadedGraph) -> BTreeSet<(u64, u64)> {
    let g = &loaded.graph;
    (0..g.num_nodes() as u32)
        .flat_map(|u| g.neighbors(u).iter().map(move |&v| (u, v)))
        .filter(|&(u, v)| u < v)
        .map(|(u, v)| {
            let (a, b) = (loaded.labels[u as usize], loaded.labels[v as usize]);
            (a.min(b), a.max(b))
        })
        .collect()
}

#[test]
fn scale_outside_the_unit_interval_is_a_usage_error() {
    let dir = scratch_dir("scale");
    let out = dir.join("out.txt");
    let out = out.to_str().unwrap();
    for scale in ["2", "0", "-0.5", "NaN", "inf", "x"] {
        let output = dkc(&["gen", "FB", out, "--scale", scale]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "--scale {scale}: {stderr}");
        assert!(!stderr.contains("panicked"), "--scale {scale} panicked: {stderr}");
        assert!(stderr.contains("usage:"), "--scale {scale}: {stderr}");
    }
    assert!(!dir.join("out.txt").exists(), "nothing is written on a usage error");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dkcsr_output_is_a_snapshot_of_the_text_graph() {
    let dir = scratch_dir("dkcsr");
    let (text, snap) = (dir.join("ftb.txt"), dir.join("ftb.dkcsr"));
    for out in [&text, &snap] {
        let output = dkc(&["gen", "FTB", out.to_str().unwrap(), "--scale", "0.5", "--seed", "7"]);
        assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    }
    let (from_snap, report) = load_graph(&snap, ParConfig::sequential()).unwrap();
    assert_eq!(report.source, LoadSource::Snapshot);
    let (from_text, report) = load_graph(&text, ParConfig::sequential()).unwrap();
    assert_eq!(report.source, LoadSource::Text);
    assert!(from_snap.graph.num_edges() > 0);
    assert_eq!(from_snap.graph.num_edges(), from_text.graph.num_edges());
    assert_eq!(label_edges(&from_snap), label_edges(&from_text));
    std::fs::remove_dir_all(&dir).ok();
}
