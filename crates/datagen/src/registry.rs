//! Synthetic stand-ins for the paper's datasets.
//!
//! The evaluation uses ten KONECT / Network-Repository graphs (Table I) and
//! six tiny graphs (Table IV). Those files are not redistributable here, so
//! this module synthesises graphs with the same *names and shapes*: matched
//! node/edge counts (scalable), community structure (dense caves → rich
//! k-clique population) and power-law degree skew (hubs). DESIGN.md §4
//! documents why this preserves the evaluation's comparative conclusions.
//! Real edge lists load through [`dkc_graph::io`] and drop into the same
//! harness.

use crate::rng;
use dkc_graph::{CsrGraph, NodeId};
use rand::Rng;
use std::collections::HashSet;

/// The ten evaluation datasets of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetId {
    /// Football (115 nodes, 613 edges).
    Ftb,
    /// Hamsterster (1.86K, 12.5K).
    Hst,
    /// Facebook (4K, 88K).
    Fb,
    /// FBPages (28K, 206K).
    Fbp,
    /// FBWosn (63.7K, 817K).
    Fbw,
    /// Dogster (260K, 2.15M).
    Ds,
    /// Skitter (1.7M, 11M).
    Sk,
    /// Flickr (1.7M, 15.6M).
    Fl,
    /// Livejournal (5.2M, 48.7M).
    Lj,
    /// Orkut (3M, 117M).
    Or,
}

impl DatasetId {
    /// All datasets, in Table I order.
    pub const ALL: [DatasetId; 10] = [
        DatasetId::Ftb,
        DatasetId::Hst,
        DatasetId::Fb,
        DatasetId::Fbp,
        DatasetId::Fbw,
        DatasetId::Ds,
        DatasetId::Sk,
        DatasetId::Fl,
        DatasetId::Lj,
        DatasetId::Or,
    ];

    /// The paper's abbreviation.
    pub fn name(self) -> &'static str {
        match self {
            DatasetId::Ftb => "FTB",
            DatasetId::Hst => "HST",
            DatasetId::Fb => "FB",
            DatasetId::Fbp => "FBP",
            DatasetId::Fbw => "FBW",
            DatasetId::Ds => "DS",
            DatasetId::Sk => "SK",
            DatasetId::Fl => "FL",
            DatasetId::Lj => "LJ",
            DatasetId::Or => "OR",
        }
    }

    /// The dataset's full name.
    pub fn full_name(self) -> &'static str {
        match self {
            DatasetId::Ftb => "Football",
            DatasetId::Hst => "Hamsterster",
            DatasetId::Fb => "Facebook",
            DatasetId::Fbp => "FBPages",
            DatasetId::Fbw => "FBWosn",
            DatasetId::Ds => "Dogster",
            DatasetId::Sk => "Skitter",
            DatasetId::Fl => "Flickr",
            DatasetId::Lj => "Livejournal",
            DatasetId::Or => "Orkut",
        }
    }

    /// Node count reported in Table I.
    pub fn paper_nodes(self) -> usize {
        match self {
            DatasetId::Ftb => 115,
            DatasetId::Hst => 1_860,
            DatasetId::Fb => 4_000,
            DatasetId::Fbp => 28_000,
            DatasetId::Fbw => 63_700,
            DatasetId::Ds => 260_000,
            DatasetId::Sk => 1_700_000,
            DatasetId::Fl => 1_700_000,
            DatasetId::Lj => 5_200_000,
            DatasetId::Or => 3_000_000,
        }
    }

    /// Edge count reported in Table I.
    pub fn paper_edges(self) -> usize {
        match self {
            DatasetId::Ftb => 613,
            DatasetId::Hst => 12_500,
            DatasetId::Fb => 88_000,
            DatasetId::Fbp => 206_000,
            DatasetId::Fbw => 817_000,
            DatasetId::Ds => 2_150_000,
            DatasetId::Sk => 11_000_000,
            DatasetId::Fl => 15_600_000,
            DatasetId::Lj => 48_700_000,
            DatasetId::Or => 117_000_000,
        }
    }

    /// Generates the stand-in at the given scale (`1.0` = paper size).
    /// Node and edge counts shrink together, preserving average degree.
    pub fn standin(self, scale: f64, seed: u64) -> CsrGraph {
        let n = scaled(self.paper_nodes(), scale).max(40);
        let m = scaled(self.paper_edges(), scale);
        social_standin(n, m, seed ^ fxhash(self.name()))
    }
}

/// The six small graphs of Table IV (exact-solution comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TinyDatasetId {
    /// Swallow (17 nodes, 53 edges).
    Swallow,
    /// Tortoise (35, 104).
    Tortoise,
    /// Lizard (60, 318).
    Lizard,
    /// Football (115, 613).
    Football,
    /// Voles (181, 515).
    Voles,
    /// Hamsterster (1.86K, 12.5K).
    Hamsterster,
}

impl TinyDatasetId {
    /// All tiny datasets, in Table IV order.
    pub const ALL: [TinyDatasetId; 6] = [
        TinyDatasetId::Swallow,
        TinyDatasetId::Tortoise,
        TinyDatasetId::Lizard,
        TinyDatasetId::Football,
        TinyDatasetId::Voles,
        TinyDatasetId::Hamsterster,
    ];

    /// Dataset name as printed in Table IV.
    pub fn name(self) -> &'static str {
        match self {
            TinyDatasetId::Swallow => "Swallow",
            TinyDatasetId::Tortoise => "Tortoise",
            TinyDatasetId::Lizard => "Lizard",
            TinyDatasetId::Football => "Football",
            TinyDatasetId::Voles => "Voles",
            TinyDatasetId::Hamsterster => "Hamsterster",
        }
    }

    /// Node count from Table IV.
    pub fn nodes(self) -> usize {
        match self {
            TinyDatasetId::Swallow => 17,
            TinyDatasetId::Tortoise => 35,
            TinyDatasetId::Lizard => 60,
            TinyDatasetId::Football => 115,
            TinyDatasetId::Voles => 181,
            TinyDatasetId::Hamsterster => 1_860,
        }
    }

    /// Edge count from Table IV.
    pub fn edges(self) -> usize {
        match self {
            TinyDatasetId::Swallow => 53,
            TinyDatasetId::Tortoise => 104,
            TinyDatasetId::Lizard => 318,
            TinyDatasetId::Football => 613,
            TinyDatasetId::Voles => 515,
            TinyDatasetId::Hamsterster => 12_500,
        }
    }

    /// Generates the stand-in at full (paper) size.
    pub fn standin(self, seed: u64) -> CsrGraph {
        social_standin(self.nodes(), self.edges(), seed ^ fxhash(self.name()))
    }
}

fn scaled(value: usize, scale: f64) -> usize {
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    ((value as f64 * scale).ceil() as usize).max(1)
}

/// Deterministic name hash so each dataset gets distinct randomness per seed.
fn fxhash(s: &str) -> u64 {
    s.bytes().fold(0xcbf29ce484222325u64, |h, b| (h ^ b as u64).wrapping_mul(0x100000001b3))
}

/// The stand-in generator: communities + power-law hubs.
///
/// Nodes are partitioned into caves of 8–24 nodes. 60% of the edge budget
/// is spent inside caves (pairs chosen uniformly within a size²-weighted
/// cave), producing the dense clusters that make k-clique counts explode
/// with k; the remaining 40% connects random endpoints drawn from a
/// power-law weight distribution, producing hubs. Duplicate edges are
/// re-drawn (bounded retries), so the final edge count hits the target
/// except on extremely dense inputs.
pub fn social_standin(n: usize, m: usize, seed: u64) -> CsrGraph {
    let n = n.max(4);
    let possible = n * (n - 1) / 2;
    let m = m.min(possible);
    let mut r = rng(seed);

    // Carve communities of 8..=24 contiguous nodes.
    let mut communities: Vec<(NodeId, NodeId)> = Vec::new(); // [start, end)
    let mut start = 0usize;
    while start < n {
        let size = r.gen_range(8..=24).min(n - start).max(1);
        communities.push((start as NodeId, (start + size) as NodeId));
        start += size;
    }

    // Intra-community component: enumerate every intra pair, shuffle, and
    // keep a 60%-of-m prefix. Dense caves → rich k-clique population, and
    // the target is reached deterministically (no rejection stalls).
    let mut intra_pairs: Vec<(NodeId, NodeId)> = Vec::new();
    for &(s, e) in &communities {
        for a in s..e {
            for b in (a + 1)..e {
                intra_pairs.push((a, b));
            }
        }
    }
    use rand::seq::SliceRandom;
    intra_pairs.shuffle(&mut r);
    let intra_budget = ((m as f64 * 0.6) as usize).min(intra_pairs.len());
    let mut set: HashSet<(NodeId, NodeId)> = HashSet::with_capacity(m);
    set.extend(intra_pairs.into_iter().take(intra_budget));

    // Global power-law component fills the rest of the budget.
    let mut node_cum: Vec<f64> = Vec::with_capacity(n);
    let mut acc = 0.0;
    for i in 0..n {
        acc += ((i + 10) as f64).powf(-0.67); // gamma ≈ 2.5
        node_cum.push(acc);
    }
    let node_total = acc;
    let mut guard = 0usize;
    let guard_max = 30 * m + 4000;
    while set.len() < m && guard < guard_max {
        guard += 1;
        let pick = |r: &mut rand::rngs::SmallRng| {
            let x = r.gen_range(0.0..node_total);
            node_cum.partition_point(|&c| c < x).min(n - 1) as NodeId
        };
        let (a, b) = (pick(&mut r), pick(&mut r));
        if a != b {
            set.insert((a.min(b), a.max(b)));
        }
    }
    // Last-resort deterministic fill for very dense requests where hub
    // sampling keeps colliding: scan the pair space once.
    if set.len() < m {
        'fill: for a in 0..n as NodeId {
            for b in (a + 1)..n as NodeId {
                if set.len() >= m {
                    break 'fill;
                }
                set.insert((a, b));
            }
        }
    }
    CsrGraph::from_edges(n, set).expect("endpoints in range")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkc_clique::ListRequest;
    use dkc_graph::{Dag, GraphStats, NodeOrder, OrderingKind};

    #[test]
    fn standin_matches_requested_shape() {
        let g = social_standin(1000, 6000, 42);
        assert_eq!(g.num_nodes(), 1000);
        assert_eq!(g.num_edges(), 6000);
    }

    #[test]
    fn standin_is_clique_rich() {
        // A social stand-in must contain many triangles and 4-cliques —
        // the property Table I depends on (ER graphs of equal density have
        // almost none).
        let g = social_standin(2000, 12000, 7);
        let dag = Dag::from_graph(&g, NodeOrder::compute(&g, OrderingKind::Degeneracy));
        let t = ListRequest::new(3).count(&dag);
        let q = ListRequest::new(4).count(&dag);
        assert!(t > 2000, "only {t} triangles");
        assert!(q > 500, "only {q} 4-cliques");
    }

    #[test]
    fn standin_has_degree_skew() {
        let g = social_standin(5000, 25000, 3);
        let stats = GraphStats::of(&g);
        assert!(
            stats.max_degree as f64 > 4.0 * stats.avg_degree,
            "max {} vs avg {:.1}",
            stats.max_degree,
            stats.avg_degree
        );
    }

    #[test]
    fn scaled_dataset_preserves_average_degree() {
        let id = DatasetId::Fb;
        let g = id.standin(0.05, 1);
        let paper_avg = 2.0 * id.paper_edges() as f64 / id.paper_nodes() as f64;
        let got_avg = 2.0 * g.num_edges() as f64 / g.num_nodes() as f64;
        assert!(
            (got_avg - paper_avg).abs() / paper_avg < 0.2,
            "avg degree {got_avg:.1} vs paper {paper_avg:.1}"
        );
    }

    #[test]
    fn all_dataset_ids_have_consistent_metadata() {
        for id in DatasetId::ALL {
            assert!(!id.name().is_empty());
            assert!(!id.full_name().is_empty());
            assert!(id.paper_nodes() > 0);
            assert!(id.paper_edges() > 0);
        }
        assert_eq!(DatasetId::Or.paper_edges(), 117_000_000);
        for id in TinyDatasetId::ALL {
            assert!(id.nodes() <= 2000);
            let g = id.standin(0);
            assert_eq!(g.num_nodes(), id.nodes().max(4));
        }
    }

    #[test]
    fn different_datasets_differ_at_same_seed() {
        let a = DatasetId::Ftb.standin(1.0, 5);
        let b = TinyDatasetId::Football.standin(5);
        // Same (n, m) but different name-derived seeds.
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_ne!(a, b);
    }

    #[test]
    fn standin_deterministic_per_seed() {
        assert_eq!(social_standin(300, 1500, 9), social_standin(300, 1500, 9));
        assert_ne!(social_standin(300, 1500, 9), social_standin(300, 1500, 10));
    }

    #[test]
    #[should_panic(expected = "scale must be in")]
    fn rejects_zero_scale() {
        let _ = DatasetId::Ftb.standin(0.0, 0);
    }
}
