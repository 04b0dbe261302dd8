//! # dkc-clique — k-clique listing, counting and search
//!
//! Implements the kClist-style machinery (Danisch, Balalau, Sozio — WWW'18,
//! the paper's reference \[13\]) that every solver in the workspace relies on:
//!
//! * [`ListRequest`] — the one listing API. A `Copy` request holds `k`, a
//!   [`dkc_par::ParConfig`] and a [`KernelMode`] (default: sequential,
//!   adaptive kernel) and enumerates every k-clique of a DAG-oriented graph
//!   exactly once, rooted at its highest-ranked member, in
//!   `O(k · m · (d/2)^(k-2))`. Its four methods decide what happens to the
//!   cliques: [`ListRequest::visit`] (callback with early stop),
//!   [`ListRequest::collect`] (into a [`CliqueStore`], with an optional
//!   limit that fails deterministically), [`ListRequest::count`] and
//!   [`ListRequest::scores`] (per-node counts — the *node score* `s_n(u)` of
//!   Definition 5 — without materialising any clique). Collection, counting
//!   and scoring fan the roots out over the deterministic `dkc-par`
//!   executor and are bit-identical to the sequential pass for any thread
//!   count.
//! * [`FirstFinder`] — the `FindOne` procedure of Algorithm 1: return the
//!   first (k-1)-clique inside a root's out-neighbourhood, restricted to
//!   still-valid nodes.
//! * [`MinScoreFinder`] — the `FindMin` procedure of Algorithm 3: return the
//!   clique of minimum *clique score* (Definition 6) rooted at a node,
//!   optionally applying the paper's score-driven pruning rule.
//! * [`for_each_kclique_in_subset`] — bitset-based enumeration inside an
//!   arbitrary node subset of a dynamic graph, used by the candidate-clique
//!   index of Section V (Algorithm 5).
//! * [`Clique`] — an inline, allocation-free clique value type.
//! * [`CliqueStore`] — a flat stride-`k` arena for clique *sets*: one
//!   contiguous `Vec<u32>` instead of one `Clique` per row.
//! * [`KernelMode`] — per-root choice between the sorted-slice merge kernel
//!   and a dense bit-matrix kernel (Rossi et al., "A Fast Parallel Maximum
//!   Clique Algorithm for Large Sparse Graphs"). The default
//!   [`KernelMode::Adaptive`] densifies roots whose out-degree lands in
//!   `DENSE_MIN_DEGREE..=DENSE_MAX_DEGREE`; every mode emits bit-identical
//!   cliques in the identical order, so [`KernelMode::Slice`] serves as the
//!   test oracle for the others.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod count;
mod find;
mod kernel;
mod list;
mod request;
mod store;
mod subset;
mod types;

pub use find::{FirstFinder, MinScoreFinder, ScoredClique};
pub use kernel::{KernelMode, DENSE_MAX_DEGREE, DENSE_MIN_DEGREE};
pub use request::{collect_kcliques_store_parallel, node_scores_parallel, ListRequest};
pub use store::CliqueStore;
pub use subset::{collect_kcliques_in_subset, for_each_kclique_in_subset};
pub use types::{Clique, MAX_K};
