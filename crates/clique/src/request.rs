//! The one public entry point to the k-clique recursion.
//!
//! [`ListRequest`] names *what* to enumerate (`k`), *where* it runs (a
//! [`ParConfig`]) and *how* candidate sets are intersected (a
//! [`KernelMode`]); its four methods pick what to do with the cliques:
//! visit them, collect them into a [`CliqueStore`], count them, or count
//! them per node. Every combination of executor shape and kernel produces
//! bit-identical results.

use crate::count::CountCtx;
use crate::kernel::KernelMode;
use crate::list::ListCtx;
use crate::store::CliqueStore;
use dkc_graph::{Dag, NodeId};
use dkc_par::{par_for_each_root, par_reduce, par_try_collect, ParConfig, SharedBudget};

/// A k-clique enumeration request over a DAG-oriented graph.
///
/// Every k-clique is enumerated exactly once, rooted at its highest-ranked
/// member, in `O(k · m · (d/2)^(k-2))` when the DAG follows a degeneracy
/// order (reference \[13\]). `k = 1` enumerates nodes, `k = 2` edges;
/// `k >= 3` is the paper's regime.
///
/// ```
/// use dkc_clique::ListRequest;
/// use dkc_graph::{CsrGraph, Dag, NodeOrder, OrderingKind};
///
/// // K4: four triangles, every node in three of them.
/// let g = CsrGraph::from_edges(4, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap();
/// let dag = Dag::from_graph(&g, NodeOrder::compute(&g, OrderingKind::Degeneracy));
/// let triangles = ListRequest::new(3);
/// assert_eq!(triangles.count(&dag), 4);
/// assert_eq!(triangles.scores(&dag), vec![3, 3, 3, 3]);
/// assert_eq!(triangles.collect(&dag, None).unwrap().len(), 4);
/// assert_eq!(triangles.collect(&dag, Some(3)), Err(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListRequest {
    /// The clique size.
    pub k: usize,
    /// Executor configuration for [`ListRequest::collect`],
    /// [`ListRequest::count`] and [`ListRequest::scores`]: roots fan out in
    /// chunks, and results are identical for any thread count.
    pub par: ParConfig,
    /// Intersection kernel; every mode emits the same cliques in the same
    /// order.
    pub mode: KernelMode,
}

impl ListRequest {
    /// A sequential request on the default ([`KernelMode::Adaptive`])
    /// kernel.
    pub fn new(k: usize) -> Self {
        ListRequest { k, par: ParConfig::sequential(), mode: KernelMode::default() }
    }

    /// Overrides the executor configuration.
    pub fn with_par(mut self, par: ParConfig) -> Self {
        self.par = par;
        self
    }

    /// Overrides the intersection kernel.
    pub fn with_kernel(mut self, mode: KernelMode) -> Self {
        self.mode = mode;
        self
    }

    /// Calls `cb` once per k-clique, in root order, until it returns
    /// `false`; returns whether the enumeration ran to completion.
    ///
    /// The slice passed to `cb` starts with the clique's root (its
    /// highest-ranked member); the other members follow in recursion order.
    /// Visiting is always sequential on the calling thread, so `par` is not
    /// consulted.
    pub fn visit<F>(&self, dag: &Dag, mut cb: F) -> bool
    where
        F: FnMut(&[NodeId]) -> bool,
    {
        let mut ctx = ListCtx::new(dag, self.k, self.mode);
        (0..dag.num_nodes() as NodeId).all(|u| ctx.run_root(u, &mut cb))
    }

    /// Collects every k-clique into a [`CliqueStore`] in enumeration order,
    /// each row sorted ascending.
    ///
    /// With `Some(limit)` the collection aborts with `Err(limit)` as soon as
    /// more than `limit` cliques exist, without materialising the excess —
    /// the harness's deterministic "OOM". Workers charge a [`SharedBudget`]
    /// once per clique; since the clique population is a property of the
    /// input alone, either every schedule stays within the budget (and the
    /// output equals the sequential one) or every schedule exceeds it, so
    /// the `Err`/`Ok` decision is the same for any thread count. `None`
    /// takes a path with no per-clique budget charge and never fails.
    pub fn collect(&self, dag: &Dag, limit: Option<usize>) -> Result<CliqueStore, usize> {
        let Some(limit) = limit else {
            return Ok(self.collect_all(dag));
        };
        let budget = SharedBudget::new(limit);
        let data = par_try_collect(
            self.par,
            dag.num_nodes(),
            || ListCtx::new(dag, self.k, self.mode),
            |ctx, range, out: &mut Vec<NodeId>| {
                for u in range {
                    let mut over = false;
                    ctx.run_root(u as NodeId, &mut |nodes| {
                        if !budget.charge(1) {
                            over = true;
                            return false;
                        }
                        emit_sorted(out, nodes);
                        true
                    });
                    if over {
                        return Err(limit);
                    }
                }
                Ok(())
            },
        )?;
        Ok(CliqueStore::from_flat(self.k, data))
    }

    /// The unbounded collection: every clique contributes exactly `k` ids,
    /// so the chunk-ordered concatenation of the workers' flat segments *is*
    /// the sequential arena, for any thread count.
    fn collect_all(&self, dag: &Dag) -> CliqueStore {
        let data = par_for_each_root(
            self.par,
            dag.num_nodes(),
            || ListCtx::new(dag, self.k, self.mode),
            |ctx, u, out: &mut Vec<NodeId>| {
                ctx.run_root(u as NodeId, &mut |nodes| {
                    emit_sorted(out, nodes);
                    true
                });
            },
        );
        CliqueStore::from_flat(self.k, data)
    }

    /// Counts the k-cliques without materialising them; per-worker totals
    /// are summed, so the count is thread-count invariant.
    pub fn count(&self, dag: &Dag) -> u64 {
        par_reduce(
            self.par,
            dag.num_nodes(),
            || CountCtx::new(dag, self.k, self.mode),
            || 0u64,
            |ctx, total, range| {
                for u in range {
                    *total += ctx.run_root(u as NodeId, None);
                }
            },
            |a, b| *a += b,
        )
    }

    /// Per-node k-clique counts — the *node scores* `s_n(u)` of
    /// Definition 5 — in one enumeration pass and `O(n + m)` memory.
    ///
    /// This is Line 2 of Algorithm 3: scores are accumulated during the
    /// recursion and no clique is stored. At the innermost level every
    /// candidate completes a clique, so counts are credited wholesale.
    /// Per-worker score arrays are summed element-wise, so the result is
    /// thread-count invariant.
    pub fn scores(&self, dag: &Dag) -> Vec<u64> {
        let n = dag.num_nodes();
        par_reduce(
            self.par,
            n,
            || CountCtx::new(dag, self.k, self.mode),
            || vec![0u64; n],
            |ctx, scores, range| {
                for u in range {
                    ctx.run_root(u as NodeId, Some(scores));
                }
            },
            |merged, local| {
                for (m, l) in merged.iter_mut().zip(local) {
                    *m += l;
                }
            },
        )
    }
}

/// Appends one clique (root-first recursion order) to a flat arena tail and
/// sorts it in place — the allocation-free emission step of both collection
/// paths.
#[inline]
fn emit_sorted(out: &mut Vec<NodeId>, nodes: &[NodeId]) {
    let start = out.len();
    out.extend_from_slice(nodes);
    out[start..].sort_unstable();
}

/// `ListRequest::new(k).with_par(par).collect(dag, None)`. Kept as a free
/// function because the DS-scale benchmark (`dsbench/`) calls it by name.
pub fn collect_kcliques_store_parallel(dag: &Dag, k: usize, par: ParConfig) -> CliqueStore {
    ListRequest::new(k).with_par(par).collect_all(dag)
}

/// `ListRequest::new(k).with_par(par).scores(dag)`. Kept as a free function
/// because the DS-scale benchmark (`dsbench/`) calls it by name.
pub fn node_scores_parallel(dag: &Dag, k: usize, par: ParConfig) -> Vec<u64> {
    ListRequest::new(k).with_par(par).scores(dag)
}
