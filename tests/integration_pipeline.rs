//! End-to-end static pipeline: generators → listing → solvers → analysis,
//! spanning every crate through the facade.

use disjoint_kcliques::clique::ListRequest;
use disjoint_kcliques::core::{
    approx_guarantee_holds, verify_theorem2, GcSolver, GreedyCliqueGraphSolver, OptSolver,
};
use disjoint_kcliques::datagen::{
    erdos_renyi_gnm, planted_partition, relaxed_caveman, watts_strogatz,
};
use disjoint_kcliques::graph::{Dag, NodeOrder};
use disjoint_kcliques::prelude::*;

fn all_heuristics() -> Vec<Box<dyn Solver>> {
    vec![
        Box::new(HgSolver::default()),
        Box::new(GcSolver::new()),
        Box::new(LightweightSolver::l()),
        Box::new(LightweightSolver::lp()),
        Box::new(GreedyCliqueGraphSolver::default()),
    ]
}

#[test]
fn every_solver_is_valid_and_maximal_on_generated_graphs() {
    let graphs: Vec<(&str, CsrGraph)> = vec![
        ("erdos-renyi", erdos_renyi_gnm(150, 700, 1)),
        ("watts-strogatz", watts_strogatz(150, 6, 0.1, 2)),
        ("caveman", relaxed_caveman(15, 5, 0.2, 3)),
    ];
    for (name, g) in &graphs {
        for k in 3..=4 {
            for solver in all_heuristics() {
                let s =
                    solver.solve(g, k).unwrap_or_else(|e| panic!("{name}/{}: {e}", solver.name()));
                s.verify(g).unwrap_or_else(|e| panic!("{name}/{}: {e}", solver.name()));
                s.verify_maximal(g).unwrap_or_else(|e| panic!("{name}/{}: {e}", solver.name()));
            }
        }
    }
}

#[test]
fn planted_optimum_is_recovered_exactly_on_clean_instances() {
    for k in 3..=5 {
        let p = planted_partition(12, k, 10, 0.0, 7);
        for solver in all_heuristics() {
            let s = solver.solve(&p.graph, k).unwrap();
            assert_eq!(
                s.len(),
                p.planted_count(),
                "{} missed planted cliques at k={k}",
                solver.name()
            );
        }
    }
}

#[test]
fn planted_with_noise_stays_within_the_k_approximation() {
    let k = 3;
    let p = planted_partition(12, k, 20, 0.05, 9);
    let opt = OptSolver::new().solve(&p.graph, k).unwrap();
    assert!(opt.len() >= p.planted_count(), "optimum is at least the plant");
    for solver in all_heuristics() {
        let s = solver.solve(&p.graph, k).unwrap();
        assert!(
            approx_guarantee_holds(opt.len(), s.len(), k),
            "{}: {} vs opt {}",
            solver.name(),
            s.len(),
            opt.len()
        );
    }
}

#[test]
fn node_scores_drive_the_lightweight_solver_consistently() {
    // The LP pipeline recomputed by hand: scores from one listing pass,
    // score-ascending order, and the solution's covered nodes are exactly
    // k * |S| distinct nodes.
    let g = relaxed_caveman(25, 5, 0.1, 5);
    let k = 3;
    let dag = Dag::from_graph(&g, NodeOrder::compute(&g, OrderingKind::Degeneracy));
    let scores = ListRequest::new(k).scores(&dag);
    assert_eq!(scores.iter().sum::<u64>(), 3 * ListRequest::new(k).count(&dag));

    let s = LightweightSolver::lp().solve(&g, k).unwrap();
    let covered: std::collections::HashSet<NodeId> = s.iter_nodes().collect();
    assert_eq!(covered.len(), s.covered_nodes());
    // Every member of every chosen clique has a positive score.
    for u in s.iter_nodes() {
        assert!(scores[u as usize] >= 1);
    }
}

#[test]
fn theorem2_holds_on_structured_and_random_graphs() {
    for (g, k) in [
        (relaxed_caveman(12, 5, 0.2, 11), 3usize),
        (erdos_renyi_gnm(60, 500, 13), 4usize),
        (watts_strogatz(100, 6, 0.05, 17), 3usize),
    ] {
        verify_theorem2(&g, k).unwrap();
    }
}

#[test]
fn partition_all_covers_every_node_once() {
    let g = watts_strogatz(120, 6, 0.1, 23);
    let p = partition_all(&g, 4).unwrap();
    let mut seen = vec![false; g.num_nodes()];
    for group in &p.groups {
        for &u in group {
            assert!(!seen[u as usize], "node {u} appears twice");
            seen[u as usize] = true;
        }
    }
    assert!(seen.iter().all(|&x| x));
}

#[test]
fn opt_dominates_every_heuristic_on_small_inputs() {
    let g = erdos_renyi_gnm(40, 220, 29);
    for k in 3..=4 {
        let opt = OptSolver::new().solve(&g, k).unwrap();
        for solver in all_heuristics() {
            let s = solver.solve(&g, k).unwrap();
            assert!(
                s.len() <= opt.len(),
                "{} beat OPT?! {} > {}",
                solver.name(),
                s.len(),
                opt.len()
            );
        }
    }
}
