//! The paper's worked examples, end to end through the public facade:
//! Example 1/2 (Fig. 2), Example 3 (scores), Fig. 3 (clique graph),
//! Fig. 5 (dynamic swap scenario).

use disjoint_kcliques::clique::{Clique, ListRequest};
use disjoint_kcliques::cliquegraph::{CliqueGraph, CliqueGraphLimits};
use disjoint_kcliques::core::{clique_degree_bounds, OptSolver};
use disjoint_kcliques::graph::{Dag, NodeOrder};
use disjoint_kcliques::prelude::*;

/// Fig. 2 graph, v1..v9 → 0..8.
fn fig2() -> CsrGraph {
    CsrGraph::from_edges(
        9,
        vec![
            (0, 2),
            (0, 5),
            (2, 5),
            (2, 4),
            (4, 5),
            (4, 7),
            (5, 7),
            (4, 6),
            (6, 7),
            (6, 8),
            (7, 8),
            (3, 6),
            (3, 8),
            (1, 3),
            (1, 8),
        ],
    )
    .unwrap()
}

#[test]
fn example1_seven_3cliques_and_the_two_solution_sizes() {
    let g = fig2();
    let dag = Dag::from_graph(&g, NodeOrder::compute(&g, OrderingKind::Identity));
    assert_eq!(ListRequest::new(3).count(&dag), 7, "Example 1: exactly seven 3-cliques");

    // Fig. 2(c): a maximal (not maximum) set of size 2 exists.
    let mut s1 = Solution::new(3);
    s1.push(Clique::new(&[2, 4, 5])); // (v3, v5, v6)
    s1.push(Clique::new(&[6, 7, 8])); // (v7, v8, v9)
    s1.verify(&g).unwrap();
    s1.verify_maximal(&g).unwrap();

    // Fig. 2(d): the maximum has size 3 — confirmed by the exact solver.
    let opt = OptSolver::new().solve(&g, 3).unwrap();
    assert_eq!(opt.len(), 3);
}

#[test]
fn example3_scores_and_theorem2_bounds() {
    let g = fig2();
    let dag = Dag::from_graph(&g, NodeOrder::compute(&g, OrderingKind::Identity));
    let scores = ListRequest::new(3).scores(&dag);
    // s_n(v6) = s_n(v5) = s_n(v8) = 3.
    assert_eq!(scores[5], 3);
    assert_eq!(scores[4], 3);
    assert_eq!(scores[7], 3);
    // s_c(C3) = s_n(v5) + s_n(v6) + s_n(v8) = 9.
    let c3 = Clique::new(&[4, 5, 7]);
    assert_eq!(c3.score(&scores), 9);
    // Theorem 2 brackets C3's true degree (4 in Fig. 3) by [3, 6].
    let b = clique_degree_bounds(9, 3);
    assert_eq!((b.lower, b.upper), (3, 6));
    assert!(b.contains(4));
}

#[test]
fn fig3_clique_graph_shape() {
    let g = fig2();
    let cg = CliqueGraph::build(&g, 3, CliqueGraphLimits::unlimited()).unwrap();
    assert_eq!(cg.num_cliques(), 7);
    assert_eq!(cg.num_conflicts(), 11);
    // C1 = (v1, v3, v6) has degree 2 (Example 3).
    let c1 = cg.cliques().iter().position(|c| c == [0, 2, 5]).unwrap() as u32;
    assert_eq!(cg.clique_degree(c1), 2);
}

#[test]
fn fig5_dynamic_swap_walkthrough() {
    // G1 of Fig. 5(a), v1..v11 → 0..10, S = {(v3,v4,v5), (v9,v10,v11)}.
    let g1 = CsrGraph::from_edges(
        11,
        vec![
            (0, 1),
            (0, 2),
            (1, 2),
            (2, 3),
            (2, 4),
            (3, 4),
            (4, 5),
            (5, 6),
            (6, 7),
            (7, 8),
            (8, 9),
            (8, 10),
            (9, 10),
        ],
    )
    .unwrap();
    let mut s = Solution::new(3);
    s.push(Clique::new(&[2, 3, 4]));
    s.push(Clique::new(&[8, 9, 10]));
    let mut solver = DynamicSolver::from_solution(&g1, s);

    // Adding (v5, v7) → G2: TrySwap trades (v3,v4,v5) for (v1,v2,v3) and
    // (v5,v6,v7), growing |S| to 3 (the paper's Section V-C walkthrough).
    solver.insert_edge(4, 6);
    assert_eq!(solver.len(), 3);
    let cliques = solver.solution().sorted_cliques();
    assert!(cliques.contains(&Clique::new(&[0, 1, 2])));
    assert!(cliques.contains(&Clique::new(&[4, 5, 6])));

    // Deleting (v5, v7) again → back to G1: the affected clique (v5,v6,v7)
    // dissolves and no candidate can replace it (v3 is taken), leaving
    // S = {(v1,v2,v3), (v9,v10,v11)} — "also a maximum disjoint 3-clique
    // set in G1" per the paper.
    solver.delete_edge(4, 6);
    assert_eq!(solver.len(), 2);
    let cliques = solver.solution().sorted_cliques();
    assert!(cliques.contains(&Clique::new(&[0, 1, 2])));
    assert!(cliques.contains(&Clique::new(&[8, 9, 10])));
    solver.validate().unwrap();
}

#[test]
fn theorem1_reduction_gadget_roundtrip() {
    // The NP-hardness proof builds a graph from a k-uniform hypergraph by
    // turning each hyperedge into a k-clique. For the 3-uniform hypergraph
    // {{0,1,2}, {2,3,4}, {4,5,0}} an exact cover needs disjoint hyperedges
    // covering all nodes — here impossible (6 nodes, overlapping triples);
    // the max disjoint set has 2 cliques covering 6 of 6? No: any two of
    // the three triangles intersect, so the maximum is 1... unless nodes
    // differ. Verify with OPT that the gadget behaves like the hypergraph.
    let edges = vec![
        (0, 1),
        (1, 2),
        (0, 2), // e1 = {0,1,2}
        (2, 3),
        (3, 4),
        (2, 4), // e2 = {2,3,4}
        (4, 5),
        (5, 0),
        (0, 4), // e3 = {4,5,0}
    ];
    let g = CsrGraph::from_edges(6, edges).unwrap();
    let opt = OptSolver::new().solve(&g, 3).unwrap();
    // e1 ∩ e2 = {2}, e2 ∩ e3 = {4}, e1 ∩ e3 = {0}: pairwise intersecting,
    // so no exact cover exists and the maximum disjoint set has size 1 —
    // unless extra triangles appeared from the union of gadget edges.
    // (0,2,4) IS such a triangle; it overlaps all three hyperedge cliques,
    // so the optimum is still 1.
    assert_eq!(opt.len(), 1);
}
