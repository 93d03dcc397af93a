//! Validates the truncated trace-reduction evaluators against the dense
//! oracles: with β large enough to cover the graph and no SPAI pruning,
//! both phases must reproduce the exact scores; with the paper's defaults
//! they must stay close enough to preserve rankings.

use tracered_core::criticality::{subgraph_phase_scores, tree_phase_scores};
use tracered_core::exact;
use tracered_graph::gen::{random_connected, tri_mesh, WeightProfile};
use tracered_graph::laplacian::subgraph_laplacian;
use tracered_graph::lca::tree_resistances;
use tracered_graph::mst::{spanning_tree, TreeKind};
use tracered_graph::{Graph, RootedTree};
use tracered_sparse::order::Ordering;
use tracered_sparse::{ApproxInverse, CholeskyFactor, SpaiOptions};

fn tree_setup(g: &Graph) -> (RootedTree, Vec<usize>, Vec<usize>) {
    let st = spanning_tree(g, TreeKind::MaxEffectiveWeight).unwrap();
    let tree = RootedTree::build(g, &st.tree_edges, 0).unwrap();
    (tree, st.tree_edges, st.off_tree_edges)
}

#[test]
fn tree_phase_with_full_beta_matches_grounded_oracle() {
    let g = random_connected(25, 30, WeightProfile::LogUniform { lo: 0.2, hi: 5.0 }, 17);
    let (tree, tree_edges, off) = tree_setup(&g);
    let pairs: Vec<(usize, usize)> = off.iter().map(|&id| (g.edge(id).u, g.edge(id).v)).collect();
    let rs = tree_resistances(&tree, &pairs);
    // β = n covers the whole tree → the truncation is exact.
    let truncated = tree_phase_scores(&g, &tree, &off, &rs, g.num_nodes());
    for (k, &eid) in off.iter().enumerate() {
        let oracle = exact::trace_reduction_grounded(&g, &tree_edges, eid).unwrap();
        let rel = (truncated[k] - oracle).abs() / (1.0 + oracle.abs());
        assert!(rel < 1e-9, "edge {eid}: truncated {} vs oracle {oracle}", truncated[k]);
    }
}

#[test]
fn tree_phase_truncation_never_exceeds_exact() {
    // Every dropped term of Eq. 12 is non-negative, so the truncated score
    // is a lower bound of the exact one.
    let g = tri_mesh(8, 8, WeightProfile::LogUniform { lo: 0.5, hi: 2.0 }, 23);
    let (tree, tree_edges, off) = tree_setup(&g);
    let pairs: Vec<(usize, usize)> = off.iter().map(|&id| (g.edge(id).u, g.edge(id).v)).collect();
    let rs = tree_resistances(&tree, &pairs);
    for beta in [1usize, 2, 3, 5] {
        let truncated = tree_phase_scores(&g, &tree, &off, &rs, beta);
        for (k, &eid) in off.iter().enumerate() {
            let oracle = exact::trace_reduction_grounded(&g, &tree_edges, eid).unwrap();
            assert!(
                truncated[k] <= oracle * (1.0 + 1e-9),
                "β={beta} edge {eid}: truncated {} must not exceed exact {oracle}",
                truncated[k]
            );
        }
    }
}

#[test]
fn tree_phase_beta5_is_close_to_exact_on_mesh() {
    let g = tri_mesh(10, 10, WeightProfile::Unit, 3);
    let (tree, tree_edges, off) = tree_setup(&g);
    let pairs: Vec<(usize, usize)> = off.iter().map(|&id| (g.edge(id).u, g.edge(id).v)).collect();
    let rs = tree_resistances(&tree, &pairs);
    let truncated = tree_phase_scores(&g, &tree, &off, &rs, 5);
    let mut captured = 0.0;
    let mut total = 0.0;
    for (k, &eid) in off.iter().enumerate() {
        let oracle = exact::trace_reduction_grounded(&g, &tree_edges, eid).unwrap();
        captured += truncated[k];
        total += oracle;
    }
    let coverage = captured / total;
    assert!(coverage > 0.5, "β=5 should capture most of the trace reduction mass, got {coverage}");
}

#[test]
fn subgraph_phase_with_exact_inverse_and_full_beta_matches_oracle() {
    let g = random_connected(20, 25, WeightProfile::LogUniform { lo: 0.3, hi: 3.0 }, 29);
    let n = g.num_nodes();
    let (_, tree_edges, off) = tree_setup(&g);
    // Subgraph = tree + 3 extra edges → genuinely non-tree.
    let mut sub = tree_edges.clone();
    sub.extend(off.iter().take(3).copied());
    let candidates: Vec<usize> = off.iter().skip(3).copied().collect();
    let shifts = vec![1e-6; n];
    let ls = subgraph_laplacian(&g, &sub, &shifts);
    let factor = CholeskyFactor::factorize(&ls, Ordering::MinDegree).unwrap();
    // δ = 0 → exact inverse of L.
    let zinv = ApproxInverse::build(factor.l(), SpaiOptions::with_threshold(0.0)).unwrap();
    let subgraph = g.edge_subgraph(&sub);
    let scores = subgraph_phase_scores(&g, &subgraph, &factor, &zinv, &candidates, n);
    let lsinv = exact::subgraph_inverse(&g, &sub, &shifts).unwrap();
    for (k, &eid) in candidates.iter().enumerate() {
        // Compare against the paper's Eq. 11 (no shift term): rebuild it
        // from the dense inverse minus the shift correction.
        let with_shift = exact::trace_reduction_with_inverse(&g, &lsinv, &shifts, eid);
        let rel = (scores[k] - with_shift).abs() / (1.0 + with_shift.abs());
        assert!(rel < 1e-4, "edge {eid}: spai score {} vs oracle {with_shift}", scores[k]);
    }
}

#[test]
fn subgraph_phase_default_spai_preserves_top_ranking() {
    let g = tri_mesh(9, 9, WeightProfile::LogUniform { lo: 0.5, hi: 2.0 }, 31);
    let n = g.num_nodes();
    let (_, tree_edges, off) = tree_setup(&g);
    let mut sub = tree_edges.clone();
    sub.extend(off.iter().take(4).copied());
    let candidates: Vec<usize> = off.iter().skip(4).copied().collect();
    // A physically-meaningful grounding scale: Algorithm 1's max-relative
    // pruning needs the inverse factor to be localized, and a vanishing
    // shift gives every column of L⁻¹ the same near-nullspace tail.
    let shifts = vec![5e-3; n];
    let ls = subgraph_laplacian(&g, &sub, &shifts);
    let factor = CholeskyFactor::factorize(&ls, Ordering::MinDegree).unwrap();
    let zinv = ApproxInverse::build(factor.l(), SpaiOptions::with_threshold(0.1)).unwrap();
    let subgraph = g.edge_subgraph(&sub);
    let approx = subgraph_phase_scores(&g, &subgraph, &factor, &zinv, &candidates, 5);
    let lsinv = exact::subgraph_inverse(&g, &sub, &shifts).unwrap();
    let exact_scores: Vec<f64> = candidates
        .iter()
        .map(|&eid| exact::trace_reduction_with_inverse(&g, &lsinv, &shifts, eid))
        .collect();
    // The top-10 by approximate score must lie within the exact top-half.
    let rank = |scores: &[f64]| -> Vec<usize> {
        let mut idx: Vec<usize> = (0..scores.len()).collect();
        idx.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap());
        idx
    };
    let ra = rank(&approx);
    let re = rank(&exact_scores);
    let top_half: std::collections::HashSet<usize> = re[..re.len() / 2].iter().copied().collect();
    let hits = ra[..10.min(ra.len())].iter().filter(|&&i| top_half.contains(&i)).count();
    assert!(hits >= 8, "approximate top-10 must mostly agree with exact ranking, hits = {hits}");
}
