//! Property tests pinning the parallel scoring engine's determinism
//! contract: for every thread count, scores and the Hutchinson trace
//! estimate are **bit-identical** to the serial (`threads = 1`) path, in
//! the same candidate order.

use proptest::prelude::*;
use tracered_core::criticality::{subgraph_phase_scores_threads, tree_phase_scores_threads};
use tracered_core::grass::{grass_scores_threads, probe_rng};
use tracered_core::metrics::trace_proxy_hutchinson_threads;
use tracered_core::{sparsify, Method, SparsifyConfig};
use tracered_graph::gen::{random_connected, WeightProfile};
use tracered_graph::laplacian::{laplacian_with_shifts, subgraph_laplacian};
use tracered_graph::lca::tree_resistances;
use tracered_graph::mst::{spanning_tree, TreeKind};
use tracered_graph::{Graph, RootedTree};
use tracered_sparse::order::Ordering;
use tracered_sparse::{ApproxInverse, CholeskyFactor, SpaiOptions};

fn arb_graph() -> impl Strategy<Value = Graph> {
    (12usize..40, 8usize..60, 0u64..500).prop_map(|(n, extra, seed)| {
        random_connected(n, extra, WeightProfile::LogUniform { lo: 0.2, hi: 5.0 }, seed)
    })
}

fn tree_setup(g: &Graph) -> (RootedTree, Vec<usize>, Vec<f64>) {
    let st = spanning_tree(g, TreeKind::MaxEffectiveWeight).unwrap();
    let tree = RootedTree::build(g, &st.tree_edges, 0).unwrap();
    let pairs: Vec<(usize, usize)> =
        st.off_tree_edges.iter().map(|&id| (g.edge(id).u, g.edge(id).v)).collect();
    let rs = tree_resistances(&tree, &pairs);
    (tree, st.off_tree_edges, rs)
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn tree_phase_parallel_is_bit_identical(g in arb_graph(), beta in 0usize..6, threads in 2usize..9) {
        let (tree, candidates, rs) = tree_setup(&g);
        let serial = tree_phase_scores_threads(&g, &tree, &candidates, &rs, beta, 1);
        let par = tree_phase_scores_threads(&g, &tree, &candidates, &rs, beta, threads);
        prop_assert!(bits_equal(&serial, &par), "beta {beta}, {threads} threads");
    }

    #[test]
    fn subgraph_phase_parallel_is_bit_identical(g in arb_graph(), beta in 1usize..5, threads in 2usize..9) {
        let st = spanning_tree(&g, TreeKind::MaxEffectiveWeight).unwrap();
        let shift = 1e-3 * 2.0 * g.total_weight() / g.num_nodes() as f64;
        let shifts = vec![shift; g.num_nodes()];
        let ls = subgraph_laplacian(&g, &st.tree_edges, &shifts);
        let factor = CholeskyFactor::factorize(&ls, Ordering::MinDegree).unwrap();
        let zinv = ApproxInverse::build(factor.l(), SpaiOptions::with_threshold(0.1)).unwrap();
        let sub = g.edge_subgraph(&st.tree_edges);
        let serial = subgraph_phase_scores_threads(
            &g, &sub, &factor, &zinv, &st.off_tree_edges, beta, 1,
        );
        let par = subgraph_phase_scores_threads(
            &g, &sub, &factor, &zinv, &st.off_tree_edges, beta, threads,
        );
        prop_assert!(bits_equal(&serial, &par), "beta {beta}, {threads} threads");
    }

    #[test]
    fn grass_parallel_is_bit_identical(g in arb_graph(), threads in 2usize..9, seed in 0u64..50) {
        let st = spanning_tree(&g, TreeKind::MaxEffectiveWeight).unwrap();
        let shifts = vec![1e-3; g.num_nodes()];
        let lg = laplacian_with_shifts(&g, &shifts);
        let ls = subgraph_laplacian(&g, &st.tree_edges, &shifts);
        let factor = CholeskyFactor::factorize(&ls, Ordering::MinDegree).unwrap();
        let serial = grass_scores_threads(
            &g, &lg, &factor, &st.off_tree_edges, 2, 3, &mut probe_rng(seed), 1,
        );
        let par = grass_scores_threads(
            &g, &lg, &factor, &st.off_tree_edges, 2, 3, &mut probe_rng(seed), threads,
        );
        prop_assert!(bits_equal(&serial, &par), "{threads} threads, seed {seed}");
    }

    #[test]
    fn hutchinson_parallel_is_bit_identical(g in arb_graph(), threads in 2usize..9, seed in 0u64..50) {
        // Seven probes leave a partial last round at most thread counts.
        let st = spanning_tree(&g, TreeKind::MaxEffectiveWeight).unwrap();
        let shifts = vec![1e-3; g.num_nodes()];
        let lg = laplacian_with_shifts(&g, &shifts);
        let ls = subgraph_laplacian(&g, &st.tree_edges, &shifts);
        let factor = CholeskyFactor::factorize(&ls, Ordering::MinDegree).unwrap();
        let serial = trace_proxy_hutchinson_threads(&lg, &factor, 7, seed, 1);
        let par = trace_proxy_hutchinson_threads(&lg, &factor, 7, seed, threads);
        prop_assert_eq!(serial.to_bits(), par.to_bits(), "{} threads, seed {}", threads, seed);
    }

    #[test]
    fn full_pipeline_is_thread_count_invariant(g in arb_graph(), threads in 2usize..9) {
        for method in [Method::TraceReduction, Method::Grass, Method::EffectiveResistance] {
            let serial = sparsify(&g, &SparsifyConfig::new(method)).unwrap();
            let par = sparsify(
                &g,
                &SparsifyConfig::new(method).threads(Some(threads)),
            )
            .unwrap();
            prop_assert_eq!(
                serial.edge_ids(),
                par.edge_ids(),
                "{:?} selection changed at {} threads",
                method,
                threads
            );
            prop_assert!(par.report().iterations.iter().all(|it| it.threads == threads));
        }
    }
}
