//! Property-based tests for the solver crate.

use proptest::prelude::*;
use tracered_graph::gen::{random_connected, WeightProfile};
use tracered_graph::laplacian::laplacian_with_shifts;
use tracered_graph::Graph;
use tracered_solver::pcg::{pcg, pcg_with_guess, PcgOptions};
use tracered_solver::precond::{
    CholPreconditioner, IcPreconditioner, IdentityPreconditioner, JacobiPreconditioner,
};
use tracered_solver::DirectSolver;

fn arb_system() -> impl Strategy<Value = (Graph, Vec<f64>)> {
    (5usize..40, 0usize..40, 0u64..500).prop_map(|(n, extra, seed)| {
        let g = random_connected(n, extra, WeightProfile::LogUniform { lo: 0.2, hi: 5.0 }, seed);
        let b: Vec<f64> = (0..n).map(|i| (((i * 17 + seed as usize) % 13) as f64) - 6.0).collect();
        (g, b)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_preconditioners_reach_the_same_solution((g, b) in arb_system()) {
        let n = g.num_nodes();
        let a = laplacian_with_shifts(&g, &vec![0.05; n]);
        let opts = PcgOptions { rel_tolerance: 1e-10, max_iterations: 10_000, ..Default::default() };
        let reference = DirectSolver::new_threads(&a, 1).unwrap().solve(&b);
        let x_id = pcg(&a, &b, &IdentityPreconditioner, &opts).x;
        let x_ja = pcg(&a, &b, &JacobiPreconditioner::from_matrix(&a).unwrap(), &opts).x;
        let x_ic = pcg(&a, &b, &IcPreconditioner::from_matrix(&a).unwrap(), &opts).x;
        let x_ch = pcg(&a, &b, &CholPreconditioner::from_matrix(&a).unwrap(), &opts).x;
        let scale = reference.iter().map(|v| v.abs()).fold(1.0, f64::max);
        for x in [&x_id, &x_ja, &x_ic, &x_ch] {
            for (xi, ri) in x.iter().zip(reference.iter()) {
                prop_assert!((xi - ri).abs() < 1e-6 * scale);
            }
        }
    }

    #[test]
    fn ic0_never_needs_more_iterations_than_plain_cg((g, b) in arb_system()) {
        let n = g.num_nodes();
        let a = laplacian_with_shifts(&g, &vec![0.02; n]);
        let opts = PcgOptions { rel_tolerance: 1e-8, max_iterations: 10_000, ..Default::default() };
        let plain = pcg(&a, &b, &IdentityPreconditioner, &opts);
        let ic = pcg(&a, &b, &IcPreconditioner::from_matrix(&a).unwrap(), &opts);
        prop_assert!(ic.converged);
        // IC(0) on an M-matrix is a genuine improvement; allow tiny slack
        // for degenerate cases.
        prop_assert!(ic.iterations <= plain.iterations + 2,
            "IC(0) {} vs plain {}", ic.iterations, plain.iterations);
    }

    #[test]
    fn warm_start_from_exact_solution_is_free((g, b) in arb_system()) {
        let n = g.num_nodes();
        let a = laplacian_with_shifts(&g, &vec![0.05; n]);
        let opts = PcgOptions { rel_tolerance: 1e-9, max_iterations: 10_000, ..Default::default() };
        let x = DirectSolver::new_threads(&a, 1).unwrap().solve(&b);
        let warm = pcg_with_guess(&a, &b, Some(&x), &IdentityPreconditioner, &opts);
        prop_assert!(warm.iterations <= 1);
        prop_assert!(warm.converged);
    }

    #[test]
    fn pcg_monotone_in_tolerance((g, b) in arb_system()) {
        let n = g.num_nodes();
        let a = laplacian_with_shifts(&g, &vec![0.05; n]);
        let pre = JacobiPreconditioner::from_matrix(&a).unwrap();
        let loose = pcg(&a, &b, &pre, &PcgOptions::with_tolerance(1e-3));
        let tight = pcg(&a, &b, &pre, &PcgOptions::with_tolerance(1e-9));
        prop_assert!(loose.iterations <= tight.iterations);
        prop_assert!(loose.rel_residual <= 1e-3 + 1e-15);
        prop_assert!(tight.rel_residual <= 1e-9 + 1e-15);
    }

    #[test]
    fn direct_solver_residual_is_tiny((g, b) in arb_system()) {
        let n = g.num_nodes();
        let a = laplacian_with_shifts(&g, &vec![0.01; n]);
        let x = DirectSolver::new_threads(&a, 1).unwrap().solve(&b);
        let bnorm = b.iter().map(|v| v.abs()).fold(1.0, f64::max);
        prop_assert!(a.residual_inf_norm(&x, &b) < 1e-9 * bnorm);
    }
}
