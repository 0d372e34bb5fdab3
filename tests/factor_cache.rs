//! The acceptance test of the shared-factorization architecture: a
//! realistic pipeline — PRIMA baseline + low-rank Algorithm 1 + the
//! full model's DC response — run over one [`ReductionContext`] must
//! factor the nominal `G0` **exactly once** (paper §4.2's "one-time
//! factorization", held end-to-end across independent consumers instead
//! of per method).

use pmor::eval::FullModel;
use pmor::lowrank::{LowRankOptions, LowRankPmor};
use pmor::prima::{Prima, PrimaOptions};
use pmor::{Reducer, ReductionContext};
use pmor_circuits::generators::{clock_tree, ClockTreeConfig};
use pmor_num::{Complex64, Matrix};

#[test]
fn g0_is_factored_exactly_once_across_prima_lowrank_and_full_eval() {
    let sys = clock_tree(&ClockTreeConfig {
        num_nodes: 60,
        ..Default::default()
    })
    .assemble();
    let mut ctx = ReductionContext::new();

    // 1. PRIMA nominal baseline.
    let prima_rom = Prima::new(PrimaOptions {
        num_block_moments: 6,
    })
    .reduce(&sys, &mut ctx)
    .unwrap();
    assert_eq!(ctx.real_factorizations(), 1, "PRIMA cold miss");

    // 2. Low-rank Algorithm 1: Krylov recurrences, randomized sensitivity
    //    SVDs and transpose subspaces all reuse the SAME factors.
    let (lowrank_rom, stats) = LowRankPmor::new(LowRankOptions {
        s_order: 5,
        param_order: 2,
        rank: 2,
        ..Default::default()
    })
    .reduce_with_stats(&sys, &mut ctx)
    .unwrap();
    assert_eq!(
        stats.factorizations, 0,
        "low-rank refactored despite a warm context"
    );
    assert_eq!(ctx.real_factorizations(), 1, "after low-rank");
    let hits = ctx.cache_hits();
    assert!(hits >= 1, "low-rank did not reuse G0");

    // 3. The full model's DC response H(0) = Lᵀ·G0⁻¹·B on the shared
    //    factors: one cache hit, no new factorization.
    let lu = ctx.factor_g0(&sys).unwrap();
    assert_eq!(ctx.cache_hits(), hits + 1);
    let mut x = Matrix::zeros(sys.dim(), sys.num_inputs());
    for j in 0..sys.b.ncols() {
        x.set_col(j, &lu.solve(&sys.b.col(j)).unwrap());
    }
    let h_dc = sys.l.tr_mul_mat(&x).to_complex();

    // The headline: the whole pipeline performed exactly one real sparse
    // factorization, with every later consumer served from the cache.
    assert_eq!(ctx.real_factorizations(), 1);

    // Sanity that the shared factors produced correct numerics, against
    // the full model's own (context-free) evaluation.
    let p0 = vec![0.0; sys.num_params()];
    let h_dc_ref = FullModel::new(&sys).transfer(&p0, Complex64::ZERO).unwrap();
    assert!(h_dc.sub_mat(&h_dc_ref).max_abs() < 1e-9 * h_dc_ref.max_abs());
    for rom in [&prima_rom, &lowrank_rom] {
        let h = rom.transfer(&p0, Complex64::ZERO).unwrap();
        assert!(h.sub_mat(&h_dc_ref).max_abs() < 1e-6 * h_dc_ref.max_abs());
    }
}

#[test]
fn context_sharing_changes_cost_not_results() {
    // The same reducer with a cold and a warm context must produce
    // bit-identical models.
    let sys = clock_tree(&ClockTreeConfig {
        num_nodes: 40,
        ..Default::default()
    })
    .assemble();
    let reducer = LowRankPmor::with_defaults();

    let cold = reducer.reduce(&sys, &mut ReductionContext::new()).unwrap();

    let mut warm_ctx = ReductionContext::new();
    warm_ctx.factor_g0(&sys).unwrap(); // pre-warm
    let warm = reducer.reduce(&sys, &mut warm_ctx).unwrap();
    assert_eq!(warm_ctx.real_factorizations(), 1);

    assert_eq!(cold.size(), warm.size());
    assert!(cold.g0.approx_eq(&warm.g0, 1e-300));
    assert!(cold.b.approx_eq(&warm.b, 1e-300));
}
