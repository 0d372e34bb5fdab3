//! The paper's claims (§3.2–§5.2) as checked contracts.
//!
//! Each test rebuilds one figure or table of the paper with the same
//! generator, figure-tuned reducer options, parameter points and
//! frequency grid the reproduction uses, and asserts a bound that fails
//! when the claim is false: accuracy against the figure's own
//! nominal-vs-perturbed separation (what a reader of the plot has to
//! resolve) or against the measured values with a stated slack, cost on
//! deterministic counters (real sparse factorizations, factor nonzeros),
//! never on wall time. `--nocapture` prints the measured values.
//!
//! The Fig 3/4 curves come from `pmor run scenarios/fig3_rc_network.toml`
//! and `scenarios/fig4_rlc_bus.toml`.

use pmor::eval::FullModel;
use pmor::lowrank::{LowRankOptions, LowRankPmor};
use pmor::moments::{SinglePointOptions, SinglePointPmor};
use pmor::multipoint::{MultiPointOptions, MultiPointPmor};
use pmor::opsvd::{lockstep_svd, GeneralizedSensitivities, OperatorSvdOptions};
use pmor::prima::{Prima, PrimaOptions};
use pmor::{ParametricRom, Reducer, ReductionContext};
use pmor_circuits::generators::{
    clock_tree, rc_random, rcnet_a, rcnet_b, rlc_bus, ClockTreeConfig, RcRandomConfig, RlcBusConfig,
};
use pmor_circuits::ParametricSystem;
use pmor_num::{Complex64, Matrix};
use pmor_sparse::{ordering, RealFactor};
use pmor_variation::sweep::{linspace, logspace};

/// `|H₁₁|` along a frequency response.
fn h11(response: Vec<Matrix<Complex64>>) -> Vec<f64> {
    response.iter().map(|h| h[(0, 0)].abs()).collect()
}

fn max_gap(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

fn rms_gap(a: &[f64], b: &[f64]) -> f64 {
    let sum: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    (sum / a.len() as f64).sqrt()
}

/// Reduces in a fresh context, returning the ROM and the real
/// factorizations it cost. ROM bits do not depend on context sharing
/// (`tests/factor_cache.rs`), so this is the figure's ROM.
fn reduce_counted(reducer: &dyn Reducer, sys: &ParametricSystem) -> (ParametricRom, usize) {
    let mut ctx = ReductionContext::new();
    let rom = reducer.reduce(sys, &mut ctx).expect("reduction");
    (rom, ctx.real_factorizations())
}

/// Fig 3 (§5.1): on the 767-unknown RC network at 80% variation the
/// low-rank and multi-point ROMs are indistinguishable from the full
/// perturbed model on the plot's normalized axis; the nominal projection
/// is the clear loser.
#[test]
fn fig3_variational_roms_resolve_the_perturbation_prima_does_not() {
    let sys = rc_random(&RcRandomConfig::default()).assemble();
    let (p_nom, p_pert) = ([0.0, 0.0], [0.8, 0.8]);
    let freqs = logspace(1e7, 1e10, 61);
    // The paper's 8 multi-point samples: the 3×3 grid without its
    // center, which the s-expansion covers.
    let mut samples = MultiPointOptions::grid(&[(-0.7, 0.7); 2], 3, 5).samples;
    samples.retain(|s| !(s[0] == 0.0 && s[1] == 0.0));
    let reducers: [Box<dyn Reducer>; 3] = [
        Box::new(Prima::new(PrimaOptions {
            num_block_moments: 8,
        })),
        Box::new(LowRankPmor::new(LowRankOptions {
            s_order: 8,
            param_order: 4,
            rank: 1,
            ..Default::default()
        })),
        Box::new(MultiPointPmor::new(MultiPointOptions::with_samples(
            samples, 5,
        ))),
    ];

    let full = FullModel::new(&sys);
    let nominal = h11(full.frequency_response(&p_nom, &freqs).expect("full"));
    // The paper's 0..1 amplitude axis: normalized by the nominal DC gain.
    let h0 = nominal[0];
    let norm = |h: Vec<Matrix<Complex64>>| -> Vec<f64> { h11(h).iter().map(|x| x / h0).collect() };
    let nominal: Vec<f64> = nominal.iter().map(|x| x / h0).collect();
    let perturbed = norm(full.frequency_response(&p_pert, &freqs).expect("full"));
    let separation = max_gap(&nominal, &perturbed);
    let gaps: Vec<f64> = reducers
        .iter()
        .map(|r| {
            let (rom, _) = reduce_counted(r.as_ref(), &sys);
            max_gap(
                &norm(rom.frequency_response(&p_pert, &freqs).expect("rom")),
                &perturbed,
            )
        })
        .collect();
    println!("fig3 separation {separation:.4e}, gaps prima/lowrank/multipoint {gaps:.4?}");

    // Measured: separation 0.0148; gaps 0.0147 / 0.0009 / 0.0009.
    let (prima, lowrank, multipoint) = (gaps[0], gaps[1], gaps[2]);
    assert!(separation > 0.01, "perturbation not visible: {separation}");
    assert!(
        lowrank.max(multipoint) <= 0.1 * separation,
        "low-rank {lowrank} / multi-point {multipoint} not within a tenth of {separation}"
    );
    assert!(
        prima > 2.0 * lowrank.max(multipoint),
        "nominal projection ({prima}) is not the clear loser ({lowrank}, {multipoint})"
    );
}

/// Fig 4 (§5.2): on the coupled 4-port RLC bus at 30% variation the
/// nominal-only model cannot follow the perturbed `|Y11|`, the low-rank
/// model captures the variation, and the 3-sample multi-point model is
/// larger and costs three factorizations against low-rank's one.
#[test]
fn fig4_lowrank_captures_bus_variation_with_one_factorization() {
    let sys = rlc_bus(&RlcBusConfig::default()).assemble();
    let (p_nom, p_pert) = ([0.0, 0.0], [0.3, -0.3]);
    let freqs = linspace(0.5e10, 4.5e10, 81);
    let reducers: [Box<dyn Reducer>; 3] = [
        Box::new(Prima::new(PrimaOptions {
            num_block_moments: 13,
        })),
        Box::new(LowRankPmor::new(LowRankOptions {
            s_order: 13,
            param_order: 3,
            rank: 1,
            ..Default::default()
        })),
        // Three samples along the dominant (width) parameter.
        Box::new(MultiPointPmor::new(MultiPointOptions::with_samples(
            vec![vec![-0.3, 0.0], vec![0.0, 0.0], vec![0.3, 0.0]],
            13,
        ))),
    ];

    let full = FullModel::new(&sys);
    let nominal = h11(full.frequency_response(&p_nom, &freqs).expect("full"));
    let perturbed = h11(full.frequency_response(&p_pert, &freqs).expect("full"));
    let separation = rms_gap(&nominal, &perturbed);
    let mut errs = Vec::new();
    let mut sizes = Vec::new();
    let mut factorizations = Vec::new();
    for r in &reducers {
        let (rom, count) = reduce_counted(r.as_ref(), &sys);
        errs.push(rms_gap(
            &h11(rom.frequency_response(&p_pert, &freqs).expect("rom")),
            &perturbed,
        ));
        sizes.push(rom.size());
        factorizations.push(count);
    }
    println!(
        "fig4 separation {separation:.5e}, rms prima/lowrank/multipoint {errs:.5?}, \
         sizes {sizes:?}, factorizations {factorizations:?}"
    );

    // Measured: separation 0.02219; rms 0.00606 / 0.00027 / 0.00005;
    // sizes 52 / 76 / 115.
    let (e_nom, e_low) = (errs[0], errs[1]);
    assert!(e_nom > 3.0 * e_low, "{errs:?}");
    assert!(e_low < 0.25 * separation, "{errs:?}");
    assert!(sizes[2] > sizes[1], "multi-point is not larger: {sizes:?}");
    // The paper's "~3× the cost" as work: one factorization per sample.
    assert_eq!(factorizations[1..], [1, 3]);
    // The paper also found the multi-point model *less* accurate; here it
    // is more accurate (0.00005): the bus's parametric dependence is
    // effectively one-dimensional, and any 3-sample design along it
    // covers it (DESIGN.md, "Notes and deviations").
}

/// Model size (§3.2, §3.3, §4.2) on a 150-node clock tree with three
/// parameters and one port: single-point matching grows with the
/// monomial count `C(k+np+1, np+1)`, multi-point pays `c^np`
/// factorizations, and Algorithm 1 stays within `(4·k_svd·np + 1)·k·m`
/// (the simplified variant within its own bound) at one factorization.
#[test]
fn model_size_lowrank_is_linear_where_single_point_is_combinatorial() {
    let sys = clock_tree(&ClockTreeConfig {
        num_nodes: 150,
        ..Default::default()
    })
    .assemble();
    assert_eq!((sys.num_params(), sys.num_inputs()), (3, 1));

    // (order k, measured size, monomial count C(k+4, 4)).
    for (k, size, monomials) in [(1, 5, 5), (2, 11, 15), (3, 20, 35), (4, 38, 70)] {
        let rom = SinglePointPmor::new(SinglePointOptions { order: k })
            .reduce_once(&sys)
            .expect("single-point");
        assert_eq!(rom.size(), size, "order {k}");
        assert!(size <= monomials);
    }
    for c in 1..=3usize {
        let opts = MultiPointOptions::grid(&[(-0.3, 0.3); 3], c, 4);
        let (rom, count) = reduce_counted(&MultiPointPmor::new(opts), &sys);
        assert_eq!(count, c.pow(3), "c = {c}");
        assert!(rom.size() <= c.pow(3) * 4, "c = {c}: {}", rom.size());
    }
    // (rank, A0ᵀ subspaces, measured size, formula).
    for (rank, transpose, size, formula) in [
        (1, true, 42, (4 * 3 + 1) * 4),
        (2, true, 75, (4 * 2 * 3 + 1) * 4),
        (1, false, 31, (2 * 3 + 1) * 4 + 2 * 3),
        (2, false, 53, (2 * 2 * 3 + 1) * 4 + 2 * 2 * 3),
    ] {
        let reducer = LowRankPmor::new(LowRankOptions {
            s_order: 4,
            param_order: 4,
            rank,
            include_transpose_subspaces: transpose,
            ..Default::default()
        });
        let (rom, count) = reduce_counted(&reducer, &sys);
        assert_eq!((count, rom.size()), (1, size), "{rank}, {transpose}");
        assert!(size <= formula);
    }
}

/// Tree-structured RC net (no long-range couplings): the regime of the
/// paper's "almost linear in the number of circuit nodes" claim.
fn tree_net(n: usize, np: usize) -> ParametricSystem {
    rc_random(&RcRandomConfig {
        num_nodes: n,
        num_params: np,
        extra_resistor_fraction: 0.0,
        coupling_cap_fraction: 0.0,
        ..Default::default()
    })
    .assemble()
}

/// Cost scaling (§4.2) as deterministic work: Algorithm 1 factors `G0`
/// once whatever the moment order, parameter count or circuit size, the
/// factor of a tree net has no fill (so that one factorization is linear
/// in n), and a `c × c` multi-point grid pays `c²` factorizations.
#[test]
fn cost_scaling_one_fill_free_factorization_against_c_to_the_np() {
    let lowrank = |sys: &ParametricSystem, k: usize| -> ReductionContext {
        let mut ctx = ReductionContext::new();
        let opts = LowRankOptions {
            s_order: k,
            param_order: 2,
            rank: 1,
            ..Default::default()
        };
        LowRankPmor::new(opts)
            .reduce(sys, &mut ctx)
            .expect("low-rank");
        assert_eq!(ctx.real_factorizations(), 1, "n = {}, k = {k}", sys.dim());
        ctx
    };
    let sys = tree_net(2000, 2);
    for k in [2, 4, 8, 16] {
        lowrank(&sys, k);
    }
    for np in [1, 2, 4, 8] {
        lowrank(&tree_net(2000, np), 6);
    }
    for n in [1000, 2000, 4000, 8000, 16000] {
        let sys = tree_net(n, 2);
        let prov = lowrank(&sys, 6)
            .provenance_ready(&sys)
            .expect("G0 factored");
        assert_eq!(prov.ordering, "rcm");
        // A tree's `G0` stores `3n − 2` entries; its symmetric factor
        // stands for the `2n − 1` of one triangle and stores exactly as
        // many: no fill.
        assert_eq!((prov.matrix_nnz, prov.factor_nnz), (2 * n - 1, 2 * n - 1));
    }
    let sys = tree_net(4000, 2);
    for c in [2usize, 3] {
        let opts = MultiPointOptions::grid(&[(-0.3, 0.3); 2], c, 6);
        assert_eq!(reduce_counted(&MultiPointPmor::new(opts), &sys).1, c * c);
    }
}

/// Singular-value decay (§4.2, the premise of "a rank-one approximation
/// is usually sufficient"): `s2/s1` of every generalized sensitivity
/// `G0⁻¹Gᵢ`, `G0⁻¹Cᵢ` (in the order G₀, C₀, G₁, C₁, …) holds within 5% of
/// its measured value.
#[test]
fn sensitivity_singular_values_decay_as_measured() {
    // Not every sensitivity decays. On `rlc_bus` the two bits are
    // identical lines, so G₀, C₀ and G₁ have paired singular values
    // (s2/s1 = 1.0: no decay claimed); on `rcnet_a`/`rcnet_b` the first
    // parameter's G reads 0.82 and 0.97.
    let systems = [
        rc_random(&RcRandomConfig::default()).assemble(),
        rlc_bus(&RlcBusConfig::default()).assemble(),
        rcnet_a().assemble(),
        rcnet_b().assemble(),
    ];
    let measured: [&[f64]; 4] = [
        &[0.1932, 0.1025, 0.4346, 0.1276],
        &[1.0, 1.0, 1.0, 0.2546],
        &[0.8165, 0.2067, 0.4051, 0.2684, 0.1414, 0.0248],
        &[0.9668, 0.4398, 0.3575, 0.4139, 0.0615, 0.0094],
    ];
    for (sys, bounds) in systems.iter().zip(measured) {
        let workload = format!("n = {}", sys.dim());
        let lu = RealFactor::factor(&sys.g0, Some(&ordering::rcm(&sys.g0))).expect("G0");
        let mut ratios = Vec::new();
        for i in 0..sys.num_params() {
            for mat in [&sys.gi[i], &sys.ci[i]] {
                let opts = OperatorSvdOptions {
                    rank: 5,
                    oversample: 6,
                    power_iterations: 3,
                    seed: 42 + i as u64,
                };
                let one = GeneralizedSensitivities::new(&lu, vec![mat]);
                let svd = lockstep_svd(&one, &opts, &[opts.seed])
                    .expect("svd")
                    .swap_remove(0);
                ratios.push(svd.sigma[1] / svd.sigma[0]);
            }
        }
        println!("sv decay {workload}: s2/s1 {ratios:.4?}");
        assert_eq!(ratios.len(), bounds.len(), "{workload}");
        for (ratio, bound) in ratios.iter().zip(bounds) {
            assert!(
                *ratio <= bound * 1.05,
                "{workload}: s2/s1 {ratios:?} vs {bounds:?}"
            );
        }
    }
}

/// Worst transfer error of `rom` over the nominal point and the `2^np`
/// corners at ±30%, at 0.1, 1 and 5 GHz, each gap normalized by the full
/// response's scale at that point (pure relative error diverges in the
/// stop band, where `|H| → 0`).
fn grid_error(sys: &ParametricSystem, rom: &ParametricRom) -> f64 {
    let full = FullModel::new(sys);
    let np = sys.num_params();
    let mut points = vec![vec![0.0; np]];
    points.extend((0..1usize << np).map(|mask| {
        (0..np)
            .map(|i| if mask & (1 << i) != 0 { 0.3 } else { -0.3 })
            .collect()
    }));
    let mut worst: f64 = 0.0;
    for p in &points {
        let mut gaps = Vec::new();
        let mut scale: f64 = 0.0;
        for f_hz in [1e8, 1e9, 5e9] {
            let s = Complex64::jw(2.0 * std::f64::consts::PI * f_hz);
            let hf = full.transfer(p, s).expect("full");
            gaps.push(hf.sub_mat(&rom.transfer(p, s).expect("rom")).max_abs());
            scale = scale.max(hf.max_abs());
        }
        worst = gaps
            .into_iter()
            .fold(worst, |w, g| w.max(g / scale.max(1e-300)));
    }
    worst
}

/// Algorithm 1's ablations (§4.1/§4.2) on RCNetB and a 300-unknown
/// random RC net: rank one is already accurate and more rank helps, raw
/// sensitivities are worse than generalized ones, and dropping the `A0ᵀ`
/// subspaces makes the model smaller and worse. Measured errors hold
/// within 10%.
#[test]
fn ablations_rank_generalized_sensitivities_and_transpose_subspaces() {
    let base = LowRankOptions {
        s_order: 10,
        param_order: 3,
        rank: 1,
        ..Default::default()
    };
    let rc300 = RcRandomConfig {
        num_nodes: 300,
        ..Default::default()
    };
    // (workload, sizes and errors at SVD rank 1..4, error with raw
    // `Gᵢ`/`Cᵢ`, size without the `A0ᵀ` subspaces). On rc_random(300),
    // rank 4 is worse than rank 3.
    let cases = [
        (
            rcnet_b().assemble(),
            [38, 63, 89, 111],
            [1.655e-5, 4.400e-6, 1.185e-6, 6.830e-7],
            5.378e-4,
            32,
        ),
        (
            rc_random(&rc300).assemble(),
            [34, 58, 82, 106],
            [1.410e-3, 1.132e-3, 7.342e-4, 9.524e-4],
            7.620e-3,
            26,
        ),
    ];
    for (sys, sizes, errs, raw_err, simplified_size) in &cases {
        let run = |opts: LowRankOptions| -> (usize, f64) {
            let (rom, count) = reduce_counted(&LowRankPmor::new(opts), sys);
            assert_eq!(count, 1);
            (rom.size(), grid_error(sys, &rom))
        };
        let by_rank: Vec<(usize, f64)> = (1..=4)
            .map(|rank| {
                run(LowRankOptions {
                    rank,
                    ..base.clone()
                })
            })
            .collect();
        let raw = run(LowRankOptions {
            approximate_raw_sensitivities: true,
            ..base.clone()
        });
        let no_transpose = run(LowRankOptions {
            include_transpose_subspaces: false,
            ..base.clone()
        });
        println!(
            "ablation n={}: ranks {by_rank:?}, raw {raw:?}, without A0^T {no_transpose:?}",
            sys.dim()
        );

        for (((size, err), m_size), m_err) in by_rank.iter().zip(sizes).zip(errs) {
            assert!(
                size == m_size && *err <= m_err * 1.1,
                "{by_rank:?} vs {errs:?}"
            );
        }
        assert!(
            by_rank[..3].windows(2).all(|r| r[1].1 < r[0].1),
            "{by_rank:?}"
        );
        let (size, generalized) = by_rank[0];
        assert_eq!(raw.0, size, "raw sensitivities change the size");
        assert!(
            raw.1 >= raw_err / 1.1 && raw.1 > 2.0 * generalized,
            "raw {raw:?}"
        );
        assert_eq!(no_transpose.0, *simplified_size);
        assert!(
            no_transpose.0 < size && no_transpose.1 > 2.0 * generalized,
            "{no_transpose:?}"
        );
    }
}
