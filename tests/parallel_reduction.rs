//! Determinism guarantee of the parallel multi-shift reduction path:
//! a [`ReductionContext`] with any worker-thread count must produce
//! bitwise-identical reduced models and identical factorization counters
//! — parallelism buys wall-clock, never a different number.

use pmor::multipoint::{MultiPointOptions, MultiPointPmor};
use pmor::{Reducer, ReducerKind, ReducerTuning, ReductionContext};
use pmor_circuits::generators::{
    clock_tree, power_grid, rc_mesh, rc_random, rlc_bus, ClockTreeConfig, PowerGridConfig,
    RcMeshConfig, RcRandomConfig, RlcBusConfig,
};
use pmor_circuits::ParametricSystem;
use pmor_num::Complex64;
use pmor_sparse::RealFactor;

fn workloads() -> Vec<(&'static str, ParametricSystem)> {
    vec![
        (
            "clock_tree",
            clock_tree(&ClockTreeConfig {
                num_nodes: 40,
                ..Default::default()
            })
            .assemble(),
        ),
        (
            "rc_mesh",
            rc_mesh(&RcMeshConfig {
                rows: 8,
                cols: 8,
                ..Default::default()
            })
            .assemble(),
        ),
    ]
}

/// Transfer probes spanning parameter corners and frequencies.
fn probes(np: usize) -> Vec<(Vec<f64>, Complex64)> {
    let mut out = Vec::new();
    for scale in [0.0, 0.15, -0.25] {
        let p = vec![scale; np];
        for f in [1e7, 1e9, 8e9] {
            out.push((p.clone(), Complex64::jw(2.0 * std::f64::consts::PI * f)));
        }
    }
    out
}

#[test]
fn multishift_methods_are_bitwise_identical_across_thread_counts() {
    for (name, sys) in workloads() {
        for kind in [ReducerKind::MultiPoint, ReducerKind::Fit] {
            let reducer = kind.build_tuned(&sys, &ReducerTuning::default());
            let mut serial_ctx = ReductionContext::with_threads(1);
            let serial = reducer.reduce(&sys, &mut serial_ctx).unwrap();
            for threads in [0usize, 4, 16] {
                let mut ctx = ReductionContext::with_threads(threads);
                let parallel = reducer.reduce(&sys, &mut ctx).unwrap();
                assert_eq!(
                    serial.size(),
                    parallel.size(),
                    "{name}/{}: size drift at {threads} threads",
                    kind.name()
                );
                // Counters are part of the contract: same misses, same
                // hits, independent of scheduling.
                assert_eq!(
                    serial_ctx.real_factorizations(),
                    ctx.real_factorizations(),
                    "{name}/{}",
                    kind.name()
                );
                assert_eq!(serial_ctx.cache_hits(), ctx.cache_hits());
                for (p, s) in probes(sys.num_params()) {
                    let hs = serial.transfer(&p, s).unwrap();
                    let hp = parallel.transfer(&p, s).unwrap();
                    for r in 0..hs.nrows() {
                        for c in 0..hs.ncols() {
                            assert_eq!(
                                hs[(r, c)].re.to_bits(),
                                hp[(r, c)].re.to_bits(),
                                "{name}/{} re at p={p:?} ({threads} threads)",
                                kind.name()
                            );
                            assert_eq!(
                                hs[(r, c)].im.to_bits(),
                                hp[(r, c)].im.to_bits(),
                                "{name}/{} im at p={p:?} ({threads} threads)",
                                kind.name()
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn context_factors_are_front_door_factor_bits_at_any_thread() {
    // The context's factors, serial or batched, must solve bit for bit
    // like `RealFactor::factor` of the same matrix under the same column
    // order, and the counters must read one factorization per distinct
    // matrix.
    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for (name, sys) in workloads() {
        let np = sys.num_params();
        let samples = MultiPointOptions::grid(&vec![(-0.3, 0.3); np], 2, 2).samples;
        let b: Vec<f64> = (0..sys.dim()).map(|i| (i as f64 * 0.37).sin()).collect();
        let scratch = |p: &[f64], lu: &RealFactor| {
            bits(
                &RealFactor::factor(&sys.g_at(p), Some(lu.column_order()))
                    .unwrap()
                    .solve(&b)
                    .unwrap(),
            )
        };
        for threads in [1usize, 0, 4] {
            let mut ctx = ReductionContext::with_threads(threads);
            let factors = ctx.prefactor_g_at(&sys, &samples).unwrap();
            for (p, lu) in samples.iter().zip(&factors) {
                assert_eq!(
                    bits(&lu.solve(&b).unwrap()),
                    scratch(p, lu),
                    "{name}: prefactor at p={p:?} ({threads} threads)"
                );
            }
            assert_eq!(ctx.real_factorizations(), samples.len(), "{name}");
            assert_eq!(ctx.cache_hits(), 0, "{name}");
            // A serial request after the batch factors the same way.
            let p = vec![0.1; np];
            let lu = ctx.factor_g_at(&sys, &p).unwrap();
            assert_eq!(
                bits(&lu.solve(&b).unwrap()),
                scratch(&p, &lu),
                "{name}: factor_g_at ({threads} threads)"
            );
            assert_eq!(ctx.real_factorizations(), samples.len() + 1, "{name}");
        }
    }
}

/// Every factor of the four RC families takes the symmetric `L·D·Lᵀ`
/// path, counted exactly and bitwise identically at any thread count;
/// `rlc_bus`'s asymmetric `G` and a symmetric `G` with a negative pivot
/// fall back to sparse LU.
#[test]
fn rc_families_take_the_symmetric_factor_and_the_rest_fall_back_to_lu() {
    let rc_families = [
        clock_tree(&ClockTreeConfig {
            num_nodes: 40,
            ..Default::default()
        })
        .assemble(),
        rc_random(&RcRandomConfig {
            num_nodes: 60,
            ..Default::default()
        })
        .assemble(),
        rc_mesh(&RcMeshConfig {
            rows: 8,
            cols: 8,
            ..Default::default()
        })
        .assemble(),
        power_grid(&PowerGridConfig {
            rows: 10,
            cols: 10,
            pitch: 4,
            ..Default::default()
        })
        .assemble(),
    ];
    let bus = rlc_bus(&RlcBusConfig {
        segments: 10,
        ..Default::default()
    })
    .assemble();
    // Every conductance negated: still bitwise symmetric, but the first
    // pivot is negative.
    let mut negated = rc_families[0].clone();
    for g in std::iter::once(&mut negated.g0).chain(&mut negated.gi) {
        *g = g.scaled(-1.0);
    }
    let cases = rc_families
        .iter()
        .map(|sys| (sys, true))
        .chain([(&bus, false), (&negated, false)]);
    for (k, (sys, symmetric)) in cases.enumerate() {
        let np = sys.num_params();
        let samples = MultiPointOptions::grid(&vec![(-0.3, 0.3); np], 2, 2).samples;
        let mut serial = None;
        for threads in [1usize, 0, 4] {
            let mut ctx = ReductionContext::with_threads(threads);
            let factors = ctx.prefactor_g_at(sys, &samples).unwrap();
            let g0 = ctx.factor_g0(sys).unwrap();
            for f in factors.iter().chain([&g0]) {
                assert_eq!(f.is_symmetric(), symmetric, "system {k}");
            }
            let stats = ctx.stats();
            let want = if symmetric { samples.len() + 1 } else { 0 };
            assert_eq!(stats.real_factorizations, samples.len() + 1, "system {k}");
            assert_eq!(stats.symmetric_factorizations, want, "system {k}");
            let b: Vec<f64> = (0..sys.dim()).map(|i| (i as f64 * 0.61).cos()).collect();
            let x: Vec<u64> = g0.solve(&b).unwrap().iter().map(|v| v.to_bits()).collect();
            let rom = pmor::rom::to_bytes(
                &ReducerKind::LowRank
                    .build(sys)
                    .reduce(sys, &mut ctx)
                    .unwrap(),
            );
            let after = ctx.stats();
            assert_eq!(
                (after.real_factorizations, after.hits),
                (stats.real_factorizations, stats.hits + 1),
                "system {k}: lowrank reuses G0"
            );
            match &serial {
                None => serial = Some((after, x, rom)),
                Some(want) => assert!(
                    *want == (after, x, rom),
                    "system {k}: {threads} threads differ from serial"
                ),
            }
        }
    }
}

#[test]
fn prefactor_fills_the_cache_so_the_reduction_loop_only_hits() {
    let sys = clock_tree(&ClockTreeConfig {
        num_nodes: 30,
        ..Default::default()
    })
    .assemble();
    let opts = MultiPointOptions::grid(&[(-0.3, 0.3); 3], 2, 2);
    let samples = opts.samples.clone();
    let mut ctx = ReductionContext::with_threads(4);
    let factors = ctx.prefactor_g_at(&sys, &samples).unwrap();
    assert_eq!(factors.len(), 8);
    assert_eq!(ctx.real_factorizations(), 8, "2^3 grid points, all cold");
    assert_eq!(ctx.cache_hits(), 0, "cold prefactor must not count hits");
    // A second prefactor of the same points factors nothing — it serves
    // the same Arcs from the cache (counted as hits, like serial
    // re-requests would be).
    let again = ctx.prefactor_g_at(&sys, &samples).unwrap();
    assert_eq!(ctx.real_factorizations(), 8);
    assert_eq!(ctx.cache_hits(), 8);
    for (a, b) in factors.iter().zip(&again) {
        assert!(std::sync::Arc::ptr_eq(a, b));
    }
    // The reduction itself consumes prefactored Arcs: no new
    // factorizations.
    let before = ctx.real_factorizations();
    MultiPointPmor::new(opts).reduce(&sys, &mut ctx).unwrap();
    assert_eq!(ctx.real_factorizations(), before);
}

#[test]
fn prefactor_rejects_malformed_points() {
    let sys = clock_tree(&ClockTreeConfig {
        num_nodes: 20,
        ..Default::default()
    })
    .assemble();
    let mut ctx = ReductionContext::with_threads(2);
    let err = ctx
        .prefactor_g_at(&sys, &[vec![0.0; sys.num_params() + 1]])
        .unwrap_err();
    assert!(err.to_string().contains("parameters"), "{err}");
    // Nothing was factored or cached.
    assert_eq!(ctx.real_factorizations(), 0);
}

#[test]
fn thread_knob_round_trips() {
    let mut ctx = ReductionContext::with_threads(7);
    assert_eq!(ctx.threads(), 7);
    ctx.set_threads(0);
    assert_eq!(ctx.threads(), 0);
    assert_eq!(ReductionContext::new().threads(), 1, "default is serial");
}
