//! Conformance suite for the unified [`Reducer`] interface: **every**
//! registered reduction method, applied to **every** generator workload
//! family, must produce a finite, passivity-stamped reduced model whose
//! transfer function agrees with the full model at the nominal parameter
//! point — the contract downstream layers (variation analysis, bench
//! harness) rely on when they accept an arbitrary `&dyn Reducer`.

use pmor::eval::FullModel;
use pmor::{reducer_by_name, ReducerKind, ReductionContext};
use pmor_circuits::generators::{
    clock_tree, power_grid, rc_mesh, rc_random, rlc_bus, ClockTreeConfig, PowerGridConfig,
    RcMeshConfig, RcRandomConfig, RlcBusConfig,
};
use pmor_circuits::ParametricSystem;
use pmor_num::Complex64;

/// Small instances of every generator family (kept small so the
/// combinatorial methods stay fast inside the n_methods × n_workloads
/// product).
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
            "rc_random",
            rc_random(&RcRandomConfig {
                num_nodes: 60,
                ..Default::default()
            })
            .assemble(),
        ),
        (
            "rlc_bus",
            rlc_bus(&RlcBusConfig {
                segments: 12,
                ..Default::default()
            })
            .assemble(),
        ),
        (
            // Large enough that even the combinatorial single-point span
            // (order 3 over s + 4 regional parameters × 2 ports) stays a
            // strict reduction.
            "rc_mesh",
            rc_mesh(&RcMeshConfig {
                rows: 12,
                cols: 12,
                ..Default::default()
            })
            .assemble(),
        ),
    ]
}

#[test]
fn every_registered_reducer_conforms_on_every_workload() {
    for (workload, sys) in workloads() {
        // One shared context per system: conformance must hold under
        // factor sharing, which is how production pipelines run.
        let mut ctx = ReductionContext::new();
        let full = FullModel::new(&sys);
        let p0 = vec![0.0; sys.num_params()];
        // Low-frequency point: every moment-matching method is accurate
        // here; this isolates interface-level breakage from method-level
        // accuracy trade-offs probed elsewhere.
        let s = Complex64::jw(2.0 * std::f64::consts::PI * 1e7);
        let h_ref = full.transfer(&p0, s).unwrap();

        for kind in ReducerKind::ALL {
            let reducer = kind.build(&sys);
            assert_eq!(reducer.name(), kind.name());
            let rom = reducer
                .reduce(&sys, &mut ctx)
                .unwrap_or_else(|e| panic!("{workload}/{}: reduction failed: {e}", kind.name()));

            // Finite, nonempty, genuinely reduced.
            assert!(rom.size() >= 1, "{workload}/{}: empty ROM", kind.name());
            assert!(
                rom.size() < sys.dim(),
                "{workload}/{}: no reduction ({} vs {})",
                kind.name(),
                rom.size(),
                sys.dim()
            );
            for m in [&rom.g0, &rom.c0, &rom.b, &rom.l] {
                assert!(
                    m.max_abs().is_finite(),
                    "{workload}/{}: non-finite reduced matrix",
                    kind.name()
                );
            }

            // Congruence on a symmetric-port net preserves the passivity
            // stamp; on voltage-transfer workloads (input ≠ output, e.g.
            // rc_random) the stamp does not apply, so require the implied
            // property instead: stable reduced poles.
            let corner = vec![0.25; sys.num_params()];
            if sys.has_symmetric_ports() {
                for p in [&p0, &corner] {
                    assert!(
                        rom.is_passive_stamp(p).unwrap(),
                        "{workload}/{}: not passive at {p:?}",
                        kind.name()
                    );
                }
            } else {
                for p in [&p0, &corner] {
                    for z in rom.poles(p).unwrap() {
                        assert!(
                            z.re < 0.0,
                            "{workload}/{}: unstable reduced pole {z} at {p:?}",
                            kind.name()
                        );
                    }
                }
            }

            // Transfer agreement with the full model at the nominal point.
            let h = rom.transfer(&p0, s).unwrap();
            let err = h_ref.sub_mat(&h).max_abs() / h_ref.max_abs();
            assert!(
                err < 1e-2,
                "{workload}/{}: nominal transfer error {err}",
                kind.name()
            );
        }
    }
}

#[test]
fn registry_lookup_is_exhaustive_and_case_insensitive() {
    let sys = clock_tree(&ClockTreeConfig {
        num_nodes: 20,
        ..Default::default()
    })
    .assemble();
    for name in ["prima", "moments", "multipoint", "lowrank", "fit"] {
        let r =
            reducer_by_name(name, &sys).unwrap_or_else(|| panic!("{name} missing from registry"));
        assert_eq!(r.name(), name);
        assert!(reducer_by_name(&name.to_uppercase(), &sys).is_some());
    }
    assert!(reducer_by_name("padding-method", &sys).is_none());
    assert_eq!(ReducerKind::ALL.len(), 5);
}

#[test]
fn reducers_share_one_nominal_factorization_per_system() {
    // The whole registry over one system, one context: the nominal G0 is
    // factored once; only off-nominal sampling points add factorizations.
    let sys = clock_tree(&ClockTreeConfig {
        num_nodes: 50,
        ..Default::default()
    })
    .assemble();
    let mut ctx = ReductionContext::new();
    for kind in ReducerKind::ALL {
        kind.build(&sys).reduce(&sys, &mut ctx).unwrap();
    }
    // prima/moments/lowrank share the nominal factors; multipoint's 2^3
    // grid adds 8 off-nominal points; fit's star stencil adds 2*3 = 6
    // (its center sample is the already-cached nominal).
    assert_eq!(ctx.real_factorizations(), 1 + 8 + 6);
    assert!(ctx.cache_hits() >= 3, "hits: {}", ctx.cache_hits());
}

#[test]
fn congruence_roms_of_rc_families_are_bitwise_symmetric() {
    // RC systems stamp every matrix symmetrically, and congruence by one
    // projection mirrors the reduced matrices, so each one equals its
    // transpose bit for bit: the pencil evaluation then runs on the
    // pivot-free LDLᵀ kernel. The RLC bus's MNA `G` is not symmetric,
    // and its ROM keeps the pivoted LU.
    let mut families = workloads();
    families.push((
        "power_grid",
        power_grid(&PowerGridConfig {
            cols: 8,
            rows: 8,
            pitch: 4,
            ..Default::default()
        })
        .assemble(),
    ));
    for (workload, sys) in families {
        let mut ctx = ReductionContext::new();
        for kind in [
            ReducerKind::LowRank,
            ReducerKind::Prima,
            ReducerKind::MultiPoint,
        ] {
            let rom = kind.build(&sys).reduce(&sys, &mut ctx).unwrap();
            let at = format!("{workload}/{}", kind.name());
            if workload == "rlc_bus" {
                assert!(!rom.g0.is_bitwise_symmetric(), "{at}: G̃0");
                continue;
            }
            let matrices = [&rom.g0, &rom.c0].into_iter().chain(&rom.gi).chain(&rom.ci);
            for (i, m) in matrices.enumerate() {
                assert!(m.is_bitwise_symmetric(), "{at}: matrix {i}");
            }
        }
    }
}
