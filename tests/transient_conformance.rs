//! Conformance suite for the time-domain side of the unified
//! [`TransferModel`] interface: the full sparse model and **every**
//! registered reducer's ROM must tell the same timing story — 50 %-swing
//! delay and overshoot — through `TransferModel::transient`, across
//! generator families. Also pins the transient analysis's determinism
//! guarantee: `threads = 1` and `threads = 4` produce bitwise identical
//! error metrics.

use pmor::eval::FullModel;
use pmor::transient::{Stimulus, TransientOptions};
use pmor::{EvalEngine, EvalWorkspace, ReducerKind, ReductionContext, TransferModel};
use pmor_circuits::generators::{
    clock_tree, rc_mesh, rc_random, ClockTreeConfig, RcMeshConfig, RcRandomConfig,
};
use pmor_circuits::ParametricSystem;
use pmor_variation::analysis::{AnalysisConfig, AnalysisKind};

/// Small instances of the RC generator families (step responses are
/// monotone, so the delay/overshoot metrics are sharp).
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
            "rc_mesh",
            rc_mesh(&RcMeshConfig {
                rows: 10,
                cols: 10,
                ..Default::default()
            })
            .assemble(),
        ),
    ]
}

#[test]
fn full_and_every_rom_agree_on_delay_and_overshoot() {
    for (workload, sys) in workloads() {
        let mut ctx = ReductionContext::new();
        let full = FullModel::new(&sys);
        let full_dyn: &dyn TransferModel = &full;
        assert_eq!(full_dyn.num_inputs(), sys.num_inputs());
        assert_eq!(full_dyn.num_outputs(), sys.num_outputs());

        // Mild off-nominal point (in every method's accurate range) and a
        // window sized from the slowest nominal pole.
        let p: Vec<f64> = (0..sys.num_params())
            .map(|i| if i % 2 == 0 { 0.1 } else { -0.1 })
            .collect();
        let stimuli = vec![
            Stimulus::Step {
                t0: 0.0,
                amplitude: 1.0,
            };
            sys.num_inputs()
        ];
        let mut ws = EvalWorkspace::new();

        for kind in ReducerKind::ALL {
            let rom = kind.build(&sys).reduce(&sys, &mut ctx).unwrap();
            let rom_dyn: &dyn TransferModel = &rom;
            let lambda1 = rom_dyn
                .dominant_poles(&vec![0.0; sys.num_params()], 1)
                .unwrap()[0];
            let opts = TransientOptions::trapezoidal(8.0 / lambda1.abs(), 300);

            let yf = full_dyn.transient(&p, &stimuli, &opts, &mut ws).unwrap();
            let yr = rom_dyn.transient(&p, &stimuli, &opts, &mut ws).unwrap();
            let df = yf
                .delay_50(0)
                .unwrap_or_else(|| panic!("{workload}/{}: full delay undefined", kind.name()));
            let dr = yr
                .delay_50(0)
                .unwrap_or_else(|| panic!("{workload}/{}: rom delay undefined", kind.name()));
            let rel = (df - dr).abs() / df.abs().max(1e-300);
            assert!(
                rel < 0.02,
                "{workload}/{}: delay {dr:.4e} vs full {df:.4e} (rel {rel:.2e})",
                kind.name()
            );
            let gap = (yf.overshoot(0) - yr.overshoot(0)).abs();
            assert!(
                gap < 0.05,
                "{workload}/{}: overshoot gap {gap:.3e}",
                kind.name()
            );
        }
    }
}

#[test]
fn transient_analysis_is_bitwise_deterministic_across_thread_counts() {
    let sys = clock_tree(&ClockTreeConfig {
        num_nodes: 30,
        ..Default::default()
    })
    .assemble();
    let full = FullModel::new(&sys);
    let rom = pmor::reducer_by_name("lowrank", &sys)
        .unwrap()
        .reduce_once(&sys)
        .unwrap();
    let analysis = AnalysisKind::Transient
        .build(&AnalysisConfig {
            instances: Some(5),
            steps: Some(120),
            ..Default::default()
        })
        .unwrap();
    let serial = analysis
        .run(&EvalEngine::new(1), Some(&full), &rom)
        .unwrap();
    let parallel = analysis
        .run(&EvalEngine::new(4), Some(&full), &rom)
        .unwrap();
    for metric in [
        "max_delay_err_percent",
        "mean_delay_err_percent",
        "max_overshoot_err",
        "mean_full_delay_s",
        "t_stop_s",
    ] {
        assert_eq!(
            serial.metric_value(metric).unwrap().to_bits(),
            parallel.metric_value(metric).unwrap().to_bits(),
            "{metric} differs across thread counts"
        );
    }
    // The per-instance delay series is part of the report and must match
    // exactly as well.
    let (a, b) = (serial.csv.as_ref().unwrap(), parallel.csv.as_ref().unwrap());
    for (sa, sb) in a.series.iter().zip(&b.series) {
        for (va, vb) in sa.1.iter().zip(&sb.1) {
            assert_eq!(va.to_bits(), vb.to_bits());
        }
    }
}

#[test]
fn transient_is_registered_like_every_other_analysis() {
    assert_eq!(
        AnalysisKind::from_name("transient"),
        Some(AnalysisKind::Transient)
    );
    assert_eq!(AnalysisKind::ALL.len(), 5);
    let analysis = AnalysisKind::Transient
        .build(&AnalysisConfig::default())
        .unwrap();
    assert_eq!(analysis.name(), "transient");
}
