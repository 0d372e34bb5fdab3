//! Figure 4 — coupled 4-port RLC bus admittance comparison (paper §5.2).
//!
//! Regenerates the `|Y11(f)|` curves of Fig 4 on the two-bit bus
//! (2 × 180 RLC segments, 1086 MNA unknowns, two variational sources):
//! nominal and perturbed full systems against reduced perturbed models
//! from any set of registered reduction methods.
//!
//! Methods are selected by registry name on the command line (default:
//! `prima lowrank multipoint` with the paper's Fig-4 operating points:
//! nominal projection of size 52 = 13 blocks × 4 ports, low-rank size
//! ≈ 144, 3-sample multi-point size ≈ 156). All methods run through
//! `&dyn Reducer` over one shared `ReductionContext`.
//!
//! Run: `cargo run --release -p pmor-bench --bin fig4_rlc_bus [methods...]`

use pmor::eval::FullModel;
use pmor::lowrank::{LowRankOptions, LowRankPmor};
use pmor::multipoint::{MultiPointOptions, MultiPointPmor};
use pmor::prima::{Prima, PrimaOptions};
use pmor::{reducer_by_name, Reducer, ReductionContext};
use pmor_bench::{
    ascii_chart, methods_from_args, print_csv, reduce_all, write_bench_json, BenchRecord,
};
use pmor_circuits::generators::{rlc_bus, RlcBusConfig};
use pmor_circuits::ParametricSystem;
use pmor_variation::sweep::linspace;

/// Figure-tuned reducer options per registry name; anything else falls
/// back to the registry defaults.
fn figure_reducer(name: &str, sys: &ParametricSystem) -> Box<dyn Reducer> {
    match name {
        "prima" => Box::new(Prima::new(PrimaOptions {
            num_block_moments: 13,
        })),
        "lowrank" => Box::new(LowRankPmor::new(LowRankOptions {
            s_order: 13,
            param_order: 3,
            rank: 1,
            include_transpose_subspaces: true,
            ..Default::default()
        })),
        // The paper takes 3 samples in the 2-D variation space
        // (necessarily a partial design); we use the natural axis-aligned
        // choice along the dominant (width) parameter, 13 s-blocks each.
        "multipoint" => Box::new(MultiPointPmor::new(MultiPointOptions::with_samples(
            vec![vec![-0.3, 0.0], vec![0.0, 0.0], vec![0.3, 0.0]],
            13,
        ))),
        other => reducer_by_name(other, sys)
            .unwrap_or_else(|| panic!("unknown reduction method {other:?}")),
    }
}

fn main() {
    let sys = rlc_bus(&RlcBusConfig::default()).assemble();
    println!(
        "# Fig 4 reproduction: coupled RLC bus, {} MNA unknowns, {} ports, {} variational sources",
        sys.dim(),
        sys.num_inputs(),
        sys.num_params()
    );
    let (methods, default_set) = methods_from_args(&["prima", "lowrank", "multipoint"]);

    // Maximum 30% variation, off the multi-point sample diagonal so every
    // method has to genuinely interpolate in the parameter space.
    let p_pert = vec![0.3, -0.3];
    let p_nom = vec![0.0, 0.0];
    // The paper plots 0.5e10 .. 4.5e10 Hz on a linear axis.
    let freqs = linspace(0.5e10, 4.5e10, 81);

    // --- Reduce every selected method through the shared context ----------
    let mut ctx = ReductionContext::new();
    let roms = reduce_all(&methods, &sys, &mut ctx, figure_reducer);

    // --- Evaluation ---------------------------------------------------------
    let full = FullModel::new(&sys);
    let y11 = |ms: Vec<pmor_num::Matrix<pmor_num::Complex64>>| -> Vec<f64> {
        ms.iter().map(|h| h[(0, 0)].abs()).collect()
    };
    let mut series: Vec<(String, Vec<f64>)> = vec![
        (
            "nominal_full".to_string(),
            y11(full
                .frequency_response(&p_nom, &freqs)
                .expect("full nominal")),
        ),
        (
            "perturbed_full".to_string(),
            y11(full
                .frequency_response(&p_pert, &freqs)
                .expect("full perturbed")),
        ),
    ];
    for m in &roms {
        let h = y11(m
            .rom
            .frequency_response(&p_pert, &freqs)
            .unwrap_or_else(|e| panic!("{} ROM evaluation: {e}", m.name)));
        series.push((format!("reduced_{}", m.name), h));
    }
    let series_refs: Vec<(&str, Vec<f64>)> = series
        .iter()
        .map(|(n, v)| (n.as_str(), v.clone()))
        .collect();
    print_csv("freq_hz", &freqs, &series_refs);
    ascii_chart(
        "Fig 4: |Y11(f)| [S], perturbed bus at p = (0.3, -0.3)",
        &series_refs,
        20,
        81,
    );

    // --- Shape checks + machine-readable records ----------------------------
    let rms = |a: &[f64], b: &[f64]| -> f64 {
        (a.iter()
            .zip(b.iter())
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            / a.len() as f64)
            .sqrt()
    };
    let perturbed = series[1].1.clone();
    let separation = rms(&series[0].1, &perturbed);
    println!("# nominal-vs-perturbed separation (rms on |Y11|): {separation:.5}");
    println!("# rms error vs perturbed full model:");
    let workload = format!("rlc_bus({})", sys.dim());
    let mut errs = Vec::new();
    let mut records = Vec::new();
    for (i, m) in roms.iter().enumerate() {
        let e = rms(&series[2 + i].1, &perturbed);
        println!("#   {:<12} {e:.5}", m.name);
        errs.push(e);
        records.push(
            BenchRecord::new(m.name.clone(), workload.clone(), m.seconds)
                .metric("size", m.rom.size() as f64)
                .metric("rms_err_vs_full", e)
                .metric("separation", separation),
        );
    }
    match write_bench_json("fig4", &records) {
        Ok(path) => println!("# wrote {}", path.display()),
        Err(e) => eprintln!("# BENCH_fig4.json not written: {e}"),
    }

    if default_set {
        let (e_nom, e_low, e_mp) = (errs[0], errs[1], errs[2]);
        let (t_low, t_mp) = (roms[1].seconds, roms[2].seconds);
        println!(
            "# paper shape check: nominal-only model inadequate ({}), low-rank captures the variation ({}), multi-point model larger ({}: {} vs {} states) at ~3x the cost ({:.2}x)",
            e_nom > 3.0 * e_low,
            e_low < 0.25 * separation,
            roms[2].rom.size() > roms[1].rom.size(),
            roms[2].rom.size(),
            roms[1].rom.size(),
            t_mp / t_low
        );
        if e_mp <= e_low {
            println!(
                "# note: the paper additionally found the multi-point model *less* accurate; on this \
                 bus the parametric dependence is effectively one-dimensional and any 3-sample design \
                 covers it (see DESIGN.md)"
            );
        }
    }
}
