//! Clock-tree variability analysis: how do metal-width variations on three
//! routing layers move the dominant poles of a clock distribution net, and
//! how faithfully does a ~40-state parametric reduced model track them?
//!
//! This is the paper's §5.3 use case as a library workflow: reduce once,
//! then Monte-Carlo over the process distribution at reduced-model cost.
//!
//! Run: `cargo run --release -p pmor-bench --example clock_tree_variability`

use pmor::eval::FullModel;
use pmor::lowrank::{LowRankOptions, LowRankPmor};
use pmor::{EvalEngine, Reducer};
use pmor_circuits::generators::rcnet_a;
use pmor_variation::analysis::{AnalysisConfig, AnalysisKind, ErrorMetric};
use pmor_variation::{MonteCarlo, Summary};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sys = rcnet_a().assemble();
    println!(
        "clock tree: {} nodes, {} metal-width parameters (M5/M6/M7)",
        sys.dim(),
        sys.num_params()
    );

    let rom = LowRankPmor::new(LowRankOptions {
        s_order: 5,
        param_order: 2,
        rank: 2,
        ..Default::default()
    })
    .reduce_once(&sys)?;
    println!("parametric reduced model: {} states", rom.size());

    // Process distribution: each layer width varies ±30% at 3σ (normal).
    let instances = 100;
    let mc = MonteCarlo::paper_protocol(sys.num_params(), instances);

    // Where does the dominant pole (≈ the clock net's bandwidth limit)
    // land across the process distribution, according to the ROM alone?
    let mut dominant: Vec<f64> = Vec::new();
    for p in mc.sample_points() {
        let poles = rom.dominant_poles(&p, 1)?;
        dominant.push(-poles[0].re / (2.0 * std::f64::consts::PI) / 1e9);
    }
    let s = Summary::of(&dominant);
    println!("\ndominant pole across process spread (ROM only):");
    println!(
        "  f = {:.3} GHz mean, {:.3} GHz std, range {:.3}..{:.3} GHz",
        s.mean, s.std, s.min, s.max
    );

    // And how accurate is that, verified against the full model per
    // instance? The registry's Monte-Carlo analysis draws the same
    // instances (same sigma and seed) and compares 5 dominant poles.
    let report = AnalysisKind::MonteCarlo
        .build(&AnalysisConfig {
            instances: Some(instances),
            metric: Some(ErrorMetric::Poles { num_poles: 5 }),
            ..Default::default()
        })?
        .run(&EvalEngine::default(), Some(&FullModel::new(&sys)), &rom)?;
    println!("\nROM-vs-full error over 5 dominant poles x {instances} instances:");
    for line in &report.lines {
        println!("  {line}");
    }
    if let Some(hist) = &report.csv {
        println!("\nerror histogram [%]:");
        let (hi, count) = (&hist.series[0].1, &hist.series[1].1);
        for (i, lo) in hist.x.iter().enumerate() {
            println!(
                "  {lo:>9.2e} .. {:>9.2e} | {}",
                hi[i],
                "#".repeat((count[i] as usize).min(60))
            );
        }
    }
    Ok(())
}
