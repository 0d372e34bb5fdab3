//! Step-response and delay analysis with parametric reduced models: the
//! timing-analysis workflow interconnect macromodels feed. Simulates a
//! power-grid RC mesh in the time domain (full vs reduced), measures the
//! 50 % delay across process corners, and lists the dominant poles.
//!
//! Run: `cargo run --release -p pmor-bench --example step_response`

use pmor::lowrank::{LowRankOptions, LowRankPmor};
use pmor::transient::{simulate_full, simulate_rom, Stimulus, TransientOptions};
use pmor::Reducer;
use pmor_circuits::generators::{rc_mesh, RcMeshConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sys = rc_mesh(&RcMeshConfig::default()).assemble();
    println!(
        "power-grid mesh: {} nodes, {} regional width parameters, {} pads",
        sys.dim(),
        sys.num_params(),
        sys.num_inputs()
    );

    let rom = LowRankPmor::new(LowRankOptions {
        s_order: 6,
        param_order: 2,
        rank: 2,
        ..Default::default()
    })
    .reduce_once(&sys)?;
    println!("reduced model: {} states", rom.size());

    // Current step into pad 0 (e.g. a di/dt event); watch the pad voltages.
    let stimuli = vec![
        Stimulus::Ramp {
            t0: 0.0,
            rise: 20e-12,
            amplitude: 1.0,
        },
        Stimulus::Zero,
    ];
    let opts = TransientOptions::trapezoidal(1.5e-9, 600);

    // Supply-droop reading: the driven pad's peak voltage excursion (IR +
    // di/dt droop for a 1 A ramp) and how it couples to the remote pad.
    println!(
        "\n{:>24} {:>13} {:>13} {:>13} {:>10}",
        "corner (4 regions)", "droop@pad0", "droop@pad0", "coupled@pad1", "ROM err"
    );
    println!(
        "{:>24} {:>13} {:>13} {:>13} {:>10}",
        "", "full [mV]", "ROM [mV]", "full [mV]", "[%]"
    );
    for corner in [
        [0.0, 0.0, 0.0, 0.0],
        [0.3, 0.3, 0.3, 0.3],
        [-0.3, -0.3, -0.3, -0.3],
        [0.3, -0.3, -0.3, 0.3],
    ] {
        let full = simulate_full(&sys, &corner, &stimuli, &opts)?;
        let red = simulate_rom(&rom, &corner, &stimuli, &opts)?;
        let peak = |r: &pmor::transient::TransientResult, j: usize| {
            r.outputs[j].iter().fold(0.0f64, |a, &b| a.max(b.abs()))
        };
        let pf0 = peak(&full, 0);
        let pr0 = peak(&red, 0);
        let pf1 = peak(&full, 1);
        println!(
            "{:>24} {:>13.3} {:>13.3} {:>13.3} {:>10.2e}",
            format!("{corner:?}"),
            pf0 * 1e3,
            pr0 * 1e3,
            pf1 * 1e3,
            100.0 * (pf0 - pr0).abs() / pf0
        );
    }

    // Dominant poles: the slowest modes, which set the droop's settling
    // time at the slow corner.
    let poles = rom.dominant_poles(&[-0.3, -0.3, -0.3, -0.3], 4)?;
    println!("\ndominant poles at the slow corner:");
    for z in poles {
        println!("  pole {:.4e} rad/s", z.re);
    }
    Ok(())
}
