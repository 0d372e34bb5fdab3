//! Time-domain (transient) simulation of full and reduced models.
//!
//! Interconnect macromodels ultimately feed timing analysis; this module
//! closes the loop by integrating the descriptor equation
//!
//! ```text
//! C(p) dx/dt = -G(p) x + B u(t)
//! ```
//!
//! with A-stable one-step methods (backward Euler, trapezoidal). Both work
//! directly on the DAE form (singular `C` is fine: the implicit-step matrix
//! `C/h + θG` is nonsingular whenever the pencil is regular), for the full
//! sparse system and for dense [`ParametricRom`]s — so reduced models can
//! be validated in the domain where they are actually consumed.
//!
//! Both paths are also reachable through the unified evaluation layer:
//! [`crate::TransferModel::transient`] dispatches here for
//! [`crate::eval::FullModel`] (reusing the model's precomputed ordering)
//! and [`ParametricRom`] (reusing [`crate::EvalWorkspace`] buffers via the
//! `_into` assembly/solve variants), which is what lets the
//! `pmor_variation` transient analysis batch time-domain comparisons over
//! parameter points on the [`crate::EvalEngine`].

use crate::engine::EvalWorkspace;
use crate::rom::ParametricRom;
use crate::{PmorError, Result};
use pmor_circuits::ParametricSystem;
use pmor_num::lu::LuFactors;
use pmor_num::{vecops, Matrix};
use pmor_sparse::{ordering, SparseLu};

/// Input stimulus applied to one input port.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stimulus {
    /// Zero input.
    Zero,
    /// `amplitude · 1(t ≥ t0)`.
    Step {
        /// Switching time, s.
        t0: f64,
        /// Final value.
        amplitude: f64,
    },
    /// Linear rise from 0 at `t0` to `amplitude` at `t0 + rise`, then flat.
    Ramp {
        /// Start of the ramp, s.
        t0: f64,
        /// Rise time, s.
        rise: f64,
        /// Final value.
        amplitude: f64,
    },
    /// `amplitude · sin(2πf·t)`.
    Sine {
        /// Frequency, Hz.
        freq_hz: f64,
        /// Peak value.
        amplitude: f64,
    },
}

impl Stimulus {
    /// Evaluates the stimulus at time `t`.
    pub fn at(&self, t: f64) -> f64 {
        match *self {
            Stimulus::Zero => 0.0,
            Stimulus::Step { t0, amplitude } => {
                if t >= t0 {
                    amplitude
                } else {
                    0.0
                }
            }
            Stimulus::Ramp {
                t0,
                rise,
                amplitude,
            } => {
                // A zero-rise ramp degenerates to a step, and the `t < t0`
                // boundary matches `Step` (which is `amplitude` at `t = t0`),
                // so the two shapes agree in the limit `rise → 0`.
                if t < t0 {
                    0.0
                } else if rise <= 0.0 || t >= t0 + rise {
                    amplitude
                } else {
                    amplitude * (t - t0) / rise
                }
            }
            Stimulus::Sine { freq_hz, amplitude } => {
                amplitude * (2.0 * std::f64::consts::PI * freq_hz * t).sin()
            }
        }
    }
}

/// One-step integration scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrationMethod {
    /// First-order, L-stable; damps everything (good default for DAEs).
    BackwardEuler,
    /// Second-order, A-stable; preserves ringing accurately.
    Trapezoidal,
}

/// Transient analysis options.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientOptions {
    /// Simulation end time, s.
    pub t_stop: f64,
    /// Fixed step size, s.
    pub dt: f64,
    /// Integration scheme.
    pub method: IntegrationMethod,
}

impl TransientOptions {
    /// Backward-Euler options with `steps` uniform steps.
    pub fn backward_euler(t_stop: f64, steps: usize) -> Self {
        TransientOptions {
            t_stop,
            dt: t_stop / steps as f64,
            method: IntegrationMethod::BackwardEuler,
        }
    }

    /// Trapezoidal options with `steps` uniform steps.
    pub fn trapezoidal(t_stop: f64, steps: usize) -> Self {
        TransientOptions {
            t_stop,
            dt: t_stop / steps as f64,
            method: IntegrationMethod::Trapezoidal,
        }
    }

    fn validate(&self, num_inputs: usize, stimuli: &[Stimulus]) -> Result<()> {
        if !(self.dt > 0.0 && self.dt.is_finite() && self.t_stop > 0.0 && self.t_stop.is_finite())
            || self.dt > self.t_stop
        {
            return Err(PmorError::Invalid(format!(
                "transient: bad time grid dt={} t_stop={}",
                self.dt, self.t_stop
            )));
        }
        if stimuli.len() != num_inputs {
            return Err(PmorError::Invalid(format!(
                "transient: {} stimuli for {} inputs",
                stimuli.len(),
                num_inputs
            )));
        }
        Ok(())
    }

    fn theta(&self) -> f64 {
        match self.method {
            IntegrationMethod::BackwardEuler => 1.0,
            IntegrationMethod::Trapezoidal => 0.5,
        }
    }
}

/// Result of a transient run: time points and output waveforms.
#[derive(Debug, Clone)]
pub struct TransientResult {
    /// Time points (including `t = 0`).
    pub time: Vec<f64>,
    /// Output samples: `outputs[j][k]` is output `j` at `time[k]`.
    pub outputs: Vec<Vec<f64>>,
}

impl TransientResult {
    /// First time output `j` reaches `level`: a sample sitting exactly at
    /// `level` counts as a crossing, and strict sign changes between
    /// samples are located by linear interpolation. `None` if the
    /// waveform never reaches `level`.
    pub fn crossing_time(&self, j: usize, level: f64) -> Option<f64> {
        let y = &self.outputs[j];
        for k in 0..y.len() {
            if y[k] == level {
                return Some(self.time[k]);
            }
            if k == 0 {
                continue;
            }
            let (a, b) = (y[k - 1], y[k]);
            if (a < level && b > level) || (a > level && b < level) {
                let frac = (level - a) / (b - a);
                return Some(self.time[k - 1] + frac * (self.time[k] - self.time[k - 1]));
            }
        }
        None
    }

    /// 50 %-swing delay of output `j` — the standard interconnect delay
    /// metric: the first time the waveform reaches the midpoint
    /// `y₀ + 0.5·(y_final − y₀)` of its initial→final swing. Measuring
    /// against the swing (not `0.5·y_final`) makes falling edges and
    /// discharge waveforms settling to 0 well defined.
    pub fn delay_50(&self, j: usize) -> Option<f64> {
        let y = &self.outputs[j];
        let (y0, y_final) = (*y.first()?, *y.last()?);
        self.crossing_time(j, y0 + 0.5 * (y_final - y0))
    }

    /// Maximum overshoot of output `j` beyond its final value, measured in
    /// the direction of the initial→final swing (so a falling edge's
    /// undershoot below a negative final value is reported as positive
    /// overshoot), as a fraction of the final value. Returns 0 for flat
    /// waveforms and for final values of exactly 0 (no reference scale).
    pub fn overshoot(&self, j: usize) -> f64 {
        let y = &self.outputs[j];
        let (Some(&y0), Some(&y_final)) = (y.first(), y.last()) else {
            return 0.0;
        };
        if y_final == 0.0 {
            return 0.0;
        }
        let direction = (y_final - y0).signum();
        y.iter()
            .map(|&v| direction * (v - y_final) / y_final.abs())
            .fold(0.0f64, f64::max)
    }
}

/// The blended θ-method input `θ·u(t1) + (1−θ)·u(t0)` of the step
///
/// ```text
/// (C/h + θG) x_{k+1} = (C/h - (1-θ)G) x_k + B·(θ u_{k+1} + (1-θ) u_k)
/// ```
///
/// shared by the sparse and dense paths, written into a reused buffer.
fn blend_inputs(stimuli: &[Stimulus], theta: f64, t0: f64, t1: f64, u: &mut Vec<f64>) {
    u.clear();
    u.extend(
        stimuli
            .iter()
            .map(|s| theta * s.at(t1) + (1.0 - theta) * s.at(t0)),
    );
}

/// Simulates the **full sparse** parametric system at parameter point `p`.
///
/// One sparse factorization of `C/h + θG(p)` is reused for all steps.
/// Computes a fill-reducing ordering per call; evaluation layers that
/// already hold one (e.g. [`crate::eval::FullModel`]) should use
/// [`simulate_full_ordered`].
///
/// # Errors
///
/// Fails when the step matrix is singular (irregular pencil) or the options
/// are inconsistent.
pub fn simulate_full(
    sys: &ParametricSystem,
    p: &[f64],
    stimuli: &[Stimulus],
    opts: &TransientOptions,
) -> Result<TransientResult> {
    simulate_full_ordered(sys, p, stimuli, opts, None)
}

/// [`simulate_full`] with an optional precomputed fill-reducing column
/// ordering for the step matrix (any permutation valid for the union
/// sparsity pattern works — an ordering only affects fill-in, never
/// values). `None` computes an RCM ordering of the step matrix per call.
///
/// # Errors
///
/// See [`simulate_full`].
pub fn simulate_full_ordered(
    sys: &ParametricSystem,
    p: &[f64],
    stimuli: &[Stimulus],
    opts: &TransientOptions,
    perm: Option<&[usize]>,
) -> Result<TransientResult> {
    opts.validate(sys.num_inputs(), stimuli)?;
    let theta = opts.theta();
    let h = opts.dt;
    let g = sys.g_at(p);
    let c = sys.c_at(p);
    // A = C/h + θG,   M = C/h − (1−θ)G.
    let a = c.scaled(1.0 / h).add_scaled(theta, &g);
    let m = c.scaled(1.0 / h).add_scaled(-(1.0 - theta), &g);
    let owned_perm;
    let perm = match perm {
        Some(perm) => perm,
        None => {
            owned_perm = ordering::rcm(&a);
            &owned_perm
        }
    };
    let lu = SparseLu::factor(&a, Some(perm))?;

    let n = sys.dim();
    let steps = (opts.t_stop / h).round() as usize;
    let mut x = vec![0.0; n];
    let samples = steps + 1;
    let mut time = Vec::with_capacity(samples);
    // One exactly sized series per output: `vec![v; n]` clones `v`, and a
    // clone of an empty `Vec` has no capacity, so it grows by doubling.
    let outs = sys.num_outputs();
    let mut outputs: Vec<Vec<f64>> = (0..outs).map(|_| Vec::with_capacity(samples)).collect();
    // Per-step scratch, allocated once and reused via the `_into` paths.
    let mut rhs = Vec::with_capacity(n);
    let mut u = Vec::with_capacity(stimuli.len());
    let mut bu = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(sys.num_outputs());

    let record = |x: &[f64], y: &mut Vec<f64>, outputs: &mut Vec<Vec<f64>>| {
        sys.l.tr_mul_vec_into(x, y);
        for (j, &v) in y.iter().enumerate() {
            outputs[j].push(v);
        }
    };
    time.push(0.0);
    record(&x, &mut y, &mut outputs);

    for k in 0..steps {
        let t0 = k as f64 * h;
        let t1 = t0 + h;
        // rhs = M x + B (θ u1 + (1-θ) u0)
        m.mul_vec_into(&x, &mut rhs);
        blend_inputs(stimuli, theta, t0, t1, &mut u);
        sys.b.mul_vec_into(&u, &mut bu);
        vecops::axpy(1.0, &bu, &mut rhs);
        x = lu.solve(&rhs)?;
        time.push(t1);
        record(&x, &mut y, &mut outputs);
    }
    Ok(TransientResult { time, outputs })
}

/// Simulates a dense [`ParametricRom`] at parameter point `p`.
///
/// # Errors
///
/// Fails when the step matrix is singular or the options are inconsistent.
pub fn simulate_rom(
    rom: &ParametricRom,
    p: &[f64],
    stimuli: &[Stimulus],
    opts: &TransientOptions,
) -> Result<TransientResult> {
    simulate_rom_with(rom, p, stimuli, opts, &mut EvalWorkspace::new())
}

/// [`simulate_rom`] drawing every dense buffer — the assembled
/// `G̃(p)`/`C̃(p)`, the θ-method step matrices, and the per-step
/// state/rhs/input vectors — from a reusable [`EvalWorkspace`] through the
/// `_into` assembly and solve variants, so a batched transient sweep over
/// many parameter points allocates nothing per step. Results are
/// independent of the workspace's history (every buffer is fully
/// overwritten), hence bitwise identical to [`simulate_rom`].
///
/// # Errors
///
/// See [`simulate_rom`].
pub fn simulate_rom_with(
    rom: &ParametricRom,
    p: &[f64],
    stimuli: &[Stimulus],
    opts: &TransientOptions,
    ws: &mut EvalWorkspace,
) -> Result<TransientResult> {
    opts.validate(rom.num_inputs(), stimuli)?;
    let theta = opts.theta();
    let h = opts.dt;
    let n = rom.size();
    rom.g_at_into(p, &mut ws.rom_g);
    rom.c_at_into(p, &mut ws.rom_c);
    // A = C/h + θG,   M = C/h − (1−θ)G, assembled elementwise into the
    // workspace's step-matrix buffers.
    if ws.trans_a.nrows() != n || ws.trans_a.ncols() != n {
        ws.trans_a = Matrix::zeros(n, n);
        ws.trans_m = Matrix::zeros(n, n);
    }
    let inv_h = 1.0 / h;
    let neg = -(1.0 - theta);
    for (((av, mv), &gv), &cv) in ws
        .trans_a
        .as_mut_slice()
        .iter_mut()
        .zip(ws.trans_m.as_mut_slice())
        .zip(ws.rom_g.as_slice())
        .zip(ws.rom_c.as_slice())
    {
        *av = cv * inv_h + theta * gv;
        *mv = cv * inv_h + neg * gv;
    }
    let lu = LuFactors::factor(&ws.trans_a)?;

    let steps = (opts.t_stop / h).round() as usize;
    ws.trans_x.clear();
    ws.trans_x.resize(n, 0.0);
    let samples = steps + 1;
    // pmor-lint: allow(alloc-in-kernel) reason="allocates the returned time series once per simulation, not per step"
    let mut time = Vec::with_capacity(samples);
    // One exactly sized series per output, as in `simulate_full_ordered`.
    let outs = rom.num_outputs();
    // pmor-lint: allow(alloc-in-kernel) reason="allocates one exactly sized series per output once per simulation, not per step"
    let mut outputs: Vec<Vec<f64>> = (0..outs).map(|_| Vec::with_capacity(samples)).collect();

    rom.l.tr_mul_vec_into(&ws.trans_x, &mut ws.trans_y);
    time.push(0.0);
    for (j, &v) in ws.trans_y.iter().enumerate() {
        outputs[j].push(v);
    }

    for k in 0..steps {
        let t0 = k as f64 * h;
        let t1 = t0 + h;
        // rhs = M x + B (θ u1 + (1-θ) u0), all through reused buffers.
        ws.trans_m.mul_vec_into(&ws.trans_x, &mut ws.trans_rhs);
        blend_inputs(stimuli, theta, t0, t1, &mut ws.trans_u);
        rom.b.mul_vec_into(&ws.trans_u, &mut ws.trans_bu);
        vecops::axpy(1.0, &ws.trans_bu, &mut ws.trans_rhs);
        lu.solve_into(&ws.trans_rhs, &mut ws.trans_x)?;
        rom.l.tr_mul_vec_into(&ws.trans_x, &mut ws.trans_y);
        time.push(t1);
        for (j, &v) in ws.trans_y.iter().enumerate() {
            outputs[j].push(v);
        }
    }
    Ok(TransientResult { time, outputs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lowrank::{LowRankOptions, LowRankPmor};
    use crate::reduce::Reducer;
    use pmor_circuits::generators::{clock_tree, ClockTreeConfig};
    use pmor_circuits::Netlist;

    fn rc_lowpass() -> ParametricSystem {
        // Driver 50Ω to ground at n0, series 100Ω to n1, 1pF at n1:
        // current-source step into n0.
        let mut net = Netlist::new(0);
        let n0 = net.add_node();
        let n1 = net.add_node();
        net.add_resistor(Some(n0), None, 50.0);
        net.add_resistor(Some(n0), Some(n1), 100.0);
        net.add_capacitor(Some(n1), None, 1e-12);
        net.add_input(n0);
        net.add_output(n1);
        net.assemble()
    }

    #[test]
    fn step_response_matches_analytic_rc() {
        // v1(t) = 50·(1 − exp(−t/τ)), τ = 150Ω · 1pF (unit current step).
        let sys = rc_lowpass();
        let tau = 150.0 * 1e-12;
        let opts = TransientOptions::trapezoidal(8.0 * tau, 800);
        let stim = [Stimulus::Step {
            t0: 0.0,
            amplitude: 1.0,
        }];
        let res = simulate_full(&sys, &[], &stim, &opts).unwrap();
        for (k, &t) in res.time.iter().enumerate() {
            let expect = 50.0 * (1.0 - (-t / tau).exp());
            let got = res.outputs[0][k];
            assert!(
                (got - expect).abs() < 0.05 * 50.0 / 100.0 + 1e-4 * 50.0,
                "t={t:.3e}: {got} vs {expect}"
            );
        }
        // Final value and 50% delay.
        assert!((res.outputs[0].last().unwrap() - 50.0).abs() < 0.05);
        let d = res.delay_50(0).unwrap();
        let expect_delay = tau * 2.0f64.ln();
        assert!(
            (d - expect_delay).abs() < 0.05 * expect_delay,
            "{d} vs {expect_delay}"
        );
    }

    #[test]
    fn backward_euler_converges_to_same_final_value() {
        let sys = rc_lowpass();
        let stim = [Stimulus::Step {
            t0: 0.0,
            amplitude: 1.0,
        }];
        let tau = 150.0 * 1e-12;
        let be = simulate_full(
            &sys,
            &[],
            &stim,
            &TransientOptions::backward_euler(10.0 * tau, 400),
        )
        .unwrap();
        assert!((be.outputs[0].last().unwrap() - 50.0).abs() < 0.1);
        // BE never overshoots a first-order response.
        assert!(be.overshoot(0) < 1e-9);
    }

    #[test]
    fn rom_transient_matches_full_transient() {
        let sys = clock_tree(&ClockTreeConfig {
            num_nodes: 40,
            ..Default::default()
        })
        .assemble();
        let rom = LowRankPmor::new(LowRankOptions {
            s_order: 6,
            param_order: 2,
            rank: 2,
            ..Default::default()
        })
        .reduce_once(&sys)
        .unwrap();
        let p = [0.2, -0.2, 0.1];
        let stim = [Stimulus::Ramp {
            t0: 0.0,
            rise: 30e-12,
            amplitude: 1.0,
        }];
        let opts = TransientOptions::trapezoidal(2e-9, 400);
        let full = simulate_full(&sys, &p, &stim, &opts).unwrap();
        let red = simulate_rom(&rom, &p, &stim, &opts).unwrap();
        let scale = full.outputs[0].iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        for k in 0..full.time.len() {
            let d = (full.outputs[0][k] - red.outputs[0][k]).abs();
            assert!(d < 1e-3 * scale, "step {k}: {d} vs scale {scale}");
        }
        // Delay metric agrees to sub-picosecond.
        let df = full.delay_50(0).unwrap();
        let dr = red.delay_50(0).unwrap();
        assert!((df - dr).abs() < 1e-12, "{df} vs {dr}");
    }

    #[test]
    fn sine_steady_state_amplitude_matches_transfer_function() {
        let sys = rc_lowpass();
        let f_hz = 1.0e9;
        let stim = [Stimulus::Sine {
            freq_hz: f_hz,
            amplitude: 1.0,
        }];
        // Long run to pass the transient; fine steps for phase accuracy.
        let opts = TransientOptions::trapezoidal(20.0 / f_hz, 4000);
        let res = simulate_full(&sys, &[], &stim, &opts).unwrap();
        // Steady-state peak over the last 2 periods.
        let n = res.time.len();
        let peak = res.outputs[0][(n * 9 / 10)..]
            .iter()
            .fold(0.0f64, |a, &b| a.max(b.abs()));
        let h = crate::eval::FullModel::new(&sys)
            .transfer(
                &[],
                pmor_num::Complex64::jw(2.0 * std::f64::consts::PI * f_hz),
            )
            .unwrap()[(0, 0)]
            .abs();
        assert!((peak - h).abs() < 0.02 * h, "peak {peak} vs |H| {h}");
    }

    #[test]
    fn stimulus_shapes() {
        let s = Stimulus::Step {
            t0: 1.0,
            amplitude: 2.0,
        };
        assert_eq!(s.at(0.5), 0.0);
        assert_eq!(s.at(1.0), 2.0);
        let r = Stimulus::Ramp {
            t0: 1.0,
            rise: 2.0,
            amplitude: 4.0,
        };
        assert_eq!(r.at(0.5), 0.0);
        assert_eq!(r.at(2.0), 2.0);
        assert_eq!(r.at(5.0), 4.0);
        assert_eq!(Stimulus::Zero.at(123.0), 0.0);
    }

    #[test]
    fn bad_options_rejected() {
        let sys = rc_lowpass();
        let stim = [Stimulus::Zero];
        assert!(simulate_full(
            &sys,
            &[],
            &stim,
            &TransientOptions {
                t_stop: 1.0,
                dt: 0.0,
                method: IntegrationMethod::BackwardEuler
            }
        )
        .is_err());
        // Wrong stimulus count.
        assert!(simulate_full(&sys, &[], &[], &TransientOptions::trapezoidal(1e-9, 10)).is_err());
        // A non-finite grid (e.g. a window auto-sized from a pole at the
        // origin) must be rejected, not silently produce zero steps.
        assert!(simulate_full(
            &sys,
            &[],
            &stim,
            &TransientOptions {
                t_stop: f64::INFINITY,
                dt: f64::INFINITY,
                method: IntegrationMethod::Trapezoidal
            }
        )
        .is_err());
    }

    #[test]
    fn crossing_time_interpolates() {
        let res = TransientResult {
            time: vec![0.0, 1.0, 2.0],
            outputs: vec![vec![0.0, 1.0, 1.0]],
        };
        let t = res.crossing_time(0, 0.5).unwrap();
        assert!((t - 0.5).abs() < 1e-12);
        assert!(res.crossing_time(0, 2.0).is_none());
    }

    #[test]
    fn crossing_time_counts_exact_samples() {
        let res = TransientResult {
            time: vec![0.0, 1.0, 2.0],
            outputs: vec![vec![0.0, 0.5, 1.0]],
        };
        assert_eq!(res.crossing_time(0, 0.5), Some(1.0));
        assert_eq!(res.crossing_time(0, 0.0), Some(0.0));
    }

    #[test]
    fn falling_edge_delay_is_defined() {
        // A discharge waveform settling to 0: the 50% level is the
        // midpoint of the initial→final swing, crossed exactly at t = 1.
        let res = TransientResult {
            time: vec![0.0, 1.0, 2.0, 3.0],
            outputs: vec![vec![8.0, 4.0, 1.0, 0.0]],
        };
        let d = res.delay_50(0).unwrap();
        assert!((d - 1.0).abs() < 1e-12, "{d}");
        // A falling edge settling to a negative value: threshold −2,
        // crossed two thirds into the first interval.
        let neg = TransientResult {
            time: vec![0.0, 1.0, 2.0],
            outputs: vec![vec![0.0, -3.0, -4.0]],
        };
        let d = neg.delay_50(0).unwrap();
        assert!((d - 2.0 / 3.0).abs() < 1e-12, "{d}");
    }

    #[test]
    fn overshoot_measures_the_swing_direction() {
        let mk = |samples: Vec<f64>| TransientResult {
            time: (0..samples.len()).map(|k| k as f64).collect(),
            outputs: vec![samples],
        };
        // Rising past a positive final value — unchanged semantics.
        assert!((mk(vec![0.0, 1.2, 1.0]).overshoot(0) - 0.2).abs() < 1e-12);
        // Falling past a negative final value: the undershoot below the
        // final value is the overshoot of that edge.
        assert!((mk(vec![0.0, -1.2, -1.0]).overshoot(0) - 0.2).abs() < 1e-12);
        // Excursions on the settling side never count.
        assert_eq!(mk(vec![0.0, 0.5, 1.0]).overshoot(0), 0.0);
        assert_eq!(mk(vec![0.0, -0.5, -1.0]).overshoot(0), 0.0);
    }

    #[test]
    fn zero_rise_ramp_degenerates_to_step() {
        let step = Stimulus::Step {
            t0: 1.0,
            amplitude: 2.0,
        };
        let ramp = Stimulus::Ramp {
            t0: 1.0,
            rise: 0.0,
            amplitude: 2.0,
        };
        for t in [0.0, 0.999, 1.0, 1.001, 5.0] {
            assert_eq!(step.at(t), ramp.at(t), "t = {t}");
        }
    }

    #[test]
    fn workspace_reuse_is_bitwise_identical_across_systems() {
        // One workspace serving two ROMs of different sizes back and
        // forth reproduces the fresh-workspace results bit for bit.
        let sys_a = clock_tree(&ClockTreeConfig {
            num_nodes: 30,
            ..Default::default()
        })
        .assemble();
        let sys_b = clock_tree(&ClockTreeConfig {
            num_nodes: 50,
            ..Default::default()
        })
        .assemble();
        let rom_a = LowRankPmor::with_defaults().reduce_once(&sys_a).unwrap();
        let rom_b = LowRankPmor::with_defaults().reduce_once(&sys_b).unwrap();
        let stim_a = vec![
            Stimulus::Step {
                t0: 0.0,
                amplitude: 1.0,
            };
            rom_a.num_inputs()
        ];
        let stim_b = vec![
            Stimulus::Step {
                t0: 0.0,
                amplitude: 1.0,
            };
            rom_b.num_inputs()
        ];
        let opts = TransientOptions::trapezoidal(1e-9, 120);
        let p = [0.1, -0.1, 0.2];
        let mut ws = EvalWorkspace::new();
        for _ in 0..2 {
            let a = simulate_rom_with(&rom_a, &p, &stim_a, &opts, &mut ws).unwrap();
            let b = simulate_rom_with(&rom_b, &p, &stim_b, &opts, &mut ws).unwrap();
            let fresh_a = simulate_rom(&rom_a, &p, &stim_a, &opts).unwrap();
            let fresh_b = simulate_rom(&rom_b, &p, &stim_b, &opts).unwrap();
            for k in 0..a.time.len() {
                assert_eq!(a.outputs[0][k].to_bits(), fresh_a.outputs[0][k].to_bits());
                assert_eq!(b.outputs[0][k].to_bits(), fresh_b.outputs[0][k].to_bits());
            }
        }
    }
}
