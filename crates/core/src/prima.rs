//! PRIMA: passive reduced-order interconnect macromodeling (Odabasioglu,
//! Celik, Pileggi — ref \[4\] of the paper).
//!
//! PRIMA computes an orthonormal basis `V` of the block Krylov subspace
//!
//! ```text
//! Kr(A0, R0, k) = colspan{R0, A0·R0, …, A0^(k-1)·R0},
//! A0 = -G0⁻¹C0,    R0 = G0⁻¹B
//! ```
//!
//! and reduces every system matrix by congruence (`G̃ = VᵀGV`, …), which
//! matches the first `k` block moments of the transfer function at `s = 0`
//! and preserves passivity. In this workspace PRIMA serves three roles: the
//! nominal-projection baseline of the paper's figures, the per-sample
//! reduction inside the multi-point method, and the `V0` subspace of
//! Algorithm 1 step 2.1.

use crate::reduce::{Reducer, ReductionContext};
use crate::rom::ParametricRom;
use crate::Result;
use pmor_circuits::ParametricSystem;
use pmor_num::orth::OrthoBasis;
use pmor_num::Matrix;
use pmor_sparse::{CsrMatrix, RealFactor};
use std::ops::Range;

/// Options for a PRIMA reduction.
#[derive(Debug, Clone, PartialEq)]
pub struct PrimaOptions {
    /// Number of block moments matched (`k` Krylov blocks).
    pub num_block_moments: usize,
}

impl Default for PrimaOptions {
    fn default() -> Self {
        PrimaOptions {
            num_block_moments: 8,
        }
    }
}

/// The PRIMA reducer.
///
/// # Example
///
/// ```
/// use pmor_circuits::generators::{clock_tree, ClockTreeConfig};
/// use pmor::prima::{Prima, PrimaOptions};
/// use pmor::{Reducer, ReductionContext};
///
/// # fn main() -> Result<(), pmor::PmorError> {
/// let sys = clock_tree(&ClockTreeConfig { num_nodes: 30, ..Default::default() }).assemble();
/// let rom = Prima::new(PrimaOptions { num_block_moments: 4, ..Default::default() })
///     .reduce(&sys, &mut ReductionContext::new())?;
/// assert!(rom.size() <= 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Prima {
    options: PrimaOptions,
}

impl Prima {
    /// Creates a reducer with the given options.
    pub fn new(options: PrimaOptions) -> Self {
        Prima { options }
    }

    /// Computes the PRIMA projection basis for the system *at its nominal
    /// point* (parameters are ignored; sensitivities are reduced alongside,
    /// which is exactly the "nominal projection" baseline of the paper's
    /// figures), drawing the `G0` factors from the shared context.
    ///
    /// # Errors
    ///
    /// Fails when `G0` is singular.
    pub fn projection(
        &self,
        sys: &ParametricSystem,
        ctx: &mut ReductionContext,
    ) -> Result<Matrix<f64>> {
        let lu = ctx.factor_g0(sys)?;
        let mut basis = OrthoBasis::new(sys.dim());
        krylov_blocks(
            &lu,
            &sys.c0,
            &sys.b,
            self.options.num_block_moments,
            &mut basis,
        )?;
        Ok(basis.to_matrix())
    }
}

impl Reducer for Prima {
    fn name(&self) -> &'static str {
        "prima"
    }

    fn reduce(&self, sys: &ParametricSystem, ctx: &mut ReductionContext) -> Result<ParametricRom> {
        let v = self.projection(sys, ctx)?;
        Ok(ParametricRom::by_congruence(sys, &v))
    }
}

/// The operator a Krylov recurrence of [`krylov_lockstep`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Action {
    /// `A0 = -G⁻¹C` (the moment recurrence).
    Forward,
    /// `Ã0ᵀ = -G⁻ᵀCᵀ` (Algorithm 1 step 2.2), by transpose solves on the
    /// same factors.
    Transpose,
}

/// Builds the block Krylov subspaces `{S, A·S, …, A^(blocks-1)·S}`, one
/// per `(action, start)` pair, each **in its own orthonormal basis**, and
/// returns those bases in input order.
///
/// Building each subspace independently matters: when several subspaces
/// are combined (multi-point samples, Algorithm 1's per-parameter
/// spaces), a starting block that happens to overlap the directions
/// already in the shared basis must still seed its own Krylov recurrence —
/// deflating it against the shared basis up front would silently truncate
/// the subspace.
///
/// The recurrences advance in lockstep: each step applies the current
/// vectors of every forward recurrence as one block (one
/// [`RealFactor::solve_block`]) and those of every transpose recurrence as
/// another. A vector's image needs only that vector, and block solves
/// and block products are bitwise their column forms, so every basis is
/// bit for bit the one a column-at-a-time recurrence builds. Each block
/// solve adds one to `passes`.
pub(crate) fn krylov_lockstep(
    lu: &RealFactor,
    c: &CsrMatrix<f64>,
    starts: &[(Action, Matrix<f64>)],
    blocks: usize,
    passes: &mut usize,
) -> Result<Vec<Matrix<f64>>> {
    let n = lu.dim();
    let mut locals = Vec::with_capacity(starts.len());
    // The range of each basis that the next step applies.
    let mut current: Vec<Range<usize>> = Vec::with_capacity(starts.len());
    for (_, start) in starts {
        let mut local = OrthoBasis::new(n);
        local.insert_block(start);
        current.push(0..local.len());
        locals.push(local);
    }
    for _block in 1..blocks {
        if current.iter().all(Range::is_empty) {
            break; // Krylov spaces exhausted (deflation).
        }
        for action in [Action::Forward, Action::Transpose] {
            let members: Vec<usize> = (0..starts.len())
                .filter(|&r| starts[r].0 == action && !current[r].is_empty())
                .collect();
            if members.is_empty() {
                continue;
            }
            let mut cols: Vec<&[f64]> = Vec::new();
            for &r in &members {
                cols.extend(current[r].clone().map(|k| locals[r].vector(k)));
            }
            let x = Matrix::from_fn(n, cols.len(), |i, j| cols[j][i]);
            *passes += 1;
            let mut w = match action {
                Action::Forward => lu.solve_block(&c.mul_dense(&x))?,
                Action::Transpose => lu.solve_transpose_block(&c.tr_mul_dense(&x))?,
            };
            for v in w.as_mut_slice() {
                *v = -*v;
            }
            let mut at = 0;
            for &r in &members {
                let width = current[r].len();
                let before = locals[r].len();
                locals[r].insert_block(&w.columns(at..at + width));
                at += width;
                current[r] = before..locals[r].len();
            }
        }
    }
    Ok(locals.iter().map(OrthoBasis::to_matrix).collect())
}

/// Builds the PRIMA block Krylov subspace `{R0, A0 R0, …, A0^(blocks-1) R0}`
/// (own basis, then merged into `basis`), where `A0 = -G⁻¹C` and
/// `R0 = G⁻¹B`. Returns the number of new directions contributed and the
/// solve passes made on `lu` (one per column of `B`, one per step).
pub(crate) fn krylov_blocks(
    lu: &RealFactor,
    c: &CsrMatrix<f64>,
    b: &Matrix<f64>,
    blocks: usize,
    basis: &mut OrthoBasis<f64>,
) -> Result<(usize, usize)> {
    // R0 = G⁻¹ B, per column: B's columns are sparse.
    let r0 = lu.solve_dense(b)?;
    let mut passes = b.ncols();
    let local = krylov_lockstep(lu, c, &[(Action::Forward, r0)], blocks, &mut passes)?;
    Ok((basis.insert_block(&local[0]), passes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmor_circuits::generators::{clock_tree, ClockTreeConfig};
    use pmor_circuits::Netlist;
    use pmor_num::Complex64;

    fn small_tree() -> ParametricSystem {
        clock_tree(&ClockTreeConfig {
            num_nodes: 30,
            ..Default::default()
        })
        .assemble()
    }

    #[test]
    fn projection_is_orthonormal() {
        let sys = small_tree();
        let v = Prima::new(PrimaOptions::default())
            .projection(&sys, &mut ReductionContext::new())
            .unwrap();
        let vtv = v.tr_mul_mat(&v);
        assert!(vtv.approx_eq(&Matrix::identity(v.ncols()), 1e-10));
    }

    #[test]
    fn rom_size_bounded_by_km() {
        let sys = small_tree();
        let k = 5;
        let rom = Prima::new(PrimaOptions {
            num_block_moments: k,
        })
        .reduce_once(&sys)
        .unwrap();
        assert!(rom.size() <= k * sys.num_inputs());
        assert!(rom.size() >= 1);
    }

    #[test]
    fn transfer_function_matches_full_model_at_low_frequency() {
        let sys = small_tree();
        let rom = Prima::new(PrimaOptions::default())
            .reduce_once(&sys)
            .unwrap();
        let p = vec![0.0; sys.num_params()];
        let full = crate::eval::FullModel::new(&sys);
        for f_hz in [1e6, 1e8, 1e9] {
            let s = Complex64::jw(2.0 * std::f64::consts::PI * f_hz);
            let h_full = full.transfer(&p, s).unwrap();
            let h_rom = rom.transfer(&p, s).unwrap();
            let err = (h_full[(0, 0)] - h_rom[(0, 0)]).abs() / h_full[(0, 0)].abs();
            assert!(err < 1e-6, "f={f_hz}: err={err}");
        }
    }

    #[test]
    fn moments_match_to_order_k() {
        // PRIMA with k blocks matches the first k transfer-function moments
        // at s=0 (here verified for a single-input system).
        let sys = small_tree();
        let k = 4;
        let rom = Prima::new(PrimaOptions {
            num_block_moments: k,
        })
        .reduce_once(&sys)
        .unwrap();
        let full_moments = crate::moments::nominal_transfer_moments(&sys, k).unwrap();
        let rom_moments = rom.nominal_transfer_moments(k).unwrap();
        for (j, (mf, mr)) in full_moments.iter().zip(rom_moments.iter()).enumerate() {
            let scale = mf.max_abs().max(1e-300);
            let diff = mf.sub_mat(mr).max_abs() / scale;
            assert!(diff < 1e-8, "moment {j} mismatch: {diff}");
        }
    }

    #[test]
    fn passivity_stamps_preserved() {
        let sys = small_tree();
        assert!(sys.has_symmetric_ports());
        let rom = Prima::new(PrimaOptions::default())
            .reduce_once(&sys)
            .unwrap();
        assert!(rom.is_passive_stamp(&vec![0.0; sys.num_params()]).unwrap());
    }

    #[test]
    fn deflation_terminates_early_on_tiny_systems() {
        // A 2-node RC circuit has a 2-dimensional state space; requesting 10
        // moments must deflate, not fail.
        let mut net = Netlist::new(0);
        let n0 = net.add_node();
        let n1 = net.add_node();
        net.add_resistor(Some(n0), None, 50.0);
        net.add_resistor(Some(n0), Some(n1), 100.0);
        net.add_capacitor(Some(n1), None, 1e-12);
        net.add_port(n0);
        let sys = net.assemble();
        let rom = Prima::new(PrimaOptions {
            num_block_moments: 10,
        })
        .reduce_once(&sys)
        .unwrap();
        assert!(rom.size() <= 2);
    }
}
