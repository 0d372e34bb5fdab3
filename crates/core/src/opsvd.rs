//! Matrix-implicit low-rank SVD of linear operators.
//!
//! Algorithm 1 step 1 needs the dominant singular triplets of the
//! generalized sensitivity matrices `G0⁻¹Gᵢ` / `G0⁻¹Cᵢ`, which are dense and
//! never formed: only `x ↦ G0⁻¹(Gᵢx)` (one sparse mat-vec + one reuse of the
//! `G0` factors) and its transpose `x ↦ Gᵢᵀ(G0⁻ᵀx)` are available. The paper
//! (§4.2, refs \[14\]\[15\]) proposes iterative sparse SVD via subspace
//! iteration / Lanczos bidiagonalization; here we use the equivalent-cost
//! randomized subspace iteration: Gaussian sketch, a few power iterations,
//! then a small dense SVD. [`lockstep_svd`] runs it for several operators
//! at once, so the sensitivities of Algorithm 1 share each stage's pass
//! over the `G0` factors.

use crate::Result;
use pmor_num::orth::{orthonormalize_columns, OrthoBasis};
use pmor_num::svd::{svd, Svd};
use pmor_num::Matrix;
use pmor_sparse::{CsrMatrix, LinearOperator, RealFactor};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::borrow::Cow;
use std::cell::Cell;
use std::ops::Range;

/// Options for [`operator_svd`].
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorSvdOptions {
    /// Target rank (`k_svd` in the paper; "a rank-one approximation is
    /// usually sufficient").
    pub rank: usize,
    /// Extra sketch columns beyond the target rank.
    pub oversample: usize,
    /// Power iterations sharpening the spectral decay.
    pub power_iterations: usize,
    /// RNG seed for the Gaussian sketch.
    pub seed: u64,
}

impl Default for OperatorSvdOptions {
    fn default() -> Self {
        OperatorSvdOptions {
            rank: 1,
            oversample: 4,
            power_iterations: 2,
            seed: 0x5EED,
        }
    }
}

/// Computes a rank-`opts.rank` approximate SVD of `op` by randomized
/// subspace iteration. Only `op.apply` / `op.apply_transpose` are used.
/// This is the one-operator case of [`lockstep_svd`].
///
/// # Errors
///
/// Propagates small dense SVD failures (practically unreachable).
pub fn operator_svd(op: &dyn LinearOperator, opts: &OperatorSvdOptions) -> Result<Svd> {
    let mut svds = lockstep_svd(&[op][..], opts, &[opts.seed])?;
    Ok(svds.swap_remove(0))
}

/// Operators of one shape whose actions are applied together: member `i`
/// acts on block `i`. [`lockstep_svd`] hands each stage's blocks to one
/// call, so members that share `G0` factors
/// ([`GeneralizedSensitivities`]) are served by one solve pass.
///
/// Each member reads only the input coordinates of its
/// [`OperatorFamily::support`], so its input blocks, and the outputs of
/// its transpose action, have one row per support coordinate. A
/// sensitivity of a regional parameter stores a quarter of the columns
/// of a 128×128 mesh and 2% of some of RCNetB's, so Step 1's sketches,
/// their orthonormalizations and the small SVDs run on that many rows. A
/// member whose support is every coordinate (a generic
/// [`LinearOperator`]) takes the same code with `support = 0..ncols`.
pub trait OperatorFamily {
    /// Number of members.
    fn members(&self) -> usize;

    /// Output dimension of every member.
    fn nrows(&self) -> usize;

    /// Input dimension of every member.
    fn ncols(&self) -> usize;

    /// The input coordinates member `i` reads, ascending: `Aᵢ·x` depends
    /// on no other entry of `x`, and `Aᵢᵀ·y` is `+0` in every other
    /// coordinate.
    fn support(&self, member: usize) -> Cow<'_, [usize]>;

    /// `Aᵢ·Xᵢ` for every member `i`, side by side in one panel, where
    /// `Xᵢ` holds the rows `support(i)` of the input block.
    ///
    /// # Errors
    ///
    /// Propagates a failed solve.
    fn apply_each(&self, xs: &[Matrix<f64>]) -> Result<Panel>;

    /// `Aᵢᵀ·Xᵢ` for every block `Xᵢ` of `xs`, on the rows `support(i)`.
    /// The panel is consumed: the solves run in it, in place.
    ///
    /// # Errors
    ///
    /// Propagates a failed solve.
    fn apply_transpose_each(&self, xs: Panel) -> Result<Vec<Matrix<f64>>>;
}

/// Blocks of one height side by side in one row-major matrix: block `i`
/// is the columns [`Panel::cols`]`(i)`. A family stage writes its
/// members' blocks into one panel and solves it in place, so no stage
/// joins blocks before its solve or splits them after it.
#[derive(Debug, Clone, PartialEq)]
pub struct Panel {
    joined: Matrix<f64>,
    /// One past the last column of each block.
    ends: Vec<usize>,
}

impl Panel {
    /// An all-`+0` panel of `nrows` rows whose blocks are `widths` wide.
    pub fn zeros(nrows: usize, widths: impl IntoIterator<Item = usize>) -> Panel {
        let ends = block_ends(widths);
        Panel {
            joined: Matrix::zeros(nrows, ends.last().copied().unwrap_or(0)),
            ends,
        }
    }

    /// The blocks side by side.
    ///
    /// # Panics
    ///
    /// Panics unless every block has `nrows` rows.
    pub fn from_blocks(nrows: usize, blocks: &[Matrix<f64>]) -> Panel {
        Panel {
            joined: Matrix::hcat(nrows, blocks),
            ends: block_ends(blocks.iter().map(Matrix::ncols)),
        }
    }

    /// Number of blocks.
    pub fn blocks(&self) -> usize {
        self.ends.len()
    }

    /// The columns of block `i`.
    pub fn cols(&self, i: usize) -> Range<usize> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        start..self.ends[i]
    }

    /// A copy of block `i`.
    pub fn block(&self, i: usize) -> Matrix<f64> {
        self.joined.columns(self.cols(i))
    }
}

/// One past the last column of each block, for blocks `widths` wide.
fn block_ends(widths: impl IntoIterator<Item = usize>) -> Vec<usize> {
    widths
        .into_iter()
        .scan(0, |at, w| {
            *at += w;
            Some(*at)
        })
        .collect()
}

/// Independent operators, each applied through its own block actions on
/// every coordinate.
impl OperatorFamily for [&dyn LinearOperator] {
    fn members(&self) -> usize {
        self.len()
    }

    fn nrows(&self) -> usize {
        self.first().map_or(0, |op| op.nrows())
    }

    fn ncols(&self) -> usize {
        self.first().map_or(0, |op| op.ncols())
    }

    fn support(&self, member: usize) -> Cow<'_, [usize]> {
        Cow::Owned((0..self[member].ncols()).collect())
    }

    fn apply_each(&self, xs: &[Matrix<f64>]) -> Result<Panel> {
        let ys: Vec<Matrix<f64>> = self
            .iter()
            .zip(xs)
            .map(|(op, x)| op.apply_dense(x))
            .collect();
        Ok(Panel::from_blocks(OperatorFamily::nrows(self), &ys))
    }

    fn apply_transpose_each(&self, xs: Panel) -> Result<Vec<Matrix<f64>>> {
        Ok(self
            .iter()
            .enumerate()
            .map(|(i, op)| op.apply_transpose_dense(&xs.block(i)))
            .collect())
    }
}

/// Randomized SVDs of every member of `family`, run in lockstep. Member
/// `i` gets, bit for bit, the rank-`opts.rank` approximation that
/// randomized subspace iteration with seed `seeds[i]` computes for it
/// alone: a Gaussian sketch, `opts.power_iterations` power iterations,
/// then a small dense SVD of `Bᵀ = Aᵀ·Q`. Each of those stages hands
/// all members' blocks to one family call. The members' sketches may
/// deflate to different widths.
///
/// Everything on the input side runs on member `i`'s support `Sᵢ`
/// ([`OperatorFamily::support`]) and the result's `v` has one row per
/// coordinate of `Sᵢ`, in its order. The sketch `Ω` is the row-major
/// `ncols × l` Gaussian stream of the seed, of which a row outside `Sᵢ`
/// only advances the generator; the power iterations orthonormalize
/// `Z = Aᵀ·Q` on `Sᵢ`, and the Jacobi SVD factors `Bᵀ` on `Sᵢ`. (`Bᵀ`
/// stays tall there: its `l'` columns are independent, as `Q` spans
/// `Aᵢ`'s range, and it has no other nonzero rows, so `l' ≤ |Sᵢ|`.) On
/// the full length those rows would be `+0` in `Ω`'s products, `Z`, `Bᵀ`
/// and `V̂`, and every term they drop is an exact `+0`: no accumulator of a
/// dot product, norm or Gram entry holds `−0` (each starts at `+0`, and
/// under round-to-nearest a sum is `−0` only when both addends are), and
/// a `+0` row stays `+0` under `axpy`, scaling and Jacobi rotations (the
/// cosine is positive). So the result is bit for bit the full-length
/// one. On perfbench's `reduce_mesh` (a 128×128 mesh whose sensitivities
/// each store a quarter of the columns), this and the in-place panels
/// took the traced projection from 0.250–0.257 s to 0.198–0.217 s (one
/// seed, two runs each) and `reduce_s` from 0.347 to 0.311 s (medians of
/// ten alternating 15 s pairs on a 2-core VM, each won by the change).
///
/// # Errors
///
/// Propagates a failed family action or small dense SVD (practically
/// unreachable).
///
/// # Panics
///
/// Panics unless there is one seed per member.
pub fn lockstep_svd<F: OperatorFamily + ?Sized>(
    family: &F,
    opts: &OperatorSvdOptions,
    seeds: &[u64],
) -> Result<Vec<Svd>> {
    assert_eq!(
        family.members(),
        seeds.len(),
        "lockstep_svd: one seed per member"
    );
    let m = family.nrows();
    let n = family.ncols();
    let l = (opts.rank + opts.oversample).min(m.min(n)).max(1);

    let omegas: Vec<Matrix<f64>> = seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| sketch(seed, l, &family.support(i)))
        .collect();
    let mut y = family.apply_each(&omegas)?;
    drop(omegas);
    for _ in 0..opts.power_iterations {
        let z = family.apply_transpose_each(orthonormalize_blocks(&y))?;
        y = family.apply_each(&orthonormalize_each(&z))?;
    }
    let q = orthonormalize_blocks(&y); // m × l', range of each member

    // B = Qᵀ·A  (l' × n); factor its transpose (tall) with the dense SVD:
    // Bᵀ = W Σ Zᵀ  ⇒  A ≈ Q·B = (Q·Z) Σ Wᵀ.
    let bt = family.apply_transpose_each(q.clone())?; // |Sᵢ| × l'
    bt.iter()
        .enumerate()
        .map(|(i, bt)| {
            let s = svd(bt)?;
            Ok(Svd {
                u: q.block(i).mul_mat(&s.v),
                sigma: s.sigma,
                v: s.u,
            }
            .truncated(opts.rank))
        })
        .collect()
}

/// The Gaussian sketch (Box–Muller from the uniform generator) of one
/// member on its `support` rows: those rows of the row-major `ncols × l`
/// stream of `seed`. A row outside `support` only advances the generator
/// past its `l` draws, and the rows after the last one are not drawn.
fn sketch(seed: u64, l: usize, support: &[usize]) -> Matrix<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_row = 0;
    // `from_fn` fills row by row, left to right: the stream's order.
    Matrix::from_fn(support.len(), l, |k, c| {
        if c == 0 {
            skip_gaussians(&mut rng, (support[k] - next_row) * l);
            next_row = support[k] + 1;
        }
        gaussian(&mut rng)
    })
}

/// Orthonormalizes every block of `panel` on its own, into a panel of
/// the surviving widths.
fn orthonormalize_blocks(panel: &Panel) -> Panel {
    let n = panel.joined.nrows();
    let bases: Vec<OrthoBasis<f64>> = (0..panel.blocks())
        .map(|i| {
            let mut basis = OrthoBasis::new(n);
            basis.insert_columns(&panel.joined, panel.cols(i));
            basis
        })
        .collect();
    let cols: Vec<&[f64]> = bases
        .iter()
        .flat_map(|b| (0..b.len()).map(|k| b.vector(k)))
        .collect();
    Panel {
        joined: Matrix::from_fn(n, cols.len(), |r, c| cols[c][r]),
        ends: block_ends(bases.iter().map(OrthoBasis::len)),
    }
}

fn orthonormalize_each(blocks: &[Matrix<f64>]) -> Vec<Matrix<f64>> {
    blocks.iter().map(orthonormalize_columns).collect()
}

/// Writes `v`, whose row `k` is coordinate `support[k]`, as `n` rows:
/// `+0` outside `support`.
pub(crate) fn scatter_rows(v: &Matrix<f64>, support: &[usize], n: usize) -> Matrix<f64> {
    let mut out = Matrix::zeros(n, v.ncols());
    for (k, &row) in support.iter().enumerate() {
        out.row_mut(row).copy_from_slice(v.row(k));
    }
    out
}

/// The generalized sensitivities `x ↦ G0⁻¹(Mᵢ·x)` of Algorithm 1 for
/// several matrices `Mᵢ` (some `Gᵢ` or `Cᵢ`), applied matrix-implicitly
/// through one shared `G0` factorization; the transpose actions
/// `x ↦ Mᵢᵀ(G0⁻ᵀx)` reuse the same factors (paper §4.2). Each action
/// writes every member's `Mᵢ·Xᵢ` (or takes every `Xᵢ`) into one panel,
/// solves it in place in one block solve and reads each member's columns,
/// so each member's block is bit for bit the column solves of its own
/// block.
///
/// Member `i`'s support is the set of columns `Mᵢ` stores (stored zeros
/// included), and it keeps `Mᵢ` with those columns renumbered
/// ([`CsrMatrix::compact_columns`]): the renumbering is monotone, so the
/// products run the full-length operations in their order.
pub struct GeneralizedSensitivities<'a> {
    g0_lu: &'a RealFactor,
    /// Each member's support and its `Mᵢ` on those columns.
    mats: Vec<(Vec<usize>, CsrMatrix<f64>)>,
    passes: Cell<usize>,
}

impl<'a> GeneralizedSensitivities<'a> {
    /// Wraps the factored `G0` and the sensitivity matrices `Mᵢ`.
    ///
    /// # Panics
    ///
    /// Panics when dimensions disagree.
    pub fn new(g0_lu: &'a RealFactor, mats: Vec<&CsrMatrix<f64>>) -> Self {
        for m in &mats {
            assert_eq!(g0_lu.dim(), m.nrows(), "GeneralizedSensitivities: dim");
            assert_eq!(m.nrows(), m.ncols(), "GeneralizedSensitivities: square");
        }
        GeneralizedSensitivities {
            g0_lu,
            mats: mats.into_iter().map(CsrMatrix::compact_columns).collect(),
            passes: Cell::new(0),
        }
    }

    /// Solve passes made on the `G0` factors so far: one per action that
    /// solved any column.
    pub fn passes(&self) -> usize {
        self.passes.get()
    }
}

impl OperatorFamily for GeneralizedSensitivities<'_> {
    fn members(&self) -> usize {
        self.mats.len()
    }

    fn nrows(&self) -> usize {
        self.g0_lu.dim()
    }

    fn ncols(&self) -> usize {
        self.g0_lu.dim()
    }

    fn support(&self, member: usize) -> Cow<'_, [usize]> {
        Cow::Borrowed(&self.mats[member].0)
    }

    fn apply_each(&self, xs: &[Matrix<f64>]) -> Result<Panel> {
        let mut mx = Panel::zeros(self.g0_lu.dim(), xs.iter().map(Matrix::ncols));
        for (i, ((_, m), x)) in self.mats.iter().zip(xs).enumerate() {
            let at = mx.cols(i).start;
            m.mul_dense_into(x, &mut mx.joined, at);
        }
        let mut passes = self.passes.get();
        solve_each(self.g0_lu, &mut mx, &mut passes)?;
        self.passes.set(passes);
        Ok(mx)
    }

    fn apply_transpose_each(&self, mut xs: Panel) -> Result<Vec<Matrix<f64>>> {
        let mut passes = self.passes.get();
        solve_transpose_each(self.g0_lu, &mut xs, &mut passes)?;
        self.passes.set(passes);
        Ok(self
            .mats
            .iter()
            .enumerate()
            .map(|(i, (_, m))| m.tr_mul_dense_columns(&xs.joined, xs.cols(i)))
            .collect())
    }
}

/// Solves every block of `panel` at once, in place, through one
/// [`RealFactor::solve_block_in_place`]. Each block's result is bit for
/// bit its own solve. Adds the pass to `passes` unless every block is
/// empty.
///
/// # Errors
///
/// Fails unless the panel has `lu.dim()` rows.
pub(crate) fn solve_each(lu: &RealFactor, panel: &mut Panel, passes: &mut usize) -> Result<()> {
    *passes += usize::from(panel.joined.ncols() > 0);
    Ok(lu.solve_block_in_place(&mut panel.joined)?)
}

/// [`solve_each`] for `G0ᵀ`, through
/// [`RealFactor::solve_transpose_block_in_place`].
///
/// # Errors
///
/// Fails unless the panel has `lu.dim()` rows.
pub(crate) fn solve_transpose_each(
    lu: &RealFactor,
    panel: &mut Panel,
    passes: &mut usize,
) -> Result<()> {
    *passes += usize::from(panel.joined.ncols() > 0);
    Ok(lu.solve_transpose_block_in_place(&mut panel.joined)?)
}

/// Advances `rng` as `count` calls of [`gaussian`] would: two uniform
/// draws each.
fn skip_gaussians(rng: &mut StdRng, count: usize) {
    for _ in 0..2 * count {
        rng.next_u64();
    }
}

fn gaussian(rng: &mut StdRng) -> f64 {
    // Box–Muller; avoids a dependency on rand_distr.
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmor_sparse::CooBuilder;

    fn dense_op(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f64) -> Matrix<f64> {
        Matrix::from_fn(rows, cols, f)
    }

    #[test]
    fn recovers_exact_low_rank_matrix() {
        // A = u vᵀ + 0.5 w zᵀ: rank 2.
        let u = [1.0, 2.0, 3.0, 4.0, 5.0];
        let v = [1.0, -1.0, 0.5];
        let w = [0.0, 1.0, 0.0, -1.0, 0.0];
        let z = [1.0, 1.0, 1.0];
        let a = dense_op(5, 3, |r, c| u[r] * v[c] + 0.5 * w[r] * z[c]);
        let s = operator_svd(
            &a,
            &OperatorSvdOptions {
                rank: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(s.reconstruct().approx_eq(&a, 1e-8), "reconstruction failed");
    }

    #[test]
    fn singular_values_match_dense_svd() {
        let a = dense_op(8, 8, |r, c| 1.0 / (1.0 + (r + c) as f64));
        let dense = pmor_num::svd::svd(&a).unwrap();
        let approx = operator_svd(
            &a,
            &OperatorSvdOptions {
                rank: 3,
                power_iterations: 3,
                ..Default::default()
            },
        )
        .unwrap();
        for j in 0..3 {
            let rel = (approx.sigma[j] - dense.sigma[j]).abs() / dense.sigma[j];
            assert!(
                rel < 1e-6,
                "σ{j}: {} vs {}",
                approx.sigma[j],
                dense.sigma[j]
            );
        }
    }

    #[test]
    fn rank_one_error_bounded_by_sigma2() {
        let a = dense_op(10, 10, |r, c| {
            2.0 * ((r == c) as u8 as f64) + 0.1 * ((r * 3 + c) as f64).sin()
        });
        let dense = pmor_num::svd::svd(&a).unwrap();
        let approx = operator_svd(
            &a,
            &OperatorSvdOptions {
                rank: 1,
                power_iterations: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let err = a.sub_mat(&approx.reconstruct());
        // Error of best rank-1 is σ₂ (spectral) ≤ ‖err‖_F ≤ √n σ₂.
        let sigma2 = dense.sigma[1];
        assert!(
            err.norm_fro() <= 10.0 * sigma2,
            "{} vs σ₂={sigma2}",
            err.norm_fro()
        );
    }

    #[test]
    fn generalized_sensitivity_matches_explicit_product() {
        // G0 diagonal, M tridiagonal: G0⁻¹M explicit.
        let n = 12;
        let mut g = CooBuilder::new(n, n);
        for i in 0..n {
            g.add(i, i, (i + 1) as f64);
        }
        let g: CsrMatrix<f64> = g.build_csr();
        let mut m = CooBuilder::new(n, n);
        for i in 0..n {
            m.add(i, i, 1.0);
            if i + 1 < n {
                m.add(i, i + 1, 0.5);
                m.add(i + 1, i, -0.25);
            }
        }
        let m = m.build_csr();
        let lu = RealFactor::factor(&g, None).unwrap();
        let op = GeneralizedSensitivities::new(&lu, vec![&m]);

        let explicit = Matrix::from_fn(n, n, |r, c| m.get(r, c) / (r + 1) as f64);
        let x = Matrix::from_fn(n, 2, |i, j| ((i * 5 + j) as f64).sin());
        assert_eq!(op.support(0).len(), n, "M stores every column");
        let got = op.apply_each(std::slice::from_ref(&x)).unwrap().block(0);
        let want = explicit.mul_mat(&x);
        assert!(got.approx_eq(&want, 1e-12 * want.max_abs()));

        let gt = op
            .apply_transpose_each(Panel::from_blocks(n, std::slice::from_ref(&x)))
            .unwrap();
        let wt = explicit.tr_mul_mat(&x);
        assert!(gt[0].approx_eq(&wt, 1e-12 * wt.max_abs()));
        assert_eq!(op.passes(), 2, "one solve pass per action");
    }

    #[test]
    fn operator_svd_of_generalized_sensitivity() {
        // Rank-one M ⇒ rank-one G0⁻¹M recovered exactly.
        let n = 10;
        let mut g = CooBuilder::new(n, n);
        for i in 0..n {
            g.add(i, i, 2.0 + i as f64);
            if i + 1 < n {
                g.add(i, i + 1, -0.5);
                g.add(i + 1, i, -0.5);
            }
        }
        let g = g.build_csr();
        let mut m = CooBuilder::new(n, n);
        // M = e₃·rowᵀ (rank one).
        for c in 0..n {
            m.add(3, c, 1.0 + c as f64 * 0.1);
        }
        let m = m.build_csr();
        let lu = RealFactor::factor(&g, None).unwrap();
        let op = GeneralizedSensitivities::new(&lu, vec![&m]);
        let o = OperatorSvdOptions::default();
        let s = lockstep_svd(&op, &o, &[o.seed]).unwrap().swap_remove(0);
        assert_eq!(s.sigma.len(), 1);
        // Reconstruction check against the explicitly assembled product.
        let explicit = op.apply_each(&[Matrix::identity(n)]).unwrap().block(0);
        assert!(s
            .reconstruct()
            .approx_eq(&explicit, 1e-8 * explicit.max_abs()));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = dense_op(6, 6, |r, c| ((r * 6 + c) as f64).cos());
        let o = OperatorSvdOptions::default();
        let s1 = operator_svd(&a, &o).unwrap();
        let s2 = operator_svd(&a, &o).unwrap();
        assert_eq!(s1.sigma, s2.sigma);
        assert!(s1.u.approx_eq(&s2.u, 1e-300));
    }
}
