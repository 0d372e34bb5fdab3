//! Plain reference of `LowRankPmor::projection`: Algorithm 1 one
//! sensitivity at a time, every solve a column solve, every basis update
//! one vector through the plain dot-then-axpy Gram–Schmidt of
//! `mgs_reference`. The reducer batches all of these and must reproduce
//! this basis bit for bit.

use crate::mgs_reference;
use pmor::lowrank::LowRankOptions;
use pmor_circuits::ParametricSystem;
use pmor_num::svd::{svd, Svd};
use pmor_num::Matrix;
use pmor_sparse::{CsrMatrix, SparseLu};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A column action `x ↦ A·x`.
type Action<'a> = &'a dyn Fn(&[f64]) -> Vec<f64>;

/// The Algorithm-1 projection basis of `sys` on the factors `lu` of
/// `G0`.
pub fn projection(sys: &ParametricSystem, lu: &SparseLu<f64>, o: &LowRankOptions) -> Matrix<f64> {
    let n = sys.dim();
    let mut basis = Basis::default();
    let a0 = |v: &[f64]| negated(lu.solve(&sys.c0.mul_vec(v)).unwrap());
    let a0t = |v: &[f64]| negated(lu.solve_transpose(&sys.c0.tr_mul_vec(v)).unwrap());

    // V0 = Kr(A0, G0⁻¹B, s_order).
    let r0 = apply_cols(&|b: &[f64]| lu.solve(b).unwrap(), &sys.b);
    merge(&mut basis, krylov(&a0, &r0, o.s_order));

    let mut seed = o.svd.seed;
    for i in 0..sys.num_params() {
        for mat in [&sys.gi[i], &sys.ci[i]] {
            if mat.nnz() == 0 {
                continue;
            }
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let svd = if o.approximate_raw_sensitivities {
                let raw = randomized_svd(
                    &|x: &[f64]| mat.mul_vec(x),
                    &|x: &[f64]| mat.tr_mul_vec(x),
                    n,
                    o,
                    seed,
                );
                Svd {
                    u: apply_cols(&|u: &[f64]| lu.solve(u).unwrap(), &raw.u),
                    sigma: raw.sigma,
                    v: raw.v,
                }
            } else {
                sensitivity_svd(lu, mat, o, seed)
            };
            merge(&mut basis, krylov(&a0, &svd.u, o.param_order));
            if o.include_transpose_subspaces {
                let vt = apply_cols(&|v: &[f64]| negated(lu.solve_transpose(v).unwrap()), &svd.v);
                merge(&mut basis, krylov(&a0t, &vt, o.param_order));
            } else {
                for j in 0..svd.v.ncols() {
                    basis.insert(&svd.v.col(j));
                }
            }
        }
    }
    basis.to_matrix(n)
}

/// The rank-`o.rank` randomized SVD of `G0⁻¹M` with sketch seed `seed`.
pub fn sensitivity_svd(
    lu: &SparseLu<f64>,
    mat: &CsrMatrix<f64>,
    o: &LowRankOptions,
    seed: u64,
) -> Svd {
    randomized_svd(
        &|x: &[f64]| lu.solve(&mat.mul_vec(x)).unwrap(),
        &|x: &[f64]| mat.tr_mul_vec(&lu.solve_transpose(x).unwrap()),
        lu.dim(),
        o,
        seed,
    )
}

/// Randomized subspace iteration on a square operator of order `n`.
fn randomized_svd(apply: Action, apply_t: Action, n: usize, o: &LowRankOptions, seed: u64) -> Svd {
    let l = (o.rank + o.svd.oversample).min(n).max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let omega = Matrix::from_fn(n, l, |_, _| gaussian(&mut rng));
    let mut y = apply_cols(apply, &omega);
    for _ in 0..o.svd.power_iterations {
        let z = apply_cols(apply_t, &orthonormalized(&y));
        y = apply_cols(apply, &orthonormalized(&z));
    }
    let q = orthonormalized(&y);
    let bt = apply_cols(apply_t, &q);
    let s = svd(&bt).expect("Jacobi converges");
    Svd {
        u: q.mul_mat(&s.v),
        sigma: s.sigma,
        v: s.u,
    }
    .truncated(o.rank)
}

fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// The Krylov space `{S, A·S, …}` of `blocks` blocks in its own basis,
/// one vector at a time.
fn krylov(apply: Action, start: &Matrix<f64>, blocks: usize) -> Vec<Vec<f64>> {
    let mut local = Basis::default();
    let mut current = Vec::new();
    for j in 0..start.ncols() {
        if local.insert(&start.col(j)) {
            current.push(local.last().to_vec());
        }
    }
    for _ in 1..blocks {
        let mut next = Vec::new();
        for v in &current {
            if local.insert(&apply(v)) {
                next.push(local.last().to_vec());
            }
        }
        current = next;
    }
    local.cols
}

fn merge(basis: &mut Basis, vectors: Vec<Vec<f64>>) {
    for v in vectors {
        basis.insert(&v);
    }
}

/// An orthonormal basis grown one vector at a time by the plain
/// Gram–Schmidt of `mgs_reference`.
#[derive(Default)]
struct Basis {
    cols: Vec<Vec<f64>>,
}

impl Basis {
    fn insert(&mut self, v: &[f64]) -> bool {
        mgs_reference::insert(&mut self.cols, v)
    }

    fn last(&self) -> &[f64] {
        &self.cols[self.cols.len() - 1]
    }

    fn to_matrix(&self, dim: usize) -> Matrix<f64> {
        let mut out = Matrix::zeros(dim, self.cols.len());
        for (j, c) in self.cols.iter().enumerate() {
            out.set_col(j, c);
        }
        out
    }
}

fn apply_cols(apply: Action, x: &Matrix<f64>) -> Matrix<f64> {
    let cols: Vec<Vec<f64>> = (0..x.ncols()).map(|j| apply(&x.col(j))).collect();
    let mut out = Matrix::zeros(x.nrows(), cols.len());
    for (j, c) in cols.iter().enumerate() {
        out.set_col(j, c);
    }
    out
}

fn orthonormalized(a: &Matrix<f64>) -> Matrix<f64> {
    let mut b = Basis::default();
    for j in 0..a.ncols() {
        b.insert(&a.col(j));
    }
    b.to_matrix(a.nrows())
}

fn negated(mut v: Vec<f64>) -> Vec<f64> {
    for x in &mut v {
        *x = -*x;
    }
    v
}
