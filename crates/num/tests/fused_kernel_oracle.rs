//! Oracle: the fused Gram–Schmidt kernels are bitwise their
//! one-at-a-time forms.
//!
//! `OrthoBasis::insert_block` runs the first Gram–Schmidt pass of all its
//! columns against the existing basis in one sweep per basis vector
//! (`vecops::axpy_dot_each`), and every pass applies an update in the
//! same sweep as the next inner product (`vecops::axpy_dot`). These
//! tests pin `insert` and `insert_block` to the plain dot-then-axpy
//! reference in `support/mgs_reference.rs`, and the two kernels to
//! `axpy` followed by `dot`, bit for bit, on dense, zero, non-finite and
//! dependent input, for `f64` and `Complex64`.

#[path = "support/mgs_reference.rs"]
mod mgs_reference;

use pmor_num::orth::OrthoBasis;
use pmor_num::{vecops, Complex64, Matrix, Scalar};

/// Deterministic values in `[-1, 1)` (xorshift), no RNG crate needed.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % 2_000_001) as f64 / 1_000_000.0 - 1.0
    }
}

trait Bits: Scalar {
    fn random(s: &mut Stream) -> Self;
    fn bits(self) -> (u64, u64);
}

impl Bits for f64 {
    fn random(s: &mut Stream) -> Self {
        s.next()
    }
    fn bits(self) -> (u64, u64) {
        (self.to_bits(), 0)
    }
}

impl Bits for Complex64 {
    fn random(s: &mut Stream) -> Self {
        Complex64::new(s.next(), s.next())
    }
    fn bits(self) -> (u64, u64) {
        (self.re.to_bits(), self.im.to_bits())
    }
}

fn same_bits<T: Bits>(got: &[T], want: &[T], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.bits(), w.bits(), "{what}: entry {i}");
    }
}

/// A block whose columns cover every path of `insert`: dense, zero,
/// `-0`, NaN, infinite, a copy of a basis vector, a combination of two
/// earlier block columns, and one of the basis and the block.
fn awkward_block<T: Bits>(n: usize, basis: &OrthoBasis<T>, s: &mut Stream) -> Matrix<T> {
    let mut cols: Vec<Vec<T>> = Vec::new();
    let dense = |s: &mut Stream| (0..n).map(|_| T::random(s)).collect::<Vec<T>>();
    cols.push(dense(s));
    cols.push(vec![T::ZERO; n]);
    cols.push(dense(s));
    cols.push(vec![T::from_f64(-0.0); n]);
    let mut nan = dense(s);
    nan[n / 2] = T::from_f64(f64::NAN);
    cols.push(nan);
    let mut inf = dense(s);
    inf[1] = T::from_f64(f64::INFINITY);
    cols.push(inf);
    if !basis.is_empty() {
        cols.push(basis.vector(0).to_vec());
    }
    let (a, b) = (cols[0].clone(), cols[2].clone());
    cols.push(
        a.iter()
            .zip(&b)
            .map(|(&x, &y)| x * T::from_f64(2.0) - y)
            .collect(),
    );
    if !basis.is_empty() {
        let q = basis.vector(basis.len() - 1);
        cols.push(
            q.iter()
                .zip(&a)
                .map(|(&x, &y)| x + y * T::from_f64(1e-3))
                .collect(),
        );
    }
    for _ in 0..6 {
        cols.push(dense(s));
    }
    Matrix::from_cols(&cols)
}

fn same_as_reference<T: Bits>(got: &OrthoBasis<T>, want: &[Vec<T>], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: basis size");
    for (k, w) in want.iter().enumerate() {
        same_bits(got.vector(k), w, &format!("{what}: vector {k}"));
    }
}

fn check_inserts<T: Bits>(seed: u64, tag: &str) {
    let mut s = Stream(seed);
    for (n, existing) in [(7, 0), (40, 0), (40, 5), (300, 12)] {
        let mut basis = OrthoBasis::<T>::new(n);
        let mut reference = Vec::new();
        for _ in 0..existing {
            let v: Vec<T> = (0..n).map(|_| T::random(&mut s)).collect();
            assert_eq!(basis.insert(&v), mgs_reference::insert(&mut reference, &v));
        }
        let block = awkward_block(n, &basis, &mut s);
        for width in [0, 1, 3, block.ncols()] {
            let part = block.columns(0..width);
            let mut by_block = basis.clone();
            let mut by_column = basis.clone();
            let mut want = reference.clone();
            let added = by_block.insert_block(&part);
            let mut want_added = 0;
            for j in 0..width {
                let kept = mgs_reference::insert(&mut want, &part.col(j));
                assert_eq!(by_column.insert(&part.col(j)), kept, "column {j}");
                want_added += usize::from(kept);
            }
            let what = format!("{tag} n={n} existing={existing} width={width}");
            assert_eq!(added, want_added, "{what}: added");
            same_as_reference(&by_block, &want, &format!("{what}, insert_block"));
            same_as_reference(&by_column, &want, &format!("{what}, insert"));
        }
    }
}

#[test]
fn insert_matches_the_plain_gram_schmidt_real() {
    check_inserts::<f64>(11, "f64");
}

#[test]
fn insert_matches_the_plain_gram_schmidt_complex() {
    check_inserts::<Complex64>(23, "c64");
}

/// A candidate exactly orthogonal to the basis skips every update, so its
/// `-0` entry stays `-0` where a basis vector is negative (`-0 + (-0)·(-q)`
/// would be `+0`).
#[test]
fn inserts_keep_the_zero_projection_skip() {
    let mut basis = OrthoBasis::<f64>::new(5);
    let mut reference = Vec::new();
    for v in [[1.0, -1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0, -1.0]] {
        assert!(basis.insert(&v));
        assert!(mgs_reference::insert(&mut reference, &v));
    }
    let cols = [
        vec![1.0, 1.0, -0.0, 2.0, 2.0],
        vec![0.5, 0.5, -0.0, -1.0, -1.0],
    ];
    let mut by_block = basis.clone();
    by_block.insert_block(&Matrix::from_cols(&cols));
    for v in &cols {
        assert_eq!(basis.insert(v), mgs_reference::insert(&mut reference, v));
    }
    same_as_reference(&by_block, &reference, "zero projections, insert_block");
    same_as_reference(&basis, &reference, "zero projections, insert");
}

#[test]
fn axpy_dot_each_matches_axpy_then_dot() {
    let mut s = Stream(5);
    let n = 257;
    let x: Vec<f64> = (0..n).map(|_| s.next()).collect();
    // An infinite `p` entry makes a skipped update visible (`0·∞` is
    // NaN), and so do `-0` entries of the `yⱼ`.
    let mut p: Vec<f64> = (0..n).map(|_| s.next()).collect();
    p[3] = f64::INFINITY;
    for k in 0..11 {
        let ys: Vec<Vec<f64>> = (0..k)
            .map(|_| {
                let mut y: Vec<f64> = (0..n).map(|_| s.next()).collect();
                y[5] = -0.0;
                y
            })
            .collect();
        let mut got = Vec::new();
        let mut fused = ys.clone();
        vecops::axpy_dot_each(None, &x, &mut fused, &mut got);
        let want: Vec<f64> = ys.iter().map(|y| vecops::dot(&x, y)).collect();
        same_bits(&got, &want, &format!("dot of {k}"));
        // Zero coefficients (either sign) skip their update.
        let a: Vec<f64> = (0..k)
            .map(|j| match j % 4 {
                0 => 0.0,
                1 => -0.0,
                _ => s.next(),
            })
            .collect();
        let mut plain = ys.clone();
        vecops::axpy_dot_each(Some((&p, &a)), &x, &mut fused, &mut got);
        let mut fused_want = Vec::new();
        for (y, &aj) in plain.iter_mut().zip(&a) {
            if aj != 0.0 {
                vecops::axpy(aj, &p, y);
            }
            fused_want.push(vecops::dot(&x, y));
        }
        same_bits(&got, &fused_want, &format!("axpy then dot of {k}"));
        for (j, (f, w)) in fused.iter().zip(&plain).enumerate() {
            same_bits(f, w, &format!("update {j} of {k}"));
        }
    }
}

fn check_axpy_dot<T: Bits>(seed: u64, tag: &str) {
    let mut s = Stream(seed);
    let n = 257;
    let x: Vec<T> = (0..n).map(|_| T::random(&mut s)).collect();
    let q: Vec<T> = (0..n).map(|_| T::random(&mut s)).collect();
    // An infinite `x` entry and `-0` entries of `y` make the order of
    // the update and the product visible.
    let mut x_inf = x.clone();
    x_inf[3] = T::from_f64(f64::INFINITY);
    let mut y: Vec<T> = (0..n).map(|_| T::random(&mut s)).collect();
    y[5] = T::from_f64(-0.0);
    for (a, x) in [
        (T::random(&mut s), &x),
        (T::from_f64(-0.25), &x_inf),
        (T::from_f64(-0.0), &x),
    ] {
        let mut fused = y.clone();
        let h = vecops::axpy_dot(a, x, &mut fused, &q);
        let mut plain = y.clone();
        vecops::axpy(a, x, &mut plain);
        same_bits(&fused, &plain, &format!("{tag}: update"));
        same_bits(&[h], &[vecops::dot(&q, &plain)], &format!("{tag}: product"));
    }
}

#[test]
fn axpy_dot_matches_axpy_then_dot() {
    check_axpy_dot::<f64>(5, "f64");
    check_axpy_dot::<Complex64>(6, "c64");
}
