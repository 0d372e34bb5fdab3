//! Oracle test of the split-plane pencil kernel: [`PencilLu`] must agree
//! bit for bit with [`LuFactors::<Complex64>`] on `G.to_complex() +
//! s·C.to_complex()` — packed factors, permutation, solves and the output
//! projection — and must fail at the same `Singular(k)`.

use pmor_num::lu::{LuFactors, PencilLu};
use pmor_num::{Complex64, Matrix, NumError};

/// The generic reference: pencil, factors, `X = A⁻¹ (B, 0)` and `Lᵀ X`.
struct Reference {
    lu: LuFactors<Complex64>,
    x: Matrix<Complex64>,
    h: Matrix<Complex64>,
}

fn reference(
    g: &Matrix<f64>,
    c: &Matrix<f64>,
    s: Complex64,
    b: &Matrix<f64>,
    l: &Matrix<f64>,
) -> Result<Reference, NumError> {
    let mut a = g.to_complex();
    a.add_assign_scaled(s, &c.to_complex());
    let lu = LuFactors::factor(&a)?;
    let x = lu.solve_mat(&b.to_complex())?;
    let h = l.to_complex().tr_mul_mat(&x);
    Ok(Reference { lu, x, h })
}

fn same_real(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn same_complex(a: &Matrix<Complex64>, b: &Matrix<Complex64>) -> bool {
    a.nrows() == b.nrows()
        && a.ncols() == b.ncols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

/// Runs the kernel (reusing `lu` across calls, as a workspace does) and
/// asserts every output matches the reference bit for bit. Returns
/// whether the factorization pivoted.
fn assert_matches(
    lu: &mut PencilLu,
    g: &Matrix<f64>,
    c: &Matrix<f64>,
    s: Complex64,
    b: &Matrix<f64>,
    l: &Matrix<f64>,
) -> bool {
    let want = reference(g, c, s, b, l).expect("reference factors");
    lu.factor_pencil_into(g, c, s).expect("kernel factors");
    let (re, im) = lu.factors();
    let packed = want.lu.packed();
    let want_re: Vec<f64> = packed.as_slice().iter().map(|z| z.re).collect();
    let want_im: Vec<f64> = packed.as_slice().iter().map(|z| z.im).collect();
    assert!(same_real(re.as_slice(), &want_re), "real plane at s = {s}");
    assert!(
        same_real(im.as_slice(), &want_im),
        "imaginary plane at s = {s}"
    );
    assert_eq!(lu.perm(), want.lu.perm(), "permutation at s = {s}");

    lu.solve_real_into(b).expect("kernel solve");
    assert!(same_complex(&lu.solution(), &want.x), "solve at s = {s}");
    let mut h = Matrix::zeros(l.ncols(), b.ncols());
    lu.project_into(l, &mut h).expect("kernel projection");
    assert!(same_complex(&h, &want.h), "projection at s = {s}");

    // A complex right-hand side runs the same substitution.
    let bc = Matrix::from_fn(b.nrows(), b.ncols(), |r, k| {
        Complex64::new(b[(r, k)], 0.5 * b[(r, k)] - 1.0)
    });
    lu.solve_complex_into(&bc).expect("kernel complex solve");
    let xc = want.lu.solve_mat(&bc).expect("reference complex solve");
    assert!(
        same_complex(&lu.solution(), &xc),
        "complex solve at s = {s}"
    );

    want.lu.perm().iter().enumerate().any(|(k, &p)| k != p)
}

/// Deterministic xorshift in `[-0.5, 0.5)`.
fn rng(mut state: u64) -> impl FnMut() -> f64 {
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }
}

/// A reduced RC-ladder-like pencil: `G` a symmetric tridiagonal
/// conductance with a grounded end, `C` a dense symmetric positive
/// storage (as congruence produces), two ports.
fn rc_pencil(n: usize) -> (Matrix<f64>, Matrix<f64>, Matrix<f64>) {
    let mut next = rng(0x2545_f491_4f6c_dd1d);
    let g = Matrix::from_fn(n, n, |r, k| match (r as isize - k as isize).abs() {
        0 => 2.0e-3 * (1.0 + 0.1 * r as f64) + if r == 0 { 1.0e-3 } else { 0.0 },
        1 => -1.0e-3 * (1.0 + 0.05 * r.min(k) as f64),
        _ => 0.0,
    });
    let w = Matrix::from_fn(n, n, |_, _| next());
    let mut c = w.tr_mul_mat(&w).scaled(1e-14);
    for i in 0..n {
        c[(i, i)] += 1e-14;
    }
    let b = Matrix::from_fn(n, 2, |r, k| if r == k * (n - 1) { 1.0 } else { 0.0 });
    (g, c, b)
}

#[test]
fn rc_pencil_sweep_matches_generic_lu_bitwise() {
    let (g, c, b) = rc_pencil(24);
    let mut lu = PencilLu::new();
    for i in 0..=40 {
        let f = 1e7 * 10f64.powf(3.0 * i as f64 / 40.0);
        assert_matches(
            &mut lu,
            &g,
            &c,
            Complex64::jw(2.0 * std::f64::consts::PI * f),
            &b,
            &b,
        );
    }
}

#[test]
fn random_dense_pencils_force_row_swaps_and_match_bitwise() {
    let mut lu = PencilLu::new();
    let mut pivoted = 0;
    for (trial, n) in [1usize, 2, 3, 7, 16, 33].into_iter().enumerate() {
        let mut next = rng(0x9e37_79b9_7f4a_7c15 ^ trial as u64);
        let g = Matrix::from_fn(n, n, |_, _| next());
        let c = Matrix::from_fn(n, n, |_, _| next());
        let b = Matrix::from_fn(n, 3, |_, _| next());
        let l = Matrix::from_fn(n, 2, |_, _| next());
        for s in [
            Complex64::ZERO,
            Complex64::jw(0.7),
            Complex64::new(-0.3, 2.5),
            Complex64::new(1e3, -1e-3),
        ] {
            if assert_matches(&mut lu, &g, &c, s, &b, &l) {
                pivoted += 1;
            }
        }
    }
    assert!(pivoted >= 10, "only {pivoted} factorizations pivoted");
}

#[test]
fn exact_zero_multipliers_and_signed_zeros_match_bitwise() {
    // Block-sparse pencil: whole sub-columns are exactly zero, so the
    // multiplier skip fires; negative entries put -0.0 through the
    // `(g, 0) + s·(c, 0)` assembly and the `(l, 0)` projection.
    let n = 6;
    let g = Matrix::from_fn(n, n, |r, k| {
        if r == k {
            3.0 + r as f64
        } else if r / 3 == k / 3 {
            -1.0
        } else {
            0.0
        }
    });
    let c = Matrix::from_fn(n, n, |r, k| if r == k { -1.0 } else { 0.0 });
    let b = Matrix::from_fn(n, 2, |r, k| if r % 2 == k { -1.0 } else { 0.0 });
    let l = Matrix::from_fn(n, 2, |r, k| if r == k + 1 { -2.0 } else { 0.0 });
    let mut lu = PencilLu::new();
    for s in [
        Complex64::ZERO,
        Complex64::jw(-1.5),
        Complex64::new(-0.0, 0.0),
        Complex64::new(0.25, -0.0),
    ] {
        assert_matches(&mut lu, &g, &c, s, &b, &l);
    }
    let (re, _) = lu.factors();
    let zero_multipliers = (0..n)
        .flat_map(|r| (0..r).map(move |k| (r, k)))
        .filter(|&(r, k)| re[(r, k)] == 0.0)
        .count();
    assert!(zero_multipliers > 0);
}

#[test]
fn singular_pencils_fail_at_the_same_pivot() {
    // Rows 0 and 1 of G are proportional and C does not touch them, so
    // the pencil is singular at every s: elimination stops at pivot 1.
    let g = Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[2.0, 4.0, 0.0], &[0.0, 0.0, 0.0]]);
    let c = Matrix::from_rows(&[&[0.0, 0.0, 0.0], &[0.0, 0.0, 0.0], &[0.0, 0.0, 1.0]]);
    let mut lu = PencilLu::new();
    for s in [Complex64::ZERO, Complex64::jw(3.0)] {
        // A good factorization and solve first, so stale state exists.
        lu.factor_pencil_into(&Matrix::identity(3), &c, s).unwrap();
        lu.solve_real_into(&Matrix::identity(3)).unwrap();
        let mut a = g.to_complex();
        a.add_assign_scaled(s, &c.to_complex());
        let want = LuFactors::factor(&a).unwrap_err();
        let got = lu.factor_pencil_into(&g, &c, s).unwrap_err();
        assert_eq!(got, want, "at s = {s}");
        assert!(matches!(got, NumError::Singular(1)), "{got:?}");
        // A failed factorization leaves nothing to solve or project with.
        assert!(matches!(
            lu.solve_real_into(&Matrix::zeros(3, 1)),
            Err(NumError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            lu.project_into(&Matrix::zeros(3, 1), &mut Matrix::zeros(1, 1)),
            Err(NumError::DimensionMismatch { .. })
        ));
    }
    let zero = Matrix::zeros(2, 2);
    assert_eq!(
        lu.factor_pencil_into(&zero, &zero, Complex64::jw(1.0)),
        Err(NumError::Singular(0))
    );
}

#[test]
fn shape_errors_are_typed() {
    let mut lu = PencilLu::new();
    let g = Matrix::identity(3);
    assert!(matches!(
        lu.factor_pencil_into(&Matrix::zeros(3, 2), &g, Complex64::ONE),
        Err(NumError::DimensionMismatch { .. })
    ));
    assert!(matches!(
        lu.factor_pencil_into(&g, &Matrix::identity(2), Complex64::ONE),
        Err(NumError::DimensionMismatch { .. })
    ));
    lu.factor_pencil_into(&g, &g, Complex64::ONE).unwrap();
    assert!(lu.solve_real_into(&Matrix::zeros(2, 1)).is_err());
    lu.solve_real_into(&Matrix::identity(3)).unwrap();
    let mut wrong = Matrix::zeros(3, 2);
    assert!(lu.project_into(&g, &mut wrong).is_err());
}
