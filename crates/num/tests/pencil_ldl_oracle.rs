//! Oracle test of the pivot-free pencil kernel: [`PencilLdl`] must agree
//! bit for bit with a plain `Matrix<Complex64>` reference of the same
//! elimination order — packed factors, certificate, solves and the output
//! projection — and must return [`PencilLu`]'s exact bits whenever its
//! certificate rejects the pivot-free factors.

#[path = "support/ldl_reference.rs"]
mod ldl_reference;

use ldl_reference::{ldl_reference, LdlReference};
use pmor_num::lu::{PencilLdl, PencilLu, LDL_CERTIFICATE_BOUND};
use pmor_num::{Complex64, Matrix, NumError};

fn same_complex(a: &Matrix<Complex64>, b: &Matrix<Complex64>) -> bool {
    a.nrows() == b.nrows()
        && a.ncols() == b.ncols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

/// Runs the kernel (reusing `ldl` across calls, as a workspace does),
/// asserts it kept its pivot-free factors, and checks every output
/// against the reference bit for bit. Returns the reference.
fn assert_matches(
    ldl: &mut PencilLdl,
    g: &Matrix<f64>,
    c: &Matrix<f64>,
    s: Complex64,
    b: &Matrix<f64>,
    l: &Matrix<f64>,
) -> LdlReference {
    let want = ldl_reference(g, c, s);
    assert!(want.kept, "reference rejects at s = {s}");
    ldl.factor_pencil_into(g, c, s).expect("kernel factors");
    assert!(!ldl.pivoted(), "kernel fell back at s = {s}");
    assert_eq!(ldl.certificate().to_bits(), want.certificate.to_bits());
    let (re, im) = ldl.factors();
    for (k, z) in want.packed.as_slice().iter().enumerate() {
        assert_eq!(
            re.as_slice()[k].to_bits(),
            z.re.to_bits(),
            "re[{k}] at s = {s}"
        );
        assert_eq!(
            im.as_slice()[k].to_bits(),
            z.im.to_bits(),
            "im[{k}] at s = {s}"
        );
    }

    ldl.solve_real_into(b).expect("kernel solve");
    assert!(
        same_complex(&ldl.solution(), &want.solve(&b.to_complex())),
        "solve at s = {s}"
    );
    let mut h = Matrix::zeros(l.ncols(), b.ncols());
    ldl.project_into(l, &mut h).expect("kernel projection");
    assert!(
        same_complex(&h, &want.transfer(b, l)),
        "projection at s = {s}"
    );
    want
}

/// Runs the kernel on a pencil its certificate must reject and asserts
/// that every output is [`PencilLu`]'s, bit for bit.
fn assert_falls_back(g: &Matrix<f64>, c: &Matrix<f64>, s: Complex64, b: &Matrix<f64>) {
    assert!(!ldl_reference(g, c, s).kept, "reference keeps at s = {s}");
    let mut ldl = PencilLdl::new();
    let mut lu = PencilLu::new();
    ldl.factor_pencil_into(g, c, s).expect("kernel factors");
    assert!(ldl.pivoted(), "kernel kept its factors at s = {s}");
    lu.factor_pencil_into(g, c, s).expect("LU factors");
    ldl.solve_real_into(b).unwrap();
    lu.solve_real_into(b).unwrap();
    assert!(
        same_complex(&ldl.solution(), &lu.solution()),
        "solve at s = {s}"
    );
    let (mut h_ldl, mut h_lu) = (
        Matrix::zeros(b.ncols(), b.ncols()),
        Matrix::zeros(b.ncols(), b.ncols()),
    );
    ldl.project_into(b, &mut h_ldl).unwrap();
    lu.project_into(b, &mut h_lu).unwrap();
    assert!(same_complex(&h_ldl, &h_lu), "projection at s = {s}");
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

/// A random bitwise-symmetric matrix with the given diagonal shift.
fn symmetric(n: usize, shift: f64, next: &mut impl FnMut() -> f64) -> Matrix<f64> {
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            let v = next() + if i == j { shift } else { 0.0 };
            m[(i, j)] = v;
            m[(j, i)] = v;
        }
    }
    m
}

/// A reduced RC-like pencil as congruence produces it: `G` a symmetric
/// tridiagonal conductance with a grounded end, `C` a dense symmetric
/// positive storage, two ports.
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
        for j in 0..i {
            c[(i, j)] = c[(j, i)];
        }
        c[(i, i)] += 1e-14;
    }
    let b = Matrix::from_fn(n, 2, |r, k| if r == k * (n - 1) { 1.0 } else { 0.0 });
    (g, c, b)
}

#[test]
fn random_symmetric_pencils_match_the_reference_bitwise() {
    // Odd and even orders end the two-step elimination on a single step
    // and on a pair; orders 1 and 2 have no full pair pass at all.
    let mut ldl = PencilLdl::new();
    for n in [1, 2, 3, 5, 8, 13, 24] {
        let mut next = rng(0x9e37_79b9_7f4a_7c15 ^ n as u64);
        let g = symmetric(n, 2.0 * n as f64, &mut next);
        let c = symmetric(n, n as f64, &mut next);
        let b = Matrix::from_fn(n, 3, |_, _| next());
        let l = Matrix::from_fn(n, 2, |_, _| next());
        for s in [
            Complex64::ZERO,
            Complex64::jw(0.7),
            Complex64::new(0.3, -2.0),
        ] {
            assert_matches(&mut ldl, &g, &c, s, &b, &l);
        }
    }
}

#[test]
fn rc_pencil_sweep_matches_the_reference_and_the_pivoted_lu() {
    let (g, c, b) = rc_pencil(24);
    let mut ldl = PencilLdl::new();
    let mut lu = PencilLu::new();
    for i in 0..=16 {
        let f = 1e7 * 10f64.powf(i as f64 / 4.0);
        let s = Complex64::jw(2.0 * std::f64::consts::PI * f);
        assert_matches(&mut ldl, &g, &c, s, &b, &b);
        let mut h = Matrix::zeros(2, 2);
        ldl.project_into(&b, &mut h).unwrap();
        lu.factor_pencil_into(&g, &c, s).unwrap();
        lu.solve_real_into(&b).unwrap();
        let mut h_lu = Matrix::zeros(2, 2);
        lu.project_into(&b, &mut h_lu).unwrap();
        assert!(
            h.sub_mat(&h_lu).max_abs() <= 1e-12 * h_lu.max_abs(),
            "{f} Hz"
        );
    }
}

#[test]
fn zero_multipliers_and_signed_zeros_follow_the_reference() {
    // A banded pencil: most multipliers are exactly zero, so their
    // updates are skipped, and `−0` entries sit at mirrored positions of
    // `G` and `C`. Row 0 holds a negative entry in column 6 and zeros in
    // columns 1 and 2, so step 0's zero multipliers for rows 1 (the
    // pair's second row) and 2 (a lower row) meet `−0` targets at (1, 6)
    // and (2, 6): a `+0·u` update would turn them into `+0`.
    let n = 9;
    let mut g = Matrix::zeros(n, n);
    let mut c = Matrix::zeros(n, n);
    for i in 0..n {
        g[(i, i)] = 3.0 + 0.25 * i as f64;
        c[(i, i)] = 1.0 + 0.5 * i as f64;
        if i + 1 < n && i != 0 && i != 3 {
            g[(i, i + 1)] = -0.75;
            g[(i + 1, i)] = -0.75;
        }
    }
    g[(0, 6)] = -0.5;
    g[(6, 0)] = -0.5;
    for (i, j) in [(0, 4), (1, 6), (2, 6), (2, 7), (3, 4), (5, 8)] {
        g[(i, j)] = -0.0;
        g[(j, i)] = -0.0;
        c[(i, j)] = -0.0;
        c[(j, i)] = -0.0;
    }
    let b = Matrix::from_fn(n, 2, |r, k| match (r + k) % 3 {
        0 => -0.0,
        1 => 1.0,
        _ => 0.0,
    });
    let mut ldl = PencilLdl::new();
    let mut negative_zero = false;
    for s in [
        Complex64::ZERO,
        Complex64::jw(1.5),
        Complex64::new(-0.0, 0.0),
    ] {
        let want = assert_matches(&mut ldl, &g, &c, s, &b, &b);
        let packed = &want.packed;
        let lower = (1..n).flat_map(|i| (0..i).map(move |k| (i, k)));
        assert!(
            lower
                .filter(|&(i, k)| packed[(i, k)] == Complex64::ZERO)
                .count()
                > n,
            "the pencil exercises the zero-multiplier skip at s = {s}"
        );
        negative_zero |= packed
            .as_slice()
            .iter()
            .any(|z| z.re == 0.0 && z.re.is_sign_negative());
    }
    assert!(negative_zero, "a −0 survives elimination");
}

#[test]
fn a_zero_leading_pivot_returns_the_pivoted_lu_bits() {
    // `G + sC` has a zero (0, 0) entry at every `s`: only pivoting
    // factors it.
    let mut next = rng(0x5851_f42d_4c95_7f2d);
    for n in [2, 7] {
        let mut g = symmetric(n, 3.0, &mut next);
        let mut c = symmetric(n, 2.0, &mut next);
        g[(0, 0)] = 0.0;
        c[(0, 0)] = 0.0;
        let b = Matrix::from_fn(n, 2, |_, _| next());
        for s in [Complex64::jw(1.0), Complex64::new(0.4, 3.0)] {
            assert_falls_back(&g, &c, s, &b);
        }
    }
}

#[test]
fn a_certificate_above_the_bound_returns_the_pivoted_lu_bits() {
    // [[ε, 1], [1, ε]]: finite nonzero pivots, but the multiplier 1/ε
    // makes ρ about 2/ε.
    let eps = 1e-3;
    let g = Matrix::from_rows(&[&[eps, 1.0, 0.0], &[1.0, eps, 0.5], &[0.0, 0.5, 2.0]]);
    let c = Matrix::identity(3).scaled(1e-4);
    let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.5, -0.5]]);
    let s = Complex64::jw(1.0);
    let want = ldl_reference(&g, &c, s);
    assert!(
        want.certificate > 100.0 * LDL_CERTIFICATE_BOUND,
        "ρ = {}",
        want.certificate
    );
    assert_falls_back(&g, &c, s, &b);
    let mut ldl = PencilLdl::new();
    ldl.factor_pencil_into(&g, &c, s).unwrap();
    assert_eq!(ldl.certificate().to_bits(), want.certificate.to_bits());
}

#[test]
fn a_singular_pencil_fails_as_the_pivoted_lu_does() {
    let g = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0]]);
    let c = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0]]);
    let mut ldl = PencilLdl::new();
    let err = ldl.factor_pencil_into(&g, &c, Complex64::jw(1.0));
    assert_eq!(err, Err(NumError::Singular(0)));
    assert!(ldl.solve_real_into(&Matrix::zeros(2, 1)).is_err());
}

#[test]
fn shape_errors_leave_no_factorization() {
    let mut ldl = PencilLdl::new();
    let g = Matrix::identity(3);
    ldl.factor_pencil_into(&g, &g, Complex64::jw(1.0)).unwrap();
    for (gg, cc) in [
        (Matrix::zeros(3, 2), Matrix::zeros(3, 2)),
        (Matrix::identity(3), Matrix::identity(2)),
    ] {
        assert!(matches!(
            ldl.factor_pencil_into(&gg, &cc, Complex64::jw(1.0)),
            Err(NumError::DimensionMismatch { .. })
        ));
        assert!(!ldl.pivoted());
        assert!(ldl.solve_real_into(&Matrix::zeros(3, 1)).is_err());
    }
    ldl.factor_pencil_into(&g, &g, Complex64::jw(1.0)).unwrap();
    ldl.solve_real_into(&Matrix::zeros(3, 1)).unwrap();
    let mut wrong = Matrix::zeros(2, 2);
    assert!(ldl.project_into(&Matrix::zeros(3, 1), &mut wrong).is_err());
    assert!(ldl.project_into(&Matrix::zeros(2, 1), &mut wrong).is_err());
}
