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
    // Orders 4, 5 and 8 put the pair/tail boundary of the two-step
    // elimination at every position; they come last so the earlier
    // orders keep their seeds.
    for (trial, n) in [1usize, 2, 3, 7, 16, 33, 4, 5, 8].into_iter().enumerate() {
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

    // A pencil whose first elimination pair sees every zero pattern:
    // `U[0][1] = 0`, so row r's second multiplier is zero exactly when
    // `G[r][1]` is. `pattern(r)` says which of row r's entries in
    // columns 0 and 1 are nonzero; rows 2..8 cover all four choices.
    let n = 8;
    let pattern = |r: usize| [(true, false), (false, true), (false, false), (true, true)][r % 4];
    let g = Matrix::from_fn(n, n, |r, k| match (r, k) {
        _ if r == k => 8.0 + r as f64,
        (0, 1) => 0.0,
        (r, 0) if r >= 2 && pattern(r).0 => -1.5,
        (r, 1) if r >= 2 && pattern(r).1 => 0.75,
        (r, k) if k > r => 0.5 - 0.125 * ((r + k) % 3) as f64,
        _ => 0.0,
    });
    let c = Matrix::from_fn(n, n, |r, k| if r == k { -1.0 } else { 0.0 });
    let b = Matrix::from_fn(n, 1, |r, _| if r == 0 { 1.0 } else { -0.0 });
    for s in [
        Complex64::ZERO,
        Complex64::jw(2.0),
        Complex64::new(-3.0, 0.5),
    ] {
        assert_matches(&mut lu, &g, &c, s, &b, &b);
        let (re, im) = lu.factors();
        let zero = |r: usize, k: usize| re[(r, k)] == 0.0 && im[(r, k)] == 0.0;
        let mut seen = [0usize; 4];
        for k in (0..n - 1).step_by(2) {
            for r in k + 2..n {
                seen[usize::from(zero(r, k)) * 2 + usize::from(zero(r, k + 1))] += 1;
            }
        }
        // Rows whose zero multipliers are: neither, the second step's
        // only, the first step's only, both.
        assert!(seen.iter().all(|&count| count > 0), "{seen:?} at s = {s}");
    }
}

/// Pivot columns whose magnitudes tie exactly, differ by an ulp, or
/// square outside the normal range: the squared-magnitude pivot search
/// must pick the row of the `hypot` scan every time.
#[test]
fn pivot_ties_and_extreme_magnitudes_match_bitwise() {
    let (lo, hi) = (3.0f64.next_down(), 3.0f64.next_up());
    // |(a, a)| < b, yet the rounded subnormal squares order them the
    // other way: 3e-323 against 2.5e-323.
    let (a, b) = (
        f64::from_bits(0x1e69_5b92_7831_841d),
        f64::from_bits(0x1e71_ee3c_1456_e98d),
    );
    let cases: [&[(f64, f64)]; 7] = [
        // Exact ties: every hypot is 5.
        &[(3.0, 4.0), (4.0, 3.0), (5.0, 0.0), (0.0, -5.0)],
        // One ulp apart: the second square is larger, both hypots are 5.
        &[(lo, 4.0), (hi, 4.0), (5.0f64.next_down(), 0.0)],
        // Squares overflow.
        &[(1e200, 0.0), (3e200, 4e200), (-4e200, 3e200), (0.0, 5e200)],
        // Squares underflow to zero.
        &[(1e-200, 0.0), (0.0, 1e-200), (-1e-200, 1e-200)],
        // Subnormal entries under a pivot whose square is below the safe range.
        &[(1e-310, 0.0), (0.0, -3e-310), (2e-150, 0.0), (0.0, 2e-150)],
        // Subnormal squares in the wrong order.
        &[(a, a), (b, 0.0)],
        // A normal pivot above subnormal squares: the fast path.
        &[(5e-324, 1e-310), (1.0, 0.0), (0.0, -1e-160)],
    ];
    let mut lu = PencilLu::new();
    for (i, col0) in cases.iter().enumerate() {
        let col1 = cases[(i + 1) % cases.len()];
        for shift in 0..col0.len() {
            let rotated: Vec<(f64, f64)> = col0
                .iter()
                .cycle()
                .skip(shift)
                .take(col0.len())
                .copied()
                .collect();
            let (g, c) = tie_pencil(&rotated, col1, 0x51ed ^ (i * 16 + shift) as u64);
            let n = g.nrows();
            let b = Matrix::from_fn(n, 2, |r, k| if r == k { 1.0 } else { 0.0 });
            assert_matches(&mut lu, &g, &c, Complex64::jw(1.0), &b, &b);
        }
    }

    // A NaN in row k: no magnitude compares greater than it, so the
    // `hypot` scan keeps row k. The factors are NaN from there on, and
    // NaN payloads are not pinned, so only the permutation is compared.
    let mut g = Matrix::from_fn(4, 4, |r, k| {
        if r == k {
            1.0
        } else {
            0.25 + 0.0625 * r as f64
        }
    });
    g[(0, 0)] = f64::NAN;
    let c = Matrix::identity(4);
    let s = Complex64::jw(1.0);
    let mut a = g.to_complex();
    a.add_assign_scaled(s, &c.to_complex());
    let want = LuFactors::factor(&a).expect("reference factors");
    lu.factor_pencil_into(&g, &c, s).expect("kernel factors");
    assert_eq!(lu.perm(), want.perm());
}

/// `G + jC` with `col0` down column 0 of the first rows and `col1` down
/// column 1 of the next rows, all else in those two columns zero, so
/// that after step 0 the pivot search for column 1 sees `col1` as
/// given. The remaining columns are ordinary random values.
fn tie_pencil(col0: &[(f64, f64)], col1: &[(f64, f64)], seed: u64) -> (Matrix<f64>, Matrix<f64>) {
    let (m0, n) = (col0.len(), col0.len() + col1.len());
    let mut next = rng(seed);
    let mut g = Matrix::from_fn(n, n, |_, _| next());
    let mut c = Matrix::from_fn(n, n, |_, _| next());
    for r in 0..n {
        let (z0, z1) = match r.checked_sub(m0) {
            None => (col0[r], (0.0, 0.0)),
            Some(i) => ((0.0, 0.0), col1[i]),
        };
        (g[(r, 0)], c[(r, 0)]) = z0;
        (g[(r, 1)], c[(r, 1)]) = z1;
    }
    (g, c)
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

    // Order 5 pairs the steps as (0, 1), (2, 3) and leaves 4 alone:
    // fail at the first and second step of a pair and at the tail.
    for k in [2, 3, 4] {
        let (g, c) = singular_at(5, k);
        for s in [Complex64::ZERO, Complex64::new(0.5, -2.0)] {
            let mut a = g.to_complex();
            a.add_assign_scaled(s, &c.to_complex());
            let want = LuFactors::factor(&a).unwrap_err();
            assert_eq!(want, NumError::Singular(k));
            assert_eq!(lu.factor_pencil_into(&g, &c, s), Err(want), "at s = {s}");
        }
    }
}

/// An order-`n` pencil whose elimination meets an exactly zero pivot
/// column at step `k` for every `s`: rows before `k` are `4·eᵢ + e_k`,
/// row `k` is half their sum (so its column `k` cancels exactly), and
/// the rows after `k` are `eᵢ` with `C` on their diagonal only.
fn singular_at(n: usize, k: usize) -> (Matrix<f64>, Matrix<f64>) {
    let g = Matrix::from_fn(n, n, |r, j| match r.cmp(&k) {
        std::cmp::Ordering::Less if j == r => 4.0,
        std::cmp::Ordering::Less if j == k => 1.0,
        std::cmp::Ordering::Equal if j < k => 2.0,
        std::cmp::Ordering::Equal if j == k => 0.5 * k as f64,
        std::cmp::Ordering::Greater if j == r => 1.0,
        _ => 0.0,
    });
    let c = Matrix::from_fn(n, n, |r, j| if r > k && j == r { 1.0 } else { 0.0 });
    (g, c)
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
