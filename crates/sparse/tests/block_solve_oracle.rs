//! Oracle: the block triangular solves are bitwise the column solves.
//!
//! `SparseLu::solve_block` / `solve_transpose_block` promise, bit for bit,
//! what `solve` / `solve_transpose` give on each column, including the
//! sign of every zero. These tests pin that on dense blocks, on sparse
//! blocks full of `±0` with whole zero rows, on an unsymmetric matrix
//! that forces off-diagonal pivots, and on the factors of two matrices
//! that share one pattern.

use pmor_num::{Complex64, Matrix};
use pmor_sparse::{ordering, CooBuilder, CsrMatrix, SparseLu};

const WIDTHS: [usize; 8] = [1, 2, 4, 5, 6, 12, 13, 16];

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

fn dense_block(n: usize, m: usize, seed: u64) -> Matrix<f64> {
    let mut s = Stream(seed | 1);
    Matrix::from_fn(n, m, |_, _| s.next())
}

/// Mostly `+0`/`−0`, a few nonzeros on a column-dependent pattern (so a
/// step's multiplier row is zero in some columns only), every fifth row
/// zero throughout, one row of all `−0`, and column 1 all `±0`. On an
/// irreducible matrix the solution of a column is dense unless the
/// column is zero, so the zero column is where a wrong zero sign would
/// reach the output.
fn sparse_block(n: usize, m: usize, seed: u64) -> Matrix<f64> {
    let mut s = Stream(seed | 1);
    Matrix::from_fn(n, m, |r, c| {
        let v = s.next();
        if c == 1 {
            if r % 3 == 0 {
                0.0
            } else {
                -0.0
            }
        } else if r == n / 2 {
            -0.0
        } else if r % 5 == 0 || (r * 7 + c * 3) % 11 != 0 {
            if (r + c) % 2 == 0 {
                0.0
            } else {
                -0.0
            }
        } else {
            v
        }
    })
}

/// Diagonally dominant, unsymmetric, with a seven-off coupling.
fn dominant(n: usize, seed: u64, scale: f64) -> CsrMatrix<f64> {
    let mut s = Stream(seed | 1);
    let mut b = CooBuilder::new(n, n);
    for i in 0..n {
        b.add(i, i, 4.0 + s.next().abs());
        if i + 1 < n {
            b.add(i, i + 1, -scale * (0.5 + 0.5 * s.next().abs()));
            b.add(i + 1, i, -(0.3 + 0.5 * s.next().abs()));
        }
        if i + 7 < n {
            b.add(i, i + 7, 0.4 * s.next());
            b.add(i + 7, i, -0.2 * s.next().abs() - 0.01);
        }
    }
    b.build_csr()
}

/// Two decoupled copies of [`dominant`]: a reducible matrix, so a
/// right-hand side living in one half leaves exact zeros in the other.
fn two_blocks(half: usize, seed: u64, scale: f64) -> CsrMatrix<f64> {
    let a = dominant(half, seed, scale);
    let mut b = CooBuilder::new(2 * half, 2 * half);
    for (r, c, v) in a.iter() {
        b.add(r, c, v);
        b.add(half + r, half + c, 1.5 * v);
    }
    b.build_csr()
}

/// Tiny diagonal under large sub/super-diagonals: threshold pivoting has
/// to take off-diagonal pivots.
fn pivoting(n: usize, seed: u64, scale: f64) -> CsrMatrix<f64> {
    let mut s = Stream(seed | 1);
    let mut b = CooBuilder::new(n, n);
    for i in 0..n {
        b.add(i, i, 1e-3 * (1.0 + s.next().abs()));
        if i + 1 < n {
            b.add(i + 1, i, scale * (2.0 + s.next()));
            b.add(i, i + 1, 1.0 + s.next().abs());
        }
        if i + 3 < n {
            b.add(i + 3, i, 0.5 * s.next());
        }
    }
    b.build_csr()
}

fn assert_bits(got: &Matrix<f64>, want: &[Vec<f64>], what: &str) {
    assert_eq!(got.ncols(), want.len(), "{what}: width");
    for (j, col) in want.iter().enumerate() {
        for (i, w) in col.iter().enumerate() {
            assert_eq!(
                got[(i, j)].to_bits(),
                w.to_bits(),
                "{what}: entry ({i}, {j}) is {} vs column solve {w}",
                got[(i, j)]
            );
        }
    }
}

/// Checks both block solves against the column solves on every width,
/// dense and sparse.
fn check_factors(lu: &SparseLu<f64>, seed: u64, what: &str) {
    let n = lu.dim();
    for m in WIDTHS {
        for (kind, b) in [
            ("dense", dense_block(n, m, seed + m as u64)),
            ("sparse", sparse_block(n, m, seed + 31 * m as u64)),
        ] {
            let cols: Vec<Vec<f64>> = (0..m).map(|j| b.col(j)).collect();
            let fwd: Vec<Vec<f64>> = cols.iter().map(|c| lu.solve(c).unwrap()).collect();
            let tr: Vec<Vec<f64>> = cols
                .iter()
                .map(|c| lu.solve_transpose(c).unwrap())
                .collect();
            let tag = format!("{what}, {kind} width {m}");
            assert_bits(&lu.solve_block(&b).unwrap(), &fwd, &format!("{tag}: solve"));
            assert_bits(
                &lu.solve_transpose_block(&b).unwrap(),
                &tr,
                &format!("{tag}: transpose solve"),
            );
        }
    }
}

/// The factors of both same-pattern matrices, each checked.
fn check_all_factorizations(a: &CsrMatrix<f64>, a2: &CsrMatrix<f64>, order: &[usize], what: &str) {
    let plain = SparseLu::factor(a, Some(order)).unwrap();
    check_factors(&plain, 11, &format!("{what} factor"));
    let second = SparseLu::factor(a2, Some(order)).unwrap();
    check_factors(&second, 37, &format!("{what} factor of the second matrix"));
}

#[test]
fn block_solves_match_column_solves_on_dominant_matrix() {
    let a = dominant(90, 5, 1.0);
    let a2 = dominant(90, 5, 1.3);
    check_all_factorizations(&a, &a2, &ordering::amd(&a), "dominant/amd");
    let identity: Vec<usize> = (0..90).collect();
    check_all_factorizations(&a, &a2, &identity, "dominant/natural");
}

#[test]
fn block_solves_match_column_solves_on_reducible_matrix() {
    let a = two_blocks(40, 17, 1.0);
    let a2 = two_blocks(40, 17, 0.8);
    check_all_factorizations(&a, &a2, &ordering::amd(&a), "two blocks/amd");
    // Right-hand sides confined to one half (signed zeros elsewhere).
    let lu = SparseLu::factor(&a, Some(&ordering::rcm(&a))).unwrap();
    for m in WIDTHS {
        let d = dense_block(80, m, 19);
        let b = Matrix::from_fn(80, m, |r, c| match ((r < 40) == (c % 2 == 0), r % 2) {
            (true, _) => d[(r, c)],
            (false, 0) => -0.0,
            (false, _) => 0.0,
        });
        let cols: Vec<Vec<f64>> = (0..m).map(|j| b.col(j)).collect();
        let fwd: Vec<Vec<f64>> = cols.iter().map(|c| lu.solve(c).unwrap()).collect();
        let tr: Vec<Vec<f64>> = cols
            .iter()
            .map(|c| lu.solve_transpose(c).unwrap())
            .collect();
        assert_bits(&lu.solve_block(&b).unwrap(), &fwd, "one-half rhs: solve");
        assert_bits(
            &lu.solve_transpose_block(&b).unwrap(),
            &tr,
            "one-half rhs: transpose solve",
        );
    }
}

#[test]
fn block_solves_match_column_solves_under_off_diagonal_pivots() {
    let n = 70;
    let a = pivoting(n, 9, 1.0);
    let a2 = pivoting(n, 9, 1.1);
    let order: Vec<usize> = (0..n).collect();
    let lu = SparseLu::factor(&a, Some(&order)).unwrap();
    let off = (0..n)
        .filter(|&k| lu.row_of_position()[k] != order[k])
        .count();
    assert!(off > n / 4, "only {off} off-diagonal pivots");
    check_all_factorizations(&a, &a2, &order, "pivoting/natural");
    check_all_factorizations(&a, &a2, &ordering::rcm(&a), "pivoting/rcm");
}

#[test]
fn complex_block_solves_match_column_solves() {
    let g = dominant(60, 13, 1.0);
    let a = g.map(|v| Complex64::new(v, 0.25 * v));
    let lu = SparseLu::factor(&a, Some(&ordering::amd(&g))).unwrap();
    for m in WIDTHS {
        let re = sparse_block(60, m, 3);
        let im = dense_block(60, m, 4);
        let b = Matrix::from_fn(60, m, |r, c| {
            let z = if (r + c) % 3 == 0 { 0.0 } else { im[(r, c)] };
            Complex64::new(re[(r, c)], z)
        });
        let x = lu.solve_block(&b).unwrap();
        let xt = lu.solve_transpose_block(&b).unwrap();
        for j in 0..m {
            let want = lu.solve(&b.col(j)).unwrap();
            let want_t = lu.solve_transpose(&b.col(j)).unwrap();
            for i in 0..60 {
                for (got, w) in [(x[(i, j)], want[i]), (xt[(i, j)], want_t[i])] {
                    assert_eq!(got.re.to_bits(), w.re.to_bits(), "width {m} ({i}, {j})");
                    assert_eq!(got.im.to_bits(), w.im.to_bits(), "width {m} ({i}, {j})");
                }
            }
        }
    }
}

#[test]
fn block_solves_reject_wrong_height_and_accept_empty_blocks() {
    let lu = SparseLu::factor(&dominant(10, 1, 1.0), None).unwrap();
    let b = Matrix::<f64>::zeros(9, 3);
    assert!(lu.solve_block(&b).is_err());
    assert!(lu.solve_transpose_block(&b).is_err());
    let empty = Matrix::<f64>::zeros(10, 0);
    for x in [lu.solve_block(&empty), lu.solve_transpose_block(&empty)] {
        let x = x.unwrap();
        assert_eq!((x.nrows(), x.ncols()), (10, 0));
    }
}
