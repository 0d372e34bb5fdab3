//! Sparse `LDLᵀ` factorization of symmetric positive definite matrices.
//!
//! The conductance matrix `G(p)` of an RC interconnect (and the real shift
//! `G + C/h` of its transient step) is bitwise symmetric and positive
//! definite. [`crate::RealFactor::factor`] hands such a matrix here: it
//! needs no pivot search, no row permutation and no separate `U`, and it
//! stores one triangle.
//!
//! # Dispatch
//!
//! The rule lives in [`crate::RealFactor::factor`], the one front door of
//! every real factorization: a matrix that is
//! [`CsrMatrix::is_bitwise_symmetric`] is factored here, and kept when
//! every pivot `D[k]` is finite and positive. Otherwise (an asymmetric MNA
//! matrix such as `rlc_bus`'s, an indefinite or singular one) the front
//! door returns [`crate::SparseLu`]. There is no option. Complex matrices
//! always take [`crate::SparseLu`].
//!
//! # Phases
//!
//! The symbolic phase builds the elimination tree of `P·A·Pᵀ` and the
//! column counts of `L` by walking each row's subtree once (Liu, "The role
//! of elimination trees in sparse factorization", *SIAM J. Matrix Anal.
//! Appl.* 11(1), 1990), so `L` is allocated once at its exact size. The
//! numeric phase is up-looking (Davis, "Algorithm 849: a concise sparse
//! Cholesky factorization package", *ACM TOMS* 31(4), 2005): row `k` of `L`
//! is a sparse triangular solve whose pattern is the row subtree, and its
//! entries append to their columns, so each column's rows come out sorted.
//!
//! # Storage and solves
//!
//! `L` is unit lower triangular, stored by column as `u32` row indices and
//! `f64` values (12 bytes an entry), with `D` beside it. Each column has
//! its own two vectors, sized exactly from the column counts. (Two packed
//! arrays for the whole factor solved no faster, and under glibc's
//! dynamic mmap threshold they raised `serve_scatter`'s peak RSS from
//! about 19–21 to 22.1–22.2 MB in perfbench runs: the server threads'
//! arenas kept about 1.9 MB more each.) Row indices are
//! elimination positions, so the solves make no permutation lookup.
//! `Aᵀ = A`, so the transpose solves are the forward ones.
//!
//! One kernel solves a row-major `n × m` block: the forward sweep scatters
//! each `L` column into the rows below it, and the backward sweep divides
//! by `D` and gathers each column's rows. Every column of the block runs
//! exactly the column solve's operations, so a block solve is bitwise
//! identical to its columns solved one at a time; a column solve is the
//! kernel at width 1. The kernel is compiled for a few fixed widths, and
//! any block runs as chunks of those, zero-padded (see
//! `SparseLdl::solve_block`), so no width takes a slower run-time-width
//! loop.

use crate::csr::CsrMatrix;
use pmor_num::Matrix;
use std::ops::Range;

const NONE: usize = usize::MAX;

/// Sparse factors `P·A·Pᵀ = L·D·Lᵀ` of a symmetric positive definite
/// matrix, `P` the caller's fill-reducing ordering.
///
/// Built only by [`crate::RealFactor::factor`], which applies the dispatch
/// rule in the module docs.
#[derive(Debug, Clone)]
pub(crate) struct SparseLdl {
    n: usize,
    /// Column `j` of `L`, strictly below the diagonal: elimination
    /// positions, ascending, and values, each sized exactly.
    rows: Vec<Vec<u32>>,
    vals: Vec<Vec<f64>>,
    /// The pivots, all finite and positive.
    d: Vec<f64>,
    /// `q[k]` is the original row and column eliminated at step `k`.
    q: Vec<usize>,
}

impl SparseLdl {
    /// Factors `a`, reading only the entries of `P·A·Pᵀ` on or below its
    /// diagonal (`a` is taken as symmetric; the front door checks it).
    /// `q` is a validated permutation. Returns `None` when some pivot is
    /// not finite and positive, or `n` does not fit a `u32` row index.
    pub(crate) fn factor(a: &CsrMatrix<f64>, q: Vec<usize>) -> Option<Self> {
        let n = a.nrows();
        if u32::try_from(n).is_err() {
            return None;
        }
        let mut qinv = vec![0usize; n];
        for (k, &j) in q.iter().enumerate() {
            qinv[j] = k;
        }

        // Symbolic: elimination tree and column counts. Row `k`'s pattern
        // is the union of the tree paths from each `i < k` it stores up
        // to `k`; each node on a path gains one entry in its column.
        let mut parent = vec![NONE; n];
        let mut flag = vec![NONE; n];
        let mut count = vec![0usize; n];
        for k in 0..n {
            flag[k] = k;
            for &c in a.row(q[k]).0 {
                let mut i = qinv[c];
                while i < k && flag[i] != k {
                    if parent[i] == NONE {
                        parent[i] = k;
                    }
                    count[i] += 1;
                    flag[i] = k;
                    i = parent[i];
                }
            }
        }

        // Numeric, up-looking: row `k` of `L` solves `L₀ y = A[0..k, k]`
        // over its pattern (gathered in topological order on `stack`),
        // then `L[k, i] = y[i] / D[i]` and `D[k] = A[k, k] − Σ L[k, i]·y[i]`.
        let mut rows: Vec<Vec<u32>> = count.iter().map(|&c| Vec::with_capacity(c)).collect();
        let mut vals: Vec<Vec<f64>> = count.iter().map(|&c| Vec::with_capacity(c)).collect();
        drop(count);
        let mut d = vec![0.0f64; n];
        let mut y = vec![0.0f64; n];
        let mut stack = vec![0usize; n];
        let mut path = Vec::with_capacity(n);
        flag.fill(NONE);
        for k in 0..n {
            flag[k] = k;
            let mut top = n;
            let (cols, avals) = a.row(q[k]);
            for (&c, &v) in cols.iter().zip(avals) {
                let mut i = qinv[c];
                if i > k {
                    continue;
                }
                y[i] += v;
                path.clear();
                while flag[i] != k {
                    path.push(i);
                    flag[i] = k;
                    i = parent[i];
                }
                for &node in path.iter().rev() {
                    top -= 1;
                    stack[top] = node;
                }
            }
            let mut dk = y[k];
            y[k] = 0.0;
            for &i in &stack[top..] {
                let yi = y[i];
                y[i] = 0.0;
                for (&r, &l) in rows[i].iter().zip(&vals[i]) {
                    y[r as usize] -= l * yi;
                }
                let lki = yi / d[i];
                dk -= lki * yi;
                rows[i].push(k as u32);
                vals[i].push(lki);
            }
            if !(dk > 0.0 && dk.is_finite()) {
                return None;
            }
            d[k] = dk;
        }
        Some(SparseLdl {
            n,
            rows,
            vals,
            d,
            q,
        })
    }

    /// Dimension of the factored matrix.
    pub(crate) fn dim(&self) -> usize {
        self.n
    }

    /// The elimination order: `column_order()[k]` is the original row and
    /// column eliminated at step `k`.
    pub(crate) fn column_order(&self) -> &[usize] {
        &self.q
    }

    /// Stored entries: `L` below the diagonal plus `D`.
    pub(crate) fn factor_nnz(&self) -> usize {
        self.rows.iter().map(Vec::len).sum::<usize>() + self.n
    }

    /// Solves `A X = B` for a row-major block; see the module docs.
    /// The caller checks `b.nrows() == dim()`.
    ///
    /// The kernel is compiled for widths 1, 2, 4, 6 and 12 only. A block
    /// runs as chunks of 12 columns, and a narrower rest is padded with
    /// zero columns up to the next compiled width; columns never mix, so
    /// padding changes no bit. On the 128×128 mesh's `G0` factor (AMD,
    /// best of 20 solves, interleaved runs on a 2-core VM) a compiled
    /// width 12 took 0.25–0.28 ms a column against 0.38–0.72 ms for the
    /// width read at run time, width 2 0.47–0.78 against 1.28–2.47, and
    /// width 1 0.77–1.32 against 1.83–3.38; a 10-column block padded to
    /// 12 took 2.9–3.0 ms against 4.9 ms.
    pub(crate) fn solve_block(&self, b: &Matrix<f64>) -> Matrix<f64> {
        let (n, m) = (self.n, b.ncols());
        let mut out: Option<Matrix<f64>> = None;
        let mut at = 0;
        while at < m {
            let cols = at..m.min(at + 12);
            at = cols.end;
            let (y, width) = match cols.len() {
                1 => (self.solve_rows::<1>(b, cols.clone()), 1),
                2 => (self.solve_rows::<2>(b, cols.clone()), 2),
                3 | 4 => (self.solve_rows::<4>(b, cols.clone()), 4),
                5 | 6 => (self.solve_rows::<6>(b, cols.clone()), 6),
                _ => (self.solve_rows::<12>(b, cols.clone()), 12),
            };
            let out = out.get_or_insert_with(|| Matrix::zeros(n, m));
            for (k, yk) in y.chunks_exact(width).enumerate() {
                out.row_mut(self.q[k])[cols.clone()].copy_from_slice(&yk[..cols.len()]);
            }
        }
        out.unwrap_or_else(|| Matrix::zeros(n, 0))
    }

    /// The one solve kernel: solves columns `cols` of `b` (at most `M`)
    /// as a row-major block of width `M`, zero-padded, and returns that
    /// block in elimination order. `M` is a constant, so the row updates
    /// compile to fixed-length loops.
    fn solve_rows<const M: usize>(&self, b: &Matrix<f64>, cols: Range<usize>) -> Vec<f64> {
        let (n, w) = (self.n, cols.len());
        let mut y = vec![0.0f64; n * M];
        for (k, yk) in y.chunks_exact_mut(M).enumerate() {
            yk[..w].copy_from_slice(&b.row(self.q[k])[cols.clone()]);
        }
        // Forward: L Z = Y in place; column j updates the rows below it.
        for j in 0..n {
            let (upto, below) = y.split_at_mut((j + 1) * M);
            let zj = &upto[j * M..];
            for (&r, &l) in self.rows[j].iter().zip(&self.vals[j]) {
                let at = (r as usize - j - 1) * M;
                for (t, &z) in below[at..at + M].iter_mut().zip(zj) {
                    *t -= l * z;
                }
            }
        }
        // Backward: Lᵀ X = D⁻¹ Z in place; row j reads the finished rows
        // below it.
        for j in (0..n).rev() {
            let (upto, below) = y.split_at_mut((j + 1) * M);
            let xj = &mut upto[j * M..];
            let dj = self.d[j];
            for x in xj.iter_mut() {
                *x /= dj;
            }
            for (&r, &l) in self.rows[j].iter().zip(&self.vals[j]) {
                let at = (r as usize - j - 1) * M;
                for (x, &v) in xj.iter_mut().zip(&below[at..at + M]) {
                    *x -= l * v;
                }
            }
        }
        y
    }

    /// Solves `A x = b`: the block kernel at width 1.
    /// The caller checks `b.len() == dim()`.
    pub(crate) fn solve(&self, b: &[f64]) -> Vec<f64> {
        let y = self.solve_rows::<1>(&Matrix::from_col(b), 0..1);
        let mut x = vec![0.0; self.n];
        for (&i, &v) in self.q.iter().zip(&y) {
            x[i] = v;
        }
        x
    }
}
