//! Left-looking sparse LU factorization (Gilbert–Peierls).
//!
//! Every complex factorization (the full model's `G + sC` at each
//! frequency point) is made here. A real one goes through
//! [`crate::RealFactor::factor`], which applies one rule: a bitwise
//! symmetric matrix whose pivots all come out finite and positive (the
//! `G(p)` of every RC family) takes the symmetric `L·D·Lᵀ` factor of
//! [`crate::ldl`]; any other real matrix comes here. So `rlc_bus`, whose
//! MNA `G` is unsymmetric (inductor branches), and indefinite or singular
//! symmetric matrices are factored by this LU. Partial pivoting keeps it
//! robust on unsymmetric matrices; an optional fill-reducing column
//! ordering (see [`crate::ordering`]) keeps fill-in low on tree- and
//! ladder-structured interconnect.
//!
//! Both `solve` (`A x = b`) and `solve_transpose` (`Aᵀ x = b`) are provided;
//! the latter implements the paper's observation that with `G0 = L·U` one
//! gets `G0ᵀ = Uᵀ·Lᵀ` for free, enabling the `A0ᵀ` Krylov subspaces of
//! Algorithm 1 step 2.2 without a second factorization.
//!
//! # Pruned reach search
//!
//! Column `k`'s nonzero pattern is the set of rows reachable from
//! `A[:, q[k]]` through the finished columns of `L`, found by depth-first
//! search. Walking every stored row of every `L` column makes that search
//! cost more than the arithmetic on 2-D meshes, so it is pruned
//! symmetrically (Eisenstat & Liu, *SIAM J. Matrix Anal. Appl.* 13(1),
//! 1992). Once column `k` is pivoted, each column `j` of `U(:, k)` whose
//! `L` column holds the new pivot row and is not pruned yet keeps, for
//! the search, only its rows that are already pivotal: its other rows are
//! in `L(:, k)` too and are reached through the pivot row. The rule needs
//! `L(:, k)` to hold every non-pivotal row of the reach, so a column that
//! dropped an exact-zero entry there prunes nothing. Pruning never changes
//! the reach. It changes the order in which the reach is visited, and that
//! order is the order of the numeric updates, so factor values can differ
//! from the unpruned search's in the last bits. The pivot sequence and the
//! fill are those of the full search, except where those last bits decide:
//! a near-tied pivot, or an entry that cancels to an exact zero (and is
//! dropped) in one update order but not in the other.
//!
//! The search reads pruned rows from a side list. The stored `L` columns
//! stay sorted by row: `solve_transpose` and `solve_transpose_block` sum
//! each `L` column in storage order, so that order is part of the factor's
//! bits.
//!
//! # Storage and block solves
//!
//! Each column of `L` and `U` is one vector of `(index, value)` entries,
//! sized exactly: a factorization counts a column's entries before it
//! gathers them.
//! (One packed array per factor was measured too. Its large short-lived
//! allocations raised peak memory under glibc's dynamic mmap threshold,
//! for no measurable end-to-end speed.)
//!
//! [`SparseLu::solve_block`] and [`SparseLu::solve_transpose_block`]
//! solve `m` right-hand sides held as one row-major `n × m` block, so each
//! factor entry is loaded once per block instead of once per column. Every
//! column keeps its exact operation order, so a block solve is **bitwise
//! identical** to solving its columns one at a time. Where the column
//! solve skips a zero multiplier, the block solve subtracts `+0` in that
//! column (masking the product, since `l·(+0)` may be `−0` and `x − (−0)`
//! turns a `−0` into `+0`), and it skips a step outright only when the
//! whole multiplier row is zero. A one-column block takes the column path.

use crate::csr::CsrMatrix;
use crate::{Result, SparseError};
use pmor_num::{Matrix, Scalar};

/// Threshold for partial pivoting: a diagonal-position candidate is accepted
/// if its magnitude is at least `PIVOT_THRESHOLD` times the largest candidate
/// in the column. Favors sparsity-preserving diagonal pivots on
/// diagonally-dominant MNA matrices while remaining backward stable.
const PIVOT_THRESHOLD: f64 = 0.1;

/// Sparse LU factors `A[:, q] = Pᵀ · L · U` of a square matrix.
///
/// `P` is the row permutation chosen by partial pivoting; `q` is the
/// caller-supplied column ordering (identity when `None` is passed to
/// [`SparseLu::factor`]).
#[derive(Debug, Clone)]
pub struct SparseLu<T = f64> {
    n: usize,
    /// Column k of L: `(original_row, value)`, strictly below the pivot;
    /// the pivot (value 1) is implicit.
    l_cols: Vec<Vec<(usize, T)>>,
    /// Column k of U: `(pivot_position, value)` with `pivot_position < k`;
    /// the diagonal is stored in `u_diag`.
    u_cols: Vec<Vec<(usize, T)>>,
    u_diag: Vec<T>,
    /// `pinv[original_row] = pivot_position`.
    pinv: Vec<usize>,
    /// `row_of_pos[pivot_position] = original_row`.
    row_of_pos: Vec<usize>,
    /// Column ordering: `q[k]` is the original column factored at step k.
    q: Vec<usize>,
}

const UNASSIGNED: usize = usize::MAX;

impl<T: Scalar> SparseLu<T> {
    /// Factors a square sparse matrix with threshold partial pivoting.
    ///
    /// `col_order`, when given, is a fill-reducing permutation (e.g. from
    /// [`crate::ordering::rcm`] or [`crate::ordering::amd`]): column
    /// `col_order[k]` is eliminated at step `k`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::EmptyColumn`] when a column stores no
    /// entries at all, [`SparseError::Singular`] when a column has no
    /// usable pivot, and [`SparseError::DimensionMismatch`] for non-square
    /// matrices or a malformed ordering.
    pub fn factor(a: &CsrMatrix<T>, col_order: Option<&[usize]>) -> Result<Self> {
        let n = a.nrows();
        if a.ncols() != n {
            return Err(SparseError::DimensionMismatch {
                context: "SparseLu::factor (square matrix required)",
                expected: n,
                actual: a.ncols(),
            });
        }
        let q = check_order(n, col_order, "SparseLu::factor (ordering)")?;

        // Column-major copy of A for fast column access.
        let acsc = a.transposed(); // rows of acsc are columns of a

        let mut l_cols: Vec<Vec<(usize, T)>> = Vec::with_capacity(n);
        let mut u_cols: Vec<Vec<(usize, T)>> = Vec::with_capacity(n);
        let mut u_diag: Vec<T> = Vec::with_capacity(n);
        let mut pinv = vec![UNASSIGNED; n];
        let mut row_of_pos = vec![UNASSIGNED; n];

        // Dense work arrays over original row indices.
        let mut x = vec![T::ZERO; n];
        let mut visited = vec![usize::MAX; n]; // stamp = current column k
        let mut topo: Vec<usize> = Vec::with_capacity(n);
        let mut dfs_stack: Vec<(usize, usize)> = Vec::new();
        // Symmetric pruning: `pruned[j]` is the range of `pruned_rows`
        // the DFS follows instead of the whole `L` column `j`.
        let mut pruned: Vec<Option<(usize, usize)>> = vec![None; n];
        let mut pruned_rows: Vec<usize> = Vec::new();

        for k in 0..n {
            let col = q[k];
            let (b_rows, b_vals) = acsc.row(col);
            if b_rows.is_empty() {
                return Err(SparseError::EmptyColumn(col));
            }

            // --- Symbolic: depth-first search for the reach of the RHS
            // pattern through the already-built columns of L.
            topo.clear();
            for &i0 in b_rows {
                if visited[i0] == k {
                    continue;
                }
                // Iterative DFS from i0.
                dfs_stack.clear();
                dfs_stack.push((i0, 0));
                visited[i0] = k;
                while let Some(&mut (i, ref mut child)) = dfs_stack.last_mut() {
                    let kp = pinv[i];
                    let next = if kp == UNASSIGNED {
                        None
                    } else if let Some((start, end)) = pruned[kp] {
                        pruned_rows[start..end].get(*child).copied()
                    } else {
                        l_cols[kp].get(*child).map(|&(r, _)| r)
                    };
                    if let Some(r) = next {
                        *child += 1;
                        if visited[r] != k {
                            visited[r] = k;
                            dfs_stack.push((r, 0));
                        }
                    } else {
                        topo.push(i);
                        dfs_stack.pop();
                    }
                }
            }
            // `topo` is a post-order; dependencies of a node appear *after*
            // it, so process in reverse.

            // --- Numeric: sparse triangular solve L·x = A[:, col].
            for &i in &topo {
                x[i] = T::ZERO;
            }
            for (&i, &v) in b_rows.iter().zip(b_vals.iter()) {
                x[i] = v;
            }
            for idx in (0..topo.len()).rev() {
                let i = topo[idx];
                let kp = pinv[i];
                if kp == UNASSIGNED {
                    continue;
                }
                let xi = x[i];
                if xi == T::ZERO {
                    continue;
                }
                for &(r, lv) in &l_cols[kp] {
                    x[r] -= lv * xi;
                }
            }

            // --- Pivot selection among not-yet-pivotal rows.
            let mut best_row = UNASSIGNED;
            let mut best_mag = 0.0f64;
            let mut diag_row = UNASSIGNED;
            for &i in &topo {
                if pinv[i] == UNASSIGNED {
                    let m = x[i].modulus();
                    if m > best_mag {
                        best_mag = m;
                        best_row = i;
                    }
                    if i == col {
                        diag_row = i;
                    }
                }
            }
            if best_row == UNASSIGNED || best_mag == 0.0 {
                return Err(SparseError::Singular(col));
            }
            // Prefer the diagonal when it passes the threshold test.
            let piv_row =
                if diag_row != UNASSIGNED && x[diag_row].modulus() >= PIVOT_THRESHOLD * best_mag {
                    diag_row
                } else {
                    best_row
                };
            let pivot = x[piv_row];

            // --- Gather into L and U columns, counted first so that each
            // is allocated once at its exact size.
            let (mut l_len, mut u_len, mut l_dropped) = (0, 0, false);
            for &i in &topo {
                if i == piv_row {
                    continue;
                }
                if pinv[i] == UNASSIGNED {
                    if x[i] != T::ZERO {
                        l_len += 1;
                    } else {
                        l_dropped = true;
                    }
                } else if x[i] != T::ZERO {
                    u_len += 1;
                }
            }
            let mut lcol: Vec<(usize, T)> = Vec::with_capacity(l_len);
            let mut ucol: Vec<(usize, T)> = Vec::with_capacity(u_len);
            let pivot_inv = pivot.recip();
            for &i in &topo {
                let v = x[i];
                if v == T::ZERO || i == piv_row {
                    continue;
                }
                let kp = pinv[i];
                if kp == UNASSIGNED {
                    lcol.push((i, v * pivot_inv));
                } else {
                    ucol.push((kp, v));
                }
            }
            // Deterministic order aids reproducibility and cache behaviour.
            ucol.sort_unstable_by_key(|&(kp, _)| kp);
            lcol.sort_unstable_by_key(|&(i, _)| i);

            pinv[piv_row] = k;
            row_of_pos[k] = piv_row;

            // --- Symmetric pruning (Eisenstat–Liu): each unpruned column
            // `j` of `U(:, k)` whose `L` column holds the new pivot row
            // reaches its not-yet-pivotal rows again through `L(:, k)`, so
            // the DFS keeps only its pivotal rows. That needs `L(:, k)` to
            // hold every non-pivotal row of the reach; a column that
            // dropped an exact zero there prunes nothing.
            if !l_dropped {
                for &(j, _) in &ucol {
                    if pruned[j].is_none()
                        && l_cols[j]
                            .binary_search_by_key(&piv_row, |&(r, _)| r)
                            .is_ok()
                    {
                        let start = pruned_rows.len();
                        pruned_rows.extend(
                            l_cols[j]
                                .iter()
                                .map(|&(r, _)| r)
                                .filter(|&r| pinv[r] != UNASSIGNED),
                        );
                        pruned[j] = Some((start, pruned_rows.len()));
                    }
                }
            }

            l_cols.push(lcol);
            u_cols.push(ucol);
            u_diag.push(pivot);
        }

        Ok(SparseLu {
            n,
            l_cols,
            u_cols,
            u_diag,
            pinv,
            row_of_pos,
            q,
        })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Column ordering used by the factorization: `column_order()[k]` is the
    /// original column eliminated at step `k`.
    pub fn column_order(&self) -> &[usize] {
        &self.q
    }

    /// Row permutation chosen by pivoting: `row_of_position()[k]` is the
    /// original row serving as pivot `k`.
    pub fn row_of_position(&self) -> &[usize] {
        &self.row_of_pos
    }

    /// Total stored nonzeros in `L + U` (fill-in indicator).
    pub fn factor_nnz(&self) -> usize {
        self.l_cols.iter().map(Vec::len).sum::<usize>()
            + self.u_cols.iter().map(Vec::len).sum::<usize>()
            + self.n
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>> {
        let n = self.n;
        if b.len() != n {
            return Err(SparseError::DimensionMismatch {
                context: "SparseLu::solve",
                expected: n,
                actual: b.len(),
            });
        }
        // Forward: L y = P b, with y indexed by pivot position; the work
        // array w lives on original row indices.
        let mut w = b.to_vec();
        let mut y = vec![T::ZERO; n];
        for k in 0..n {
            let yk = w[self.row_of_pos[k]];
            y[k] = yk;
            if yk == T::ZERO {
                continue;
            }
            for &(r, lv) in &self.l_cols[k] {
                w[r] -= lv * yk;
            }
        }
        // Backward: U z = y, z[k] is the solution for column q[k].
        for k in (0..n).rev() {
            let zk = y[k] * self.u_diag[k].recip();
            y[k] = zk;
            if zk == T::ZERO {
                continue;
            }
            for &(kp, uv) in &self.u_cols[k] {
                y[kp] -= uv * zk;
            }
        }
        // Undo the column permutation.
        let mut xout = vec![T::ZERO; n];
        for k in 0..n {
            xout[self.q[k]] = y[k];
        }
        Ok(xout)
    }

    /// Solves `Aᵀ x = b` reusing the same factors (`Aᵀ = Q·Uᵀ·Lᵀ·P`).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve_transpose(&self, b: &[T]) -> Result<Vec<T>> {
        let n = self.n;
        if b.len() != n {
            return Err(SparseError::DimensionMismatch {
                context: "SparseLu::solve_transpose",
                expected: n,
                actual: b.len(),
            });
        }
        // b' = Qᵀ b (position space).
        let mut y: Vec<T> = (0..n).map(|k| b[self.q[k]]).collect();
        // Forward: Uᵀ y' = b' (Uᵀ is lower triangular). Column k of U holds
        // entries U[kp, k]; in Uᵀ these become row k. Process ascending.
        for k in 0..n {
            let mut acc = y[k];
            for &(kp, uv) in &self.u_cols[k] {
                acc -= uv * y[kp];
            }
            y[k] = acc * self.u_diag[k].recip();
        }
        // Backward: Lᵀ z = y. Column k of L holds L[i, k] for rows i with
        // pinv[i] > k; in Lᵀ these multiply z at position pinv[i].
        for k in (0..n).rev() {
            let mut acc = y[k];
            for &(i, lv) in &self.l_cols[k] {
                acc -= lv * y[self.pinv[i]];
            }
            y[k] = acc;
        }
        // x = Pᵀ z: x[row_of_pos[k]] = z[k].
        let mut xout = vec![T::ZERO; n];
        for k in 0..n {
            xout[self.row_of_pos[k]] = y[k];
        }
        Ok(xout)
    }

    /// Solves `A X = B` for a dense block of right-hand sides, bitwise
    /// identical to [`SparseLu::solve`] on each column of `B`.
    ///
    /// The block is row-major, so each factor entry updates all `m`
    /// columns of one row in a single pass. Where the column solve skips a
    /// zero multiplier, this subtracts `+0` in that column instead (an
    /// exact identity); a step is skipped only when its whole multiplier
    /// row is zero. A one-column block takes the column path, which wins
    /// there.
    ///
    /// Use this for dense blocks, such as sketch or basis blocks. For
    /// sparse right-hand sides, such as the columns of an input matrix
    /// `B`, [`SparseLu::solve_dense`] is faster: it solves per column and
    /// skips every zero multiplier.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `b.nrows() != dim()`.
    pub fn solve_block(&self, b: &Matrix<T>) -> Result<Matrix<T>> {
        self.check_block(b, "SparseLu::solve_block")?;
        Ok(match b.ncols() {
            0 => Matrix::zeros(self.n, 0),
            1 => Matrix::from_col(&self.solve(b.as_slice())?),
            _ => self.solve_block_of(b),
        })
    }

    /// Solves `Aᵀ X = B` for a dense block of right-hand sides, bitwise
    /// identical to [`SparseLu::solve_transpose`] on each column of `B`.
    /// The transpose solve has no zero skip, so this is a straight block
    /// loop. A one-column block takes the column path.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `b.nrows() != dim()`.
    pub fn solve_transpose_block(&self, b: &Matrix<T>) -> Result<Matrix<T>> {
        self.check_block(b, "SparseLu::solve_transpose_block")?;
        Ok(match b.ncols() {
            0 => Matrix::zeros(self.n, 0),
            1 => Matrix::from_col(&self.solve_transpose(b.as_slice())?),
            _ => self.solve_transpose_block_of(b),
        })
    }

    fn check_block(&self, b: &Matrix<T>, context: &'static str) -> Result<()> {
        if b.nrows() == self.n {
            Ok(())
        } else {
            Err(SparseError::DimensionMismatch {
                context,
                expected: self.n,
                actual: b.nrows(),
            })
        }
    }

    /// [`SparseLu::solve_block`]'s kernel.
    fn solve_block_of(&self, b: &Matrix<T>) -> Matrix<T> {
        let (n, m) = (self.n, b.ncols());
        // Forward: L Y = P B in place, Y by pivot position. Row `r`'s
        // updates all come from steps before its own, `pinv[r]`, so
        // applying them at that position is the column solve's order.
        let mut y = vec![T::ZERO; n * m];
        for (k, yk) in y.chunks_exact_mut(m).enumerate() {
            yk.copy_from_slice(b.row(self.row_of_pos[k]));
        }
        for k in 0..n {
            let (upto, below) = y.split_at_mut((k + 1) * m);
            let yk = &upto[k * m..];
            if yk.iter().all(|&v| v == T::ZERO) {
                continue;
            }
            for &(r, lv) in &self.l_cols[k] {
                let p = self.pinv[r] - k - 1;
                sub_masked(&mut below[p * m..(p + 1) * m], lv, yk);
            }
        }
        // Backward: U Z = Y in place; U's entries of step k sit above it.
        for k in (0..n).rev() {
            let d = self.u_diag[k].recip();
            let (above, rest) = y.split_at_mut(k * m);
            let zk = &mut rest[..m];
            for z in zk.iter_mut() {
                *z *= d;
            }
            if zk.iter().all(|&v| v == T::ZERO) {
                continue;
            }
            for &(kp, uv) in &self.u_cols[k] {
                sub_masked(&mut above[kp * m..(kp + 1) * m], uv, zk);
            }
        }
        let mut out = Matrix::zeros(n, m);
        for (k, yk) in y.chunks_exact(m).enumerate() {
            out.row_mut(self.q[k]).copy_from_slice(yk);
        }
        out
    }

    /// [`SparseLu::solve_transpose_block`]'s kernel.
    fn solve_transpose_block_of(&self, b: &Matrix<T>) -> Matrix<T> {
        let (n, m) = (self.n, b.ncols());
        let mut y = vec![T::ZERO; n * m];
        for (k, yk) in y.chunks_exact_mut(m).enumerate() {
            yk.copy_from_slice(b.row(self.q[k]));
        }
        // Forward: Uᵀ Y' = B'; step k reads the finished rows above it.
        for k in 0..n {
            let d = self.u_diag[k].recip();
            let (above, rest) = y.split_at_mut(k * m);
            let acc = &mut rest[..m];
            for &(kp, uv) in &self.u_cols[k] {
                for (a, &v) in acc.iter_mut().zip(&above[kp * m..(kp + 1) * m]) {
                    *a -= uv * v;
                }
            }
            for a in acc.iter_mut() {
                *a *= d;
            }
        }
        // Backward: Lᵀ Z = Y; step k reads the finished rows below it.
        for k in (0..n).rev() {
            let (upto, below) = y.split_at_mut((k + 1) * m);
            let acc = &mut upto[k * m..];
            for &(i, lv) in &self.l_cols[k] {
                let p = self.pinv[i] - k - 1;
                for (a, &v) in acc.iter_mut().zip(&below[p * m..(p + 1) * m]) {
                    *a -= lv * v;
                }
            }
        }
        let mut out = Matrix::zeros(n, m);
        for (k, yk) in y.chunks_exact(m).enumerate() {
            out.row_mut(self.row_of_pos[k]).copy_from_slice(yk);
        }
        out
    }

    /// Solves for several right-hand sides given as dense columns, one
    /// [`SparseLu::solve`] per column.
    ///
    /// Use this when the right-hand sides are sparse, such as the columns
    /// of an input matrix `B`: each column skips its own zero multipliers.
    /// For dense blocks, [`SparseLu::solve_block`] gives the same bits
    /// faster.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `b.nrows() != dim()`.
    pub fn solve_dense(&self, b: &pmor_num::Matrix<T>) -> Result<pmor_num::Matrix<T>> {
        if b.nrows() != self.n {
            return Err(SparseError::DimensionMismatch {
                context: "SparseLu::solve_dense",
                expected: self.n,
                actual: b.nrows(),
            });
        }
        let mut out = pmor_num::Matrix::zeros(self.n, b.ncols());
        for j in 0..b.ncols() {
            out.set_col(j, &self.solve(&b.col(j))?);
        }
        Ok(out)
    }
}

/// Checks a caller's fill-reducing ordering of an `n × n` matrix and
/// returns it (the identity for `None`).
pub(crate) fn check_order(
    n: usize,
    col_order: Option<&[usize]>,
    context: &'static str,
) -> Result<Vec<usize>> {
    let Some(ord) = col_order else {
        return Ok((0..n).collect());
    };
    let malformed = |actual| SparseError::DimensionMismatch {
        context,
        expected: n,
        actual,
    };
    if ord.len() != n {
        return Err(malformed(ord.len()));
    }
    let mut seen = vec![false; n];
    for &j in ord {
        if j >= n || seen[j] {
            return Err(malformed(j));
        }
        seen[j] = true;
    }
    Ok(ord.to_vec())
}

/// `dst[j] -= f·src[j]`, except that a zero `src[j]` subtracts `+0`: the
/// block form of the column solves' zero-multiplier skip. The product is
/// masked rather than the multiplier because `f·(+0)` can be `−0`, and
/// subtracting `−0` would turn a `−0` entry into `+0`.
#[inline]
fn sub_masked<T: Scalar>(dst: &mut [T], f: T, src: &[T]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        let p = f * s;
        *d -= if s == T::ZERO { T::ZERO } else { p };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooBuilder;
    use pmor_num::{vecops, Complex64};

    fn random_spd_like(n: usize, seed: u64) -> CsrMatrix<f64> {
        // Diagonally dominant tridiagonal-ish pattern with a few long-range
        // couplings: representative of MNA conductance matrices.
        let mut b = CooBuilder::new(n, n);
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 1000.0 + 0.1
        };
        for i in 0..n {
            b.add(i, i, 4.0 + next());
            if i + 1 < n {
                let g = next();
                b.add(i, i + 1, -g);
                b.add(i + 1, i, -g);
            }
            if i + 7 < n {
                let g = 0.3 * next();
                b.add(i, i + 7, -g);
                b.add(i + 7, i, -g);
            }
        }
        b.build_csr()
    }

    #[test]
    fn solves_small_dense_system() {
        let a = CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 2.0),
                (0, 1, 1.0),
                (0, 2, 1.0),
                (1, 0, 4.0),
                (1, 1, -6.0),
                (2, 0, -2.0),
                (2, 1, 7.0),
                (2, 2, 2.0),
            ],
        );
        let lu = SparseLu::factor(&a, None).unwrap();
        let x = lu.solve(&[5.0, -2.0, 9.0]).unwrap();
        for (xi, ei) in x.iter().zip([1.0, 1.0, 2.0]) {
            assert!((xi - ei).abs() < 1e-12, "{x:?}");
        }
    }

    #[test]
    fn residuals_small_on_random_systems() {
        for seed in [3, 17, 99] {
            let n = 120;
            let a = random_spd_like(n, seed);
            let lu = SparseLu::factor(&a, None).unwrap();
            let b: Vec<f64> = (0..n).map(|i| ((i * 7) as f64).sin()).collect();
            let x = lu.solve(&b).unwrap();
            let r = vecops::sub(&a.mul_vec(&x), &b);
            assert!(vecops::norm2(&r) < 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn transpose_solve_matches_explicit_transpose() {
        let n = 80;
        let a = random_spd_like(n, 5);
        // Make it unsymmetric to exercise the permutations.
        let mut tri: Vec<(usize, usize, f64)> = a.iter().collect();
        tri.push((0, n - 1, 0.7));
        tri.push((n / 2, 1, -0.4));
        let a = CsrMatrix::from_triplets(n, n, &tri);

        let lu = SparseLu::factor(&a, None).unwrap();
        let b: Vec<f64> = (0..n).map(|i| ((i * 3) as f64).cos()).collect();
        let xt = lu.solve_transpose(&b).unwrap();
        let at = a.transposed();
        let r = vecops::sub(&at.mul_vec(&xt), &b);
        assert!(vecops::norm2(&r) < 1e-9);

        // Cross-check against factoring the transpose directly.
        let lu_t = SparseLu::factor(&at, None).unwrap();
        let xt2 = lu_t.solve(&b).unwrap();
        assert!(vecops::rel_err(&xt, &xt2) < 1e-9);
    }

    #[test]
    fn column_ordering_gives_same_solution() {
        let n = 60;
        let a = random_spd_like(n, 11);
        let order: Vec<usize> = (0..n).rev().collect();
        let lu_plain = SparseLu::factor(&a, None).unwrap();
        let lu_ord = SparseLu::factor(&a, Some(&order)).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sqrt()).collect();
        let x1 = lu_plain.solve(&b).unwrap();
        let x2 = lu_ord.solve(&b).unwrap();
        assert!(vecops::rel_err(&x1, &x2) < 1e-9);
        let xt1 = lu_plain.solve_transpose(&b).unwrap();
        let xt2 = lu_ord.solve_transpose(&b).unwrap();
        assert!(vecops::rel_err(&xt1, &xt2) < 1e-9);
    }

    #[test]
    fn singular_matrix_detected() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 1.0)]);
        assert!(matches!(
            SparseLu::factor(&a, None),
            Err(SparseError::Singular(_))
        ));
    }

    #[test]
    fn permutation_requiring_matrix() {
        // Zero diagonal forces off-diagonal pivoting.
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 2.0)]);
        let lu = SparseLu::factor(&a, None).unwrap();
        let x = lu.solve(&[3.0, 4.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-14);
        assert!((x[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn complex_factorization() {
        // (G + jωC) with G, C diagonally dominant.
        let n = 40;
        let g = random_spd_like(n, 7);
        let a = g.map(|v| Complex64::new(v, 0.3 * v));
        let lu = SparseLu::factor(&a, None).unwrap();
        let b: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64).sin(), (i as f64).cos()))
            .collect();
        let x = lu.solve(&b).unwrap();
        let r = vecops::sub(&a.mul_vec(&x), &b);
        assert!(vecops::norm2(&r) < 1e-9);
    }

    #[test]
    fn bad_ordering_rejected() {
        let a = CsrMatrix::<f64>::identity(3);
        assert!(SparseLu::factor(&a, Some(&[0, 0, 1])).is_err());
        assert!(SparseLu::factor(&a, Some(&[0, 1])).is_err());
    }

    #[test]
    fn a_column_that_cancels_to_an_exact_zero_prunes_nothing() {
        // Step 1 would prune column 0 down to its pivotal row 1, but row
        // 2 of column 1 cancels exactly (1 − 1·1), so L(:, 1) does not
        // carry row 2 onward. Column 2 reaches row 2 only through column
        // 0's full pattern, and row 2 is its diagonal pivot.
        let a = CsrMatrix::from_triplets(
            4,
            4,
            &[
                (0, 0, 1.0),
                (0, 1, 1.0),
                (0, 2, 1.0),
                (1, 0, 1.0),
                (1, 1, 3.0),
                (2, 0, 1.0),
                (2, 1, 1.0),
                (2, 3, 1.0),
                (3, 2, 1.0),
                (3, 3, 1.0),
            ],
        );
        let lu = SparseLu::factor(&a, None).unwrap();
        assert_eq!(lu.row_of_position(), &[0, 1, 2, 3]);
        let b = [1.0, -2.0, 0.5, 3.0];
        let x = lu.solve(&b).unwrap();
        let r = vecops::sub(&a.mul_vec(&x), &b);
        assert!(vecops::norm2(&r) < 1e-12, "residual {r:?}");
    }

    #[test]
    fn structurally_empty_column_is_a_loud_error() {
        // Column 1 stores nothing at all: EmptyColumn, not Singular or panic.
        let a =
            CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (1, 2, 1.0), (2, 0, 2.0), (2, 2, 1.0)]);
        let err = SparseLu::factor(&a, None).unwrap_err();
        assert!(matches!(err, SparseError::EmptyColumn(1)));
        assert!(err.to_string().contains("structurally empty"), "{err}");
    }

    #[test]
    fn identity_factors_trivially() {
        let a = CsrMatrix::<f64>::identity(5);
        let lu = SparseLu::factor(&a, None).unwrap();
        assert_eq!(lu.factor_nnz(), 5);
        let b = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(lu.solve(&b).unwrap(), b);
        assert_eq!(lu.solve_transpose(&b).unwrap(), b);
    }
}
