//! Plain reference for `SparseLu::factor`: left-looking Gilbert–Peierls
//! LU with the same threshold partial pivoting, whose reach search walks
//! every stored row of every `L` column (no symmetric pruning). It keeps
//! the pivot sequence and fill that the pruned search must reproduce, and
//! serves as the baseline its speed is measured against.

use pmor_num::Scalar;
use pmor_sparse::CsrMatrix;

const PIVOT_THRESHOLD: f64 = 0.1;
const UNASSIGNED: usize = usize::MAX;

/// Factors of `A[:, q] = Pᵀ·L·U`, column by column as the kernel builds
/// them: `L` columns by original row, `U` columns by pivot position.
pub struct ReferenceLu<T> {
    pub l_cols: Vec<Vec<(usize, T)>>,
    pub u_cols: Vec<Vec<(usize, T)>>,
    pub u_diag: Vec<T>,
    pub row_of_pos: Vec<usize>,
}

impl<T> ReferenceLu<T> {
    /// Stored nonzeros of `L + U`, diagonal included.
    pub fn factor_nnz(&self) -> usize {
        self.l_cols.iter().map(Vec::len).sum::<usize>()
            + self.u_cols.iter().map(Vec::len).sum::<usize>()
            + self.u_diag.len()
    }
}

/// Unpruned Gilbert–Peierls factorization of square `a` eliminating
/// column `q[k]` at step `k` (natural order for `None`). Panics on a
/// structurally empty or singular column.
pub fn factor<T: Scalar>(a: &CsrMatrix<T>, col_order: Option<&[usize]>) -> ReferenceLu<T> {
    let n = a.nrows();
    let q: Vec<usize> = col_order.map_or_else(|| (0..n).collect(), <[usize]>::to_vec);
    let acsc = a.transposed();
    let mut l_cols: Vec<Vec<(usize, T)>> = Vec::with_capacity(n);
    let mut u_cols: Vec<Vec<(usize, T)>> = Vec::with_capacity(n);
    let mut u_diag: Vec<T> = Vec::with_capacity(n);
    let mut pinv = vec![UNASSIGNED; n];
    let mut row_of_pos = vec![UNASSIGNED; n];
    let mut x = vec![T::ZERO; n];
    let mut visited = vec![usize::MAX; n];
    let mut topo: Vec<usize> = Vec::with_capacity(n);
    let mut dfs_stack: Vec<(usize, usize)> = Vec::new();

    for k in 0..n {
        let col = q[k];
        let (b_rows, b_vals) = acsc.row(col);
        assert!(!b_rows.is_empty(), "column {col} is structurally empty");
        topo.clear();
        for &i0 in b_rows {
            if visited[i0] == k {
                continue;
            }
            dfs_stack.clear();
            dfs_stack.push((i0, 0));
            visited[i0] = k;
            while let Some(&mut (i, ref mut child)) = dfs_stack.last_mut() {
                let kp = pinv[i];
                let children: &[(usize, T)] = if kp == UNASSIGNED { &[] } else { &l_cols[kp] };
                if *child < children.len() {
                    let (r, _) = children[*child];
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

        for &i in &topo {
            x[i] = T::ZERO;
        }
        for (&i, &v) in b_rows.iter().zip(b_vals) {
            x[i] = v;
        }
        for &i in topo.iter().rev() {
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

        let (mut best_row, mut best_mag, mut diag_row) = (UNASSIGNED, 0.0f64, UNASSIGNED);
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
        assert!(
            best_row != UNASSIGNED && best_mag != 0.0,
            "column {col} is singular"
        );
        let piv_row =
            if diag_row != UNASSIGNED && x[diag_row].modulus() >= PIVOT_THRESHOLD * best_mag {
                diag_row
            } else {
                best_row
            };
        let pivot = x[piv_row];

        let pivot_inv = pivot.recip();
        let mut lcol = Vec::new();
        let mut ucol = Vec::new();
        for &i in &topo {
            let v = x[i];
            if v == T::ZERO || i == piv_row {
                continue;
            }
            if pinv[i] == UNASSIGNED {
                lcol.push((i, v * pivot_inv));
            } else {
                ucol.push((pinv[i], v));
            }
        }
        ucol.sort_unstable_by_key(|&(kp, _)| kp);
        lcol.sort_unstable_by_key(|&(i, _)| i);

        pinv[piv_row] = k;
        row_of_pos[k] = piv_row;
        l_cols.push(lcol);
        u_cols.push(ucol);
        u_diag.push(pivot);
    }
    ReferenceLu {
        l_cols,
        u_cols,
        u_diag,
        row_of_pos,
    }
}
