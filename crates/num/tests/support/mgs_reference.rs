//! Plain reference of `OrthoBasis::insert`: two modified Gram–Schmidt
//! passes, each inner product (`vecops::dot`) followed by its update
//! (`vecops::axpy`, skipped when the product is zero); a candidate is
//! dropped when its norm is zero or non-finite, or when less than
//! `DEFAULT_DEFLATION_TOL` of it survives the projection. The basis
//! applies each update in the same sweep as the next inner product and
//! must match this bit for bit. Shared by the kernel oracle and the
//! low-rank projection reference.

use pmor_num::orth::DEFAULT_DEFLATION_TOL;
use pmor_num::{vecops, Scalar};

/// Orthonormalizes `v` against `cols` and appends it; returns whether it
/// survived deflation.
pub fn insert<T: Scalar>(cols: &mut Vec<Vec<T>>, v: &[T]) -> bool {
    let orig = vecops::norm2(v);
    if orig == 0.0 || !orig.is_finite() {
        return false;
    }
    let mut w = v.to_vec();
    for _pass in 0..2 {
        for q in cols.iter() {
            let h = vecops::dot(q, &w);
            if h != T::ZERO {
                vecops::axpy(-h, q, &mut w);
            }
        }
    }
    let rem = vecops::norm2(&w);
    if rem <= DEFAULT_DEFLATION_TOL * orig {
        return false;
    }
    vecops::scale(T::from_f64(1.0 / rem), &mut w);
    cols.push(w);
    true
}
