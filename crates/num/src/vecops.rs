//! Free functions on dense vectors (`&[T]` / `&mut [T]`).
//!
//! Krylov recurrences manipulate bare vectors far more often than matrices,
//! so the hot kernels live here rather than behind a vector newtype.

use crate::scalar::Scalar;

/// Inner product `⟨x, y⟩ = Σ conj(xᵢ)·yᵢ` (the complex Euclidean inner
/// product; reduces to the ordinary dot product for reals).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> T {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter()
        .zip(y.iter())
        .fold(T::ZERO, |acc, (&a, &b)| acc + a.conj() * b)
}

/// For every `yⱼ`: `yⱼ += aⱼ·p` (skipped where `aⱼ` is zero), then
/// `out[j] = ⟨x, yⱼ⟩` of the updated `yⱼ`, all in one sweep over the
/// entries; with no `(p, a)` only the inner products are formed. Each
/// `yⱼ` and `out[j]` are bit for bit [`axpy`] followed by [`dot`]: every
/// inner product is its own element-order chain. The chains run side by
/// side, four at a time, so no add waits on the one before it, and each
/// `yⱼ` is read once per sweep instead of twice.
///
/// # Panics
///
/// Panics if the lengths differ, or if `a` has fewer entries than `ys`.
pub fn axpy_dot_each<T: Scalar>(
    update: Option<(&[T], &[T])>,
    x: &[T],
    ys: &mut [Vec<T>],
    out: &mut Vec<T>,
) {
    out.clear();
    let mut at = 0;
    for four in ys.chunks_mut(4) {
        let k = four.len();
        let upd = update.map(|(p, a)| (p, &a[at..at + k]));
        at += k;
        match four {
            [a, b, c, d] => out.extend(chains(upd, x, [a, b, c, d])),
            [a, b, c] => out.extend(chains(upd, x, [a, b, c])),
            [a, b] => out.extend(chains(upd, x, [a, b])),
            [a] => out.extend(chains(upd, x, [a])),
            _ => {}
        }
    }
}

/// `K` interleaved [`axpy`]-then-[`dot`] chains (see [`axpy_dot_each`]).
fn chains<T: Scalar, const K: usize>(
    update: Option<(&[T], &[T])>,
    x: &[T],
    ys: [&mut Vec<T>; K],
) -> [T; K] {
    let n = x.len();
    let ys = ys.map(|y| {
        assert_eq!(y.len(), n, "dot: length mismatch");
        &mut y[..n]
    });
    let mut acc = [T::ZERO; K];
    match update {
        None => {
            for i in 0..n {
                let xi = x[i].conj();
                for k in 0..K {
                    acc[k] += xi * ys[k][i];
                }
            }
        }
        Some((p, a)) => {
            assert_eq!(p.len(), n, "axpy: length mismatch");
            let a: [T; K] = std::array::from_fn(|k| a[k]);
            let live = a.map(|ak| ak != T::ZERO);
            for i in 0..n {
                let (xi, pi) = (x[i].conj(), p[i]);
                for k in 0..K {
                    if live[k] {
                        ys[k][i] += a[k] * pi;
                    }
                    acc[k] += xi * ys[k][i];
                }
            }
        }
    }
    acc
}

/// Euclidean norm `‖x‖₂`.
pub fn norm2<T: Scalar>(x: &[T]) -> f64 {
    x.iter()
        .map(|v| {
            let m = v.modulus();
            m * m
        })
        .sum::<f64>()
        .sqrt()
}

/// In-place `y += a * x`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn axpy<T: Scalar>(a: T, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi += a * xi;
    }
}

/// In-place `y += a * x`, then `⟨q, y⟩` of the updated `y`, in one
/// sweep: bit for bit [`axpy`] followed by [`dot`]`(q, y)`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn axpy_dot<T: Scalar>(a: T, x: &[T], y: &mut [T], q: &[T]) -> T {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    assert_eq!(q.len(), y.len(), "dot: length mismatch");
    let mut acc = T::ZERO;
    for ((yi, &xi), &qi) in y.iter_mut().zip(x).zip(q) {
        *yi += a * xi;
        acc += qi.conj() * *yi;
    }
    acc
}

/// In-place `x *= a`.
pub fn scale<T: Scalar>(a: T, x: &mut [T]) {
    for xi in x.iter_mut() {
        *xi *= a;
    }
}

/// Returns `x - y` as a new vector.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn sub<T: Scalar>(x: &[T], y: &[T]) -> Vec<T> {
    assert_eq!(x.len(), y.len(), "sub: length mismatch");
    x.iter().zip(y.iter()).map(|(&a, &b)| a - b).collect()
}

/// Returns `x + y` as a new vector.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn add<T: Scalar>(x: &[T], y: &[T]) -> Vec<T> {
    assert_eq!(x.len(), y.len(), "add: length mismatch");
    x.iter().zip(y.iter()).map(|(&a, &b)| a + b).collect()
}

/// Normalizes `x` to unit Euclidean norm in place, returning the original
/// norm. Vectors with norm below `tiny` are left untouched and `0.0` is
/// returned, signalling numerical rank deficiency to the caller.
pub fn normalize<T: Scalar>(x: &mut [T], tiny: f64) -> f64 {
    let n = norm2(x);
    if n <= tiny {
        return 0.0;
    }
    scale(T::from_f64(1.0 / n), x);
    n
}

/// Relative error `‖x - y‖₂ / ‖y‖₂` with the convention `‖·‖/0 = ‖·‖`.
pub fn rel_err<T: Scalar>(x: &[T], y: &[T]) -> f64 {
    let d = norm2(&sub(x, y));
    let n = norm2(y);
    if n == 0.0 {
        d
    } else {
        d / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex64;

    #[test]
    fn dot_conjugates_left_argument() {
        let x = vec![Complex64::new(0.0, 1.0)];
        let y = vec![Complex64::new(0.0, 1.0)];
        // ⟨i, i⟩ = conj(i)·i = 1.
        assert_eq!(dot(&x, &y), Complex64::ONE);
    }

    #[test]
    fn norm_and_normalize() {
        let mut x = vec![3.0, 4.0];
        assert!((norm2(&x) - 5.0).abs() < 1e-15);
        let n = normalize(&mut x, 1e-300);
        assert!((n - 5.0).abs() < 1e-15);
        assert!((norm2(&x) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn normalize_flags_tiny_vectors() {
        let mut x = vec![1e-320, 0.0];
        assert_eq!(normalize(&mut x, 1e-300), 0.0);
        assert_eq!(x[0], 1e-320);
    }

    #[test]
    fn axpy_and_arithmetic() {
        let x = vec![1.0, 2.0];
        let mut y = vec![10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![12.0, 24.0]);
        assert_eq!(sub(&y, &x), vec![11.0, 22.0]);
        assert_eq!(add(&x, &x), vec![2.0, 4.0]);
    }

    #[test]
    fn rel_err_conventions() {
        assert!((rel_err(&[1.0, 0.0], &[0.0, 0.0]) - 1.0).abs() < 1e-15);
        assert!(rel_err(&[1.0, 1.0], &[1.0, 1.0]) < 1e-15);
    }
}
