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
