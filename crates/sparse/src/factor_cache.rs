//! Memoizing store for sparse LU factorizations.
//!
//! The paper's cost model (§4.2) revolves around a **one-time**
//! factorization of the nominal conductance matrix `G0`: PRIMA's Krylov
//! recurrence, the sensitivity SVDs of Algorithm 1 (forward *and*
//! transpose solves) and multi-point expansion's nominal sample all
//! reuse those factors. [`FactorCache`] memoizes real factors under
//! caller-chosen keys so a whole pipeline shares one factorization per
//! distinct matrix.
//!
//! Keys are opaque to this crate: callers (see `pmor::ReductionContext`)
//! derive them from whatever identifies the matrix in their domain — a
//! parameter point, a matrix role tag. Factors are handed out as
//! [`Arc`]s, so held factors stay valid across later cache insertions
//! and can be shared across worker threads.

use crate::lu::SparseLu;
use crate::Result;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// An opaque cache key: a sequence of 64-bit words (typically a role tag
/// followed by the bit patterns of the identifying floats).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FactorKey(pub Vec<u64>);

impl FactorKey {
    /// Builds a key from a role tag and the bit patterns of `values`.
    pub fn tagged(tag: u64, values: &[f64]) -> Self {
        let mut words = Vec::with_capacity(values.len() + 1);
        words.push(tag);
        words.extend(values.iter().map(|v| v.to_bits()));
        FactorKey(words)
    }
}

/// Counters describing how a [`FactorCache`] has been used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FactorCacheStats {
    /// Real factorizations actually performed (cache misses).
    pub real_factorizations: usize,
    /// Requests served from the cache without factoring.
    pub hits: usize,
}

/// A memoizing store of real sparse LU factors.
///
/// # Example
///
/// ```
/// use pmor_sparse::{CooBuilder, FactorCache, FactorKey, SparseLu};
///
/// # fn main() -> Result<(), pmor_sparse::SparseError> {
/// let mut coo = CooBuilder::new(2, 2);
/// coo.add(0, 0, 2.0);
/// coo.add(1, 1, 4.0);
/// let a = coo.build_csr();
/// let mut cache = FactorCache::new();
/// let key = FactorKey::tagged(1, &[]);
/// let lu1 = cache.real(key.clone(), || SparseLu::factor(&a, None))?;
/// let lu2 = cache.real(key, || unreachable!("second request must hit"))?;
/// assert_eq!(cache.stats().real_factorizations, 1);
/// assert_eq!(cache.stats().hits, 1);
/// assert!((lu1.solve(&[2.0, 8.0])?[1] - lu2.solve(&[2.0, 8.0])?[1]).abs() < 1e-15);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct FactorCache {
    real: HashMap<FactorKey, Arc<SparseLu<f64>>>,
    stats: FactorCacheStats,
}

impl FactorCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        FactorCache::default()
    }

    /// Returns the real factors stored under `key`, calling `factor` to
    /// produce them on the first request. A failed factorization is not
    /// cached (and not counted as performed).
    ///
    /// # Errors
    ///
    /// Propagates the error returned by `factor`.
    pub fn real(
        &mut self,
        key: FactorKey,
        factor: impl FnOnce() -> Result<SparseLu<f64>>,
    ) -> Result<Arc<SparseLu<f64>>> {
        if let Some(lu) = self.real.get(&key) {
            self.stats.hits += 1;
            return Ok(Arc::clone(lu));
        }
        let lu = Arc::new(factor()?);
        self.stats.real_factorizations += 1;
        self.real.insert(key, Arc::clone(&lu));
        Ok(lu)
    }

    /// Returns the real factors stored under `key` without factoring
    /// anything and **without touching the usage counters** — a
    /// read-only inspection hook for provenance reporting, where a
    /// metrics pass must not perturb the hit/factorization accounting
    /// that tests and bench records assert on.
    pub fn peek_real(&self, key: &FactorKey) -> Option<Arc<SparseLu<f64>>> {
        self.real.get(key).map(Arc::clone)
    }

    /// Batch counterpart of [`FactorCache::real`]: resolves many keys at
    /// once, running the **missing** factorizations on up to `threads`
    /// scoped worker threads (`0` = available parallelism).
    ///
    /// Jobs supply the assembled matrix, and every miss is factored by
    /// [`SparseLu::factor`] under `ordering` on the workers.
    ///
    /// The returned factors line up with `jobs` order. On **success**,
    /// cache state and counters end up exactly as if the jobs had been
    /// requested serially in order: every distinct uncached key counts
    /// one factorization, every other request counts a hit, and when
    /// several jobs carry the same key only the first factors.
    /// Factorization itself is deterministic, so thread count affects
    /// wall-clock only — never the stored factors (the basis of the
    /// workspace's "parallelism never changes numerics" guarantee).
    ///
    /// # Errors
    ///
    /// Propagates the error of the earliest-ordered failing job. Unlike
    /// a serial request loop (which would stop at the failure), the
    /// whole batch was already dispatched: every *successful* sibling is
    /// kept in the cache and counted as a factorization — so a retry
    /// after fixing the bad matrix only factors that one — while hit
    /// accounting for the batch is skipped. Counters therefore match the
    /// serial path only on the success path; after an error they reflect
    /// the work actually performed.
    pub fn real_parallel<M>(
        &mut self,
        jobs: Vec<(FactorKey, M)>,
        threads: usize,
        ordering: Option<&[usize]>,
    ) -> Result<Vec<Arc<SparseLu<f64>>>>
    where
        M: FnOnce() -> crate::CsrMatrix<f64> + Send,
    {
        let keys: Vec<FactorKey> = jobs.iter().map(|(k, _)| k.clone()).collect();
        // Misses only, first occurrence per key, in job order.
        let mut pending: Vec<(FactorKey, M)> = Vec::new();
        for (key, assemble) in jobs {
            if !self.real.contains_key(&key) && !pending.iter().any(|(k, _)| *k == key) {
                pending.push((key, assemble));
            }
        }
        let workers = effective_threads(threads, pending.len());
        let produced: Vec<(FactorKey, Result<SparseLu<f64>>)> = if workers <= 1 {
            pending
                .into_iter()
                .map(|(k, assemble)| (k, SparseLu::factor(&assemble(), ordering)))
                .collect()
        } else {
            let queue = Mutex::new(pending.into_iter().enumerate().collect::<Vec<_>>());
            let done = Mutex::new(Vec::new());
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        // pmor-lint: allow(panic-in-lib) reason="poisoning requires a panic in a sibling scoped worker, which thread::scope re-raises at join"
                        let Some((slot, (key, assemble))) = queue.lock().unwrap().pop() else {
                            break;
                        };
                        let lu = SparseLu::factor(&assemble(), ordering);
                        // pmor-lint: allow(panic-in-lib) reason="poisoning requires a panic in a sibling scoped worker, which thread::scope re-raises at join"
                        done.lock().unwrap().push((slot, key, lu));
                    });
                }
            });
            // pmor-lint: allow(panic-in-lib) reason="poisoning requires a panic in a sibling scoped worker, which thread::scope re-raises at join"
            let mut out = done.into_inner().unwrap();
            out.sort_by_key(|(slot, _, _)| *slot);
            out.into_iter().map(|(_, k, lu)| (k, lu)).collect()
        };
        // Insert in job order — cache state and counters are independent
        // of worker scheduling — and surface the earliest failure.
        let mut first_err = None;
        let mut inserted = 0usize;
        for (key, lu) in produced {
            match lu {
                Ok(lu) => {
                    self.stats.real_factorizations += 1;
                    inserted += 1;
                    self.real.insert(key, Arc::new(lu));
                }
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        self.stats.hits += keys.len() - inserted;
        let out = keys
            .iter()
            // pmor-lint: allow(panic-in-lib) reason="every key is either a prior hit or was inserted from `pending` above; factorization failures already returned Err"
            .map(|k| Arc::clone(self.real.get(k).expect("all keys resolved")))
            .collect();
        Ok(out)
    }

    /// Usage counters (misses are factorizations, hits are reuses).
    pub fn stats(&self) -> FactorCacheStats {
        self.stats
    }

    /// Drops every stored factor. Counters are preserved: they describe
    /// lifetime usage, not current contents.
    pub fn clear(&mut self) {
        self.real.clear();
    }
}

/// Worker count for a batch: the configured knob (`0` = available
/// parallelism), never more than one worker per job, at least one.
fn effective_threads(threads: usize, jobs: usize) -> usize {
    let configured = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    };
    configured.min(jobs).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrMatrix;

    fn diag(values: &[f64]) -> CsrMatrix<f64> {
        let triplets: Vec<(usize, usize, f64)> =
            values.iter().enumerate().map(|(i, &v)| (i, i, v)).collect();
        CsrMatrix::from_triplets(values.len(), values.len(), &triplets)
    }

    #[test]
    fn second_request_hits_and_reuses_the_same_factors() {
        let a = diag(&[2.0, 4.0]);
        let mut cache = FactorCache::new();
        let key = FactorKey::tagged(0, &[0.0, 0.0]);
        let lu1 = cache
            .real(key.clone(), || SparseLu::factor(&a, None))
            .unwrap();
        let lu2 = cache.real(key, || panic!("must not refactor")).unwrap();
        assert!(Arc::ptr_eq(&lu1, &lu2));
        assert_eq!(cache.stats().real_factorizations, 1);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn distinct_keys_factor_independently() {
        let a = diag(&[2.0, 4.0]);
        let b = diag(&[1.0, 8.0]);
        let mut cache = FactorCache::new();
        let lu_a = cache
            .real(FactorKey::tagged(0, &[0.0]), || SparseLu::factor(&a, None))
            .unwrap();
        let lu_b = cache
            .real(FactorKey::tagged(0, &[0.5]), || SparseLu::factor(&b, None))
            .unwrap();
        assert_eq!(cache.stats().real_factorizations, 2);
        assert_eq!(cache.stats().hits, 0);
        // Each key solves its own system.
        assert!((lu_a.solve(&[2.0, 4.0]).unwrap()[0] - 1.0).abs() < 1e-15);
        assert!((lu_b.solve(&[2.0, 4.0]).unwrap()[0] - 2.0).abs() < 1e-15);
    }

    #[test]
    fn failed_factorization_is_not_cached() {
        let singular = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0)]);
        let ok = diag(&[1.0, 1.0]);
        let mut cache = FactorCache::new();
        let key = FactorKey::tagged(0, &[]);
        assert!(cache
            .real(key.clone(), || SparseLu::factor(&singular, None))
            .is_err());
        assert_eq!(cache.stats().real_factorizations, 0);
        // The key is free for a successful retry.
        cache.real(key, || SparseLu::factor(&ok, None)).unwrap();
        assert_eq!(cache.stats().real_factorizations, 1);
    }

    /// Same-pattern tridiagonal family indexed by a shift value.
    fn trid(n: usize, shift: f64) -> CsrMatrix<f64> {
        let mut tri = Vec::new();
        for i in 0..n {
            tri.push((i, i, 4.0 + shift + 0.1 * i as f64));
            if i + 1 < n {
                tri.push((i, i + 1, -1.0 - 0.05 * shift));
                tri.push((i + 1, i, -1.0));
            }
        }
        CsrMatrix::from_triplets(n, n, &tri)
    }

    /// Batch jobs from boxed matrix builders, so one list can mix
    /// matrices of different patterns.
    type Job = (FactorKey, Box<dyn FnOnce() -> CsrMatrix<f64> + Send>);

    fn job(x: f64, a: CsrMatrix<f64>) -> Job {
        (FactorKey::tagged(0, &[x]), Box::new(move || a))
    }

    /// Asserts that two factorizations solve bit for bit alike, forward
    /// and transposed.
    fn assert_solves_bitwise_equal(a: &SparseLu<f64>, b: &SparseLu<f64>, what: &str) {
        let rhs: Vec<f64> = (0..a.dim()).map(|i| (i as f64).sin() + 0.5).collect();
        let pairs = [
            (a.solve(&rhs).unwrap(), b.solve(&rhs).unwrap()),
            (
                a.solve_transpose(&rhs).unwrap(),
                b.solve_transpose(&rhs).unwrap(),
            ),
        ];
        for (x, y) in &pairs {
            for (u, v) in x.iter().zip(y) {
                assert_eq!(u.to_bits(), v.to_bits(), "{what}");
            }
        }
    }

    #[test]
    fn parallel_batch_matches_serial_cache_state() {
        // Same matrices through real_parallel and a serial request loop
        // must leave identical counters and bitwise-identical factors at
        // any thread count, and a second batch must only hit.
        let n = 40;
        let shifts = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5];
        let mut ser = FactorCache::new();
        let got_ser: Vec<_> = shifts
            .iter()
            .map(|&s| {
                ser.real(FactorKey::tagged(3, &[s]), || {
                    SparseLu::factor(&trid(n, s), None)
                })
                .unwrap()
            })
            .collect();
        for threads in [1usize, 0, 4] {
            let jobs = || -> Vec<_> {
                shifts
                    .iter()
                    .map(|&s| (FactorKey::tagged(3, &[s]), move || trid(n, s)))
                    .collect()
            };
            let mut par = FactorCache::new();
            let got = par.real_parallel(jobs(), threads, None).unwrap();
            assert_eq!(par.stats(), ser.stats(), "{threads} threads");
            assert_eq!(par.stats().real_factorizations, shifts.len());
            for (a, b) in got.iter().zip(&got_ser) {
                assert_solves_bitwise_equal(a, b, &format!("{threads} threads"));
            }
            let again = par.real_parallel(jobs(), threads, None).unwrap();
            assert_eq!(par.stats().real_factorizations, shifts.len());
            assert_eq!(par.stats().hits, shifts.len());
            for (a, b) in got.iter().zip(&again) {
                assert!(Arc::ptr_eq(a, b));
            }
        }
    }

    #[test]
    fn parallel_batch_counts_cached_and_duplicate_keys_as_hits() {
        let a = diag(&[2.0, 4.0]);
        let mut cache = FactorCache::new();
        cache
            .real(FactorKey::tagged(0, &[0.0]), || SparseLu::factor(&a, None))
            .unwrap();
        // One pre-cached key, one fresh key requested twice.
        let b = diag(&[1.0, 8.0]);
        let jobs = vec![job(0.0, a), job(1.0, b.clone()), job(1.0, b)];
        let got = cache.real_parallel(jobs, 0, None).unwrap();
        assert_eq!(got.len(), 3);
        assert!(Arc::ptr_eq(&got[1], &got[2]));
        // Serial equivalent: 1 old miss + 1 new miss, 2 hits.
        assert_eq!(cache.stats().real_factorizations, 2);
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn parallel_batch_surfaces_earliest_failure_and_keeps_good_factors() {
        // Column 1, then column 0, stores nothing: both jobs fail, and the
        // earlier one's error is the batch's.
        let empty_col1 = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 0, 1.0)]);
        let empty_col0 = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 1, 1.0)]);
        let ok = diag(&[1.0, 1.0]);
        let key = |x: f64| FactorKey::tagged(0, &[x]);
        for threads in [1usize, 0, 4] {
            let mut cache = FactorCache::new();
            let jobs = vec![
                job(0.0, ok.clone()),
                job(1.0, empty_col1.clone()),
                job(2.0, empty_col0.clone()),
            ];
            let err = cache.real_parallel(jobs, threads, None).unwrap_err();
            assert!(matches!(err, crate::SparseError::EmptyColumn(1)), "{err}");
            // The good factor was kept (serial retry semantics), the bad
            // keys stay free.
            assert_eq!(cache.stats().real_factorizations, 1);
            let kept = cache.peek_real(&key(0.0)).expect("good factor kept");
            assert_solves_bitwise_equal(&kept, &SparseLu::factor(&ok, None).unwrap(), "kept");
            assert!(cache.peek_real(&key(1.0)).is_none());
            assert!(cache.peek_real(&key(2.0)).is_none());
            // A failing first job keeps a later good one too.
            let mut cache = FactorCache::new();
            let jobs = vec![job(0.0, empty_col0.clone()), job(1.0, trid(6, 0.0))];
            let err = cache.real_parallel(jobs, threads, None).unwrap_err();
            assert!(matches!(err, crate::SparseError::EmptyColumn(0)), "{err}");
            assert_eq!(cache.stats().real_factorizations, 1);
            assert!(cache.peek_real(&key(0.0)).is_none());
            assert!(cache.peek_real(&key(1.0)).is_some());
        }
    }

    #[test]
    fn clear_preserves_lifetime_counters() {
        let a = diag(&[1.0]);
        let mut cache = FactorCache::new();
        let key = FactorKey::tagged(0, &[]);
        cache
            .real(key.clone(), || SparseLu::factor(&a, None))
            .unwrap();
        cache.clear();
        assert!(cache.peek_real(&key).is_none());
        assert_eq!(cache.stats().real_factorizations, 1);
    }
}
