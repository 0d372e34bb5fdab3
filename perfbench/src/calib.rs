//! Host-speed calibration kernels.
//!
//! The kernels use nothing but `std`, so no change to the library crates
//! can change their cost: they measure the host, not the code under test.
//! `main` refuses to run if this file ever names a library crate.
//!
//! The 2-vCPU KVM guest the benchmark was defined on alternates between a
//! fast phase and one about 1.8× slower for compute-bound code, each
//! lasting minutes, while memory-bound sparse code slows by about 1.5×.
//! So each kind of timed unit is bracketed by the kernel that tracks it
//! best (see `README.md` for the measurements):
//!
//! * [`Kernel::Dense`] — a 64×64 complex LU with partial pivoting, the
//!   shape of a ROM evaluation point; brackets evaluation batches.
//! * [`Kernel::Sparse`] — four products of a 5-point Laplacian on a
//!   256×256 grid (CSR, about 6 MB) with a vector; brackets the 16k-mesh
//!   reductions and set-ups, whose time is in sparse factorization and
//!   solves.
//! * [`Kernel::Blend`] — one run of each, combined as a geometric mean;
//!   brackets the 32×32-mesh set-ups, whose reduction mixes small sparse
//!   solves with dense orthogonalisation.
//!
//! A unit's time is reported as `t_raw / slowdown`, where `slowdown` is
//! the kernel's local time divided by its reference time below.

use std::cell::RefCell;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// A calibration kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    Dense,
    Sparse,
    Blend,
}

impl Kernel {
    /// Reference time, seconds: the kernel's median on the host the
    /// benchmark was defined on, in its fast phase. A normalised timing
    /// reads in seconds of that host in that phase.
    pub fn reference_s(self) -> f64 {
        match self {
            Kernel::Dense => 1.6e-4,
            Kernel::Sparse => 1.8e-3,
            Kernel::Blend => (Kernel::Dense.reference_s() * Kernel::Sparse.reference_s()).sqrt(),
        }
    }

    /// Times one kernel run, in seconds.
    pub fn sample(self) -> f64 {
        match self {
            Kernel::Blend => (Kernel::Dense.sample() * Kernel::Sparse.sample()).sqrt(),
            Kernel::Dense => {
                let t = Instant::now();
                black_box(dense_lu());
                t.elapsed().as_secs_f64()
            }
            Kernel::Sparse => SCRATCH.with_borrow_mut(|y| {
                let grid = sparse_grid();
                y.resize(grid.x.len(), 0.0);
                let t = Instant::now();
                black_box(sparse_products(grid, y));
                t.elapsed().as_secs_f64()
            }),
        }
    }
}

/// Order of the dense kernel's matrix.
const N: usize = 64;
/// Side of the sparse kernel's grid.
const SIDE: usize = 256;
/// Matrix-vector products per sparse kernel run.
const PRODUCTS: usize = 4;

/// Factors a fixed, well-conditioned complex matrix in place and returns a
/// checksum of the pivots.
fn dense_lu() -> f64 {
    let mut a = vec![(0.0f64, 0.0f64); N * N];
    for i in 0..N {
        for j in 0..N {
            let d = i.abs_diff(j) as f64;
            let re = 1.0 / (1.0 + d) + if i == j { 4.0 } else { 0.0 };
            let im = 0.01 * ((i * 7 + j * 3) % 11) as f64;
            a[i * N + j] = (re, im);
        }
    }
    let a = black_box(&mut a);
    let mut checksum = 0.0;
    for k in 0..N {
        let mut piv = k;
        let mut best = 0.0;
        for r in k..N {
            let (re, im) = a[r * N + k];
            let m = re * re + im * im;
            if m > best {
                best = m;
                piv = r;
            }
        }
        if piv != k {
            for c in 0..N {
                a.swap(k * N + c, piv * N + c);
            }
        }
        let (pr, pi) = a[k * N + k];
        let den = pr * pr + pi * pi;
        let (ir, ii) = (pr / den, -pi / den);
        checksum += den.sqrt();
        for r in (k + 1)..N {
            let (xr, xi) = a[r * N + k];
            let (fr, fi) = (xr * ir - xi * ii, xr * ii + xi * ir);
            a[r * N + k] = (fr, fi);
            for c in (k + 1)..N {
                let (ur, ui) = a[k * N + c];
                let (vr, vi) = a[r * N + c];
                a[r * N + c] = (vr - (fr * ur - fi * ui), vi - (fr * ui + fi * ur));
            }
        }
    }
    checksum
}

/// The sparse kernel's matrix (CSR) and input vector.
struct Grid {
    row_ptr: Vec<usize>,
    col: Vec<usize>,
    val: Vec<f64>,
    x: Vec<f64>,
}

/// Built once, on first use ([`warm`] does it before any timing).
fn sparse_grid() -> &'static Grid {
    static GRID: OnceLock<Grid> = OnceLock::new();
    GRID.get_or_init(|| {
        let mut g = Grid {
            row_ptr: vec![0],
            col: Vec::new(),
            val: Vec::new(),
            x: (0..SIDE * SIDE).map(|i| (i % 7) as f64).collect(),
        };
        for r in 0..SIDE {
            for c in 0..SIDE {
                for (dr, dc) in [(-1i64, 0i64), (0, -1), (0, 0), (0, 1), (1, 0)] {
                    let (rr, cc) = (r as i64 + dr, c as i64 + dc);
                    if (0..SIDE as i64).contains(&rr) && (0..SIDE as i64).contains(&cc) {
                        g.col.push(rr as usize * SIDE + cc as usize);
                        g.val.push(if dr == 0 && dc == 0 { 4.0 } else { -1.0 });
                    }
                }
                g.row_ptr.push(g.col.len());
            }
        }
        g
    })
}

thread_local! {
    /// The sparse kernel's output vector, allocated outside the timing.
    static SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

fn sparse_products(g: &Grid, y: &mut [f64]) -> f64 {
    for _ in 0..PRODUCTS {
        for (r, out) in y.iter_mut().enumerate() {
            let mut s = 0.0;
            for k in g.row_ptr[r]..g.row_ptr[r + 1] {
                s += g.val[k] * g.x[g.col[k]];
            }
            *out = s;
        }
        black_box(&mut *y);
    }
    y[SIDE]
}

/// Builds the sparse kernel's data, so no timing pays for it.
pub fn warm() {
    sparse_grid();
}

/// Median of `runs` runs of `kernel`, seconds.
pub fn quiet(kernel: Kernel, runs: usize) -> f64 {
    let mut t: Vec<f64> = (0..runs).map(|_| kernel.sample()).collect();
    t.sort_by(f64::total_cmp);
    t[t.len() / 2]
}

/// Runs `f` between two runs of `kernel`. Returns `f`'s value, its raw
/// duration and the local kernel time (the mean of the two runs).
pub fn bracket<T>(kernel: Kernel, f: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = kernel.sample();
    let t = Instant::now();
    let out = f();
    let raw = t.elapsed().as_secs_f64();
    let after = kernel.sample();
    (out, raw, 0.5 * (before + after))
}
