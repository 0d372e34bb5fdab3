//! Runtime allocation check of the reduced-model evaluation path. A
//! counting global allocator records the allocations each thread makes,
//! and the tests assert the exact count of a warmed kernel: nothing for
//! the pencil factor/solve/projection, one result matrix per point plus
//! one result `Vec` per batch for `eval_batch`.
//!
//! The counter is the workspace's only `unsafe impl` (`GlobalAlloc` is
//! an unsafe trait). It lives in this test crate; every library crate
//! keeps `#![forbid(unsafe_code)]`. Counts are thread-local, so tests
//! running side by side on other threads do not disturb each other.

use pmor::{EvalPoint, EvalWorkspace, ParametricRom, ReducerKind, TransferModel};
use pmor_circuits::generators::{
    clock_tree, rc_mesh, rc_random, rlc_bus, ClockTreeConfig, RcMeshConfig, RcRandomConfig,
    RlcBusConfig,
};
use pmor_circuits::ParametricSystem;
use pmor_num::lu::PencilLu;
use pmor_num::{Complex64, Matrix};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, counting every `alloc`,
/// `alloc_zeroed` and `realloc` on the calling thread.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
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

#[test]
fn sized_pencil_factor_solve_and_projection_allocate_nothing() {
    // Orders 7 and 8 end the two-step elimination on a single step and
    // on a pair.
    for n in [7, 8] {
        let mut next = rng(0x2545_f491_4f6c_dd1d ^ n as u64);
        let g = Matrix::from_fn(n, n, |_, _| next());
        let c = Matrix::from_fn(n, n, |_, _| next());
        let b = Matrix::from_fn(n, 2, |_, _| next());
        let l = Matrix::from_fn(n, 3, |_, _| next());
        let mut h = Matrix::zeros(3, 2);
        let mut lu = PencilLu::new();
        let mut run = |s: Complex64| {
            lu.factor_pencil_into(&g, &c, s).unwrap();
            lu.solve_real_into(&b).unwrap();
            lu.project_into(&l, &mut h).unwrap();
        };
        run(Complex64::jw(1.0));
        for s in [Complex64::jw(2.5), Complex64::new(-0.3, 4.0)] {
            let ((), allocations) = counted(|| run(s));
            assert_eq!(allocations, 0, "order {n} at s = {s}");
        }
    }
}

/// Small instances of every generator family.
fn workloads() -> Vec<(&'static str, ParametricSystem)> {
    vec![
        (
            "clock_tree",
            clock_tree(&ClockTreeConfig {
                num_nodes: 40,
                ..Default::default()
            })
            .assemble(),
        ),
        (
            "rc_random",
            rc_random(&RcRandomConfig {
                num_nodes: 60,
                ..Default::default()
            })
            .assemble(),
        ),
        (
            "rlc_bus",
            rlc_bus(&RlcBusConfig {
                segments: 12,
                ..Default::default()
            })
            .assemble(),
        ),
        (
            "rc_mesh",
            rc_mesh(&RcMeshConfig {
                rows: 12,
                cols: 12,
                ..Default::default()
            })
            .assemble(),
        ),
    ]
}

/// 64 log-spaced frequencies over 10 MHz–10 GHz.
fn frequencies() -> Vec<f64> {
    (0..64)
        .map(|i| 1e7 * 10f64.powf(3.0 * i as f64 / 63.0))
        .collect()
}

#[test]
fn warmed_rom_batches_allocate_one_matrix_per_point_and_one_vec() {
    for (workload, sys) in workloads() {
        let rom: ParametricRom = ReducerKind::LowRank.build(&sys).reduce_once(&sys).unwrap();
        let np = rom.num_params();
        let freqs = frequencies();
        // A frequency sweep shares one `p`; a scatter gives every point
        // its own `p` and so re-assembles the reduced pencil each time.
        let sweep = EvalPoint::sweep(&vec![0.05; np], &freqs);
        let mut next = rng(0x9e37_79b9_7f4a_7c15);
        let scatter: Vec<EvalPoint> = freqs
            .iter()
            .map(|&f| {
                let p = (0..np).map(|_| 0.2 * next()).collect();
                EvalPoint::new(p, Complex64::jw(2.0 * std::f64::consts::PI * f))
            })
            .collect();
        let mut ws = EvalWorkspace::new();
        for (shape, points) in [("sweep", &sweep), ("scatter", &scatter)] {
            rom.eval_batch(points, &mut ws).unwrap();
            let (out, allocations) = counted(|| rom.eval_batch(points, &mut ws).unwrap());
            assert_eq!(out.len(), points.len());
            assert_eq!(
                allocations,
                points.len() + 1,
                "{workload} {shape}: one matrix per point plus the result Vec"
            );
        }
    }
}
