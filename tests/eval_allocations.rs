//! Runtime allocation proof of the reduced-model evaluation path. A
//! counting global allocator records the allocations each thread makes,
//! and the tests assert the exact count of every kernel by the
//! `*_into` / `&mut EvalWorkspace` convention, on a ROM of every
//! generator family:
//!
//! * warmed `ParametricRom::transfer_with`: the returned matrix, 1;
//! * warmed `eval_batch`: one matrix per point plus the result `Vec`;
//! * `g_at_into` / `c_at_into` (through `assemble_affine_into`), the
//!   dense and sparse `mul_vec_into`, `tr_mul_vec_into`,
//!   `LuFactors::solve_into` and the `PencilLu` and `PencilLdl` factor /
//!   solve / projection kernels: nothing once sized;
//! * `EvalEngine::map_chunked` and `map` at 1, 2 and 4 threads: each
//!   worker, counted on its own thread, allocates what a cold serial
//!   run of the same chunk does;
//! * the ROM transient stepper: 4 + one series per output, whatever the
//!   step count.
//!
//! The full-model routes (`FullModel::transfer_with` and `transient`,
//! the trait-default `transfer_with` / `eval_batch`, and
//! `worst_transfer_error`) are reference paths and sit outside the
//! allocation-free contract.
//!
//! The counter is the workspace's only `unsafe impl` (`GlobalAlloc` is
//! an unsafe trait). It lives in this test crate; every library crate
//! keeps `#![forbid(unsafe_code)]`. Counts are thread-local, so tests
//! running side by side on other threads do not disturb each other.

use pmor::transient::{Stimulus, TransientOptions};
use pmor::{EvalEngine, EvalPoint, EvalWorkspace, ParametricRom, ReducerKind, TransferModel};
use pmor_circuits::generators::{
    clock_tree, rc_mesh, rc_random, rlc_bus, ClockTreeConfig, RcMeshConfig, RcRandomConfig,
    RlcBusConfig,
};
use pmor_circuits::ParametricSystem;
use pmor_num::lu::{LuFactors, PencilLdl, PencilLu};
use pmor_num::{Complex64, Matrix};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

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
        let bc = Matrix::from_fn(n, 2, |_, _| Complex64::new(next(), next()));
        let l = Matrix::from_fn(n, 3, |_, _| next());
        let mut h = Matrix::zeros(3, 2);
        let mut lu = PencilLu::new();
        let mut run = |s: Complex64| {
            lu.factor_pencil_into(&g, &c, s).unwrap();
            lu.solve_real_into(&b).unwrap();
            lu.project_into(&l, &mut h).unwrap();
            lu.solve_complex_into(&bc).unwrap();
            lu.project_into(&l, &mut h).unwrap();
        };
        run(Complex64::jw(1.0));
        for s in [Complex64::jw(2.5), Complex64::new(-0.3, 4.0)] {
            let ((), allocations) = counted(|| run(s));
            assert_eq!(allocations, 0, "order {n} at s = {s}");
        }

        // The pivot-free kernel on a symmetric, diagonally dominant
        // pencil, and on one whose zero leading pivot sends it to its
        // LU fallback.
        let sym = |m: &Matrix<f64>, shift: f64| {
            Matrix::from_fn(n, n, |r, k| {
                m[(r, k)] + m[(k, r)] + if r == k { shift } else { 0.0 }
            })
        };
        let (gs, cs) = (sym(&g, n as f64), sym(&c, 1.0));
        let mut g0 = gs.clone();
        g0[(0, 0)] = 0.0;
        let c0 = Matrix::from_fn(n, n, |r, k| if r == 0 || k == 0 { 0.0 } else { cs[(r, k)] });
        for (g, c, pivoted) in [(&gs, &cs, false), (&g0, &c0, true)] {
            let mut ldl = PencilLdl::new();
            let mut run = |s: Complex64| {
                ldl.factor_pencil_into(g, c, s).unwrap();
                assert_eq!(ldl.pivoted(), pivoted);
                ldl.solve_real_into(&b).unwrap();
                ldl.project_into(&l, &mut h).unwrap();
            };
            run(Complex64::jw(1.0));
            for s in [Complex64::jw(2.5), Complex64::new(-0.3, 4.0)] {
                let ((), allocations) = counted(|| run(s));
                assert_eq!(allocations, 0, "LDLᵀ order {n} at s = {s}");
            }
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

/// The lowrank ROM of `sys`. The RC families' reduced matrices equal
/// their transposes bit for bit, so their pencils run on `PencilLdl`;
/// the RLC bus's run on `PencilLu`. The workloads cover both arms of
/// the evaluation dispatch.
fn reduce(sys: &ParametricSystem) -> ParametricRom {
    let rom = ReducerKind::LowRank.build(sys).reduce_once(sys).unwrap();
    let symmetric = rom.g0.is_bitwise_symmetric() && rom.c0.is_bitwise_symmetric();
    assert_eq!(symmetric, sys.g0.is_bitwise_symmetric());
    rom
}

/// Two 64-point batches over 10 MHz–10 GHz: a frequency sweep sharing
/// one `p`, and a scatter giving every point its own `p`, so that each
/// point re-assembles the reduced pencil.
fn batches(np: usize) -> [(&'static str, Vec<EvalPoint>); 2] {
    let freqs: Vec<f64> = (0..64)
        .map(|i| 1e7 * 10f64.powf(3.0 * i as f64 / 63.0))
        .collect();
    let sweep = EvalPoint::sweep(&vec![0.05; np], &freqs);
    let mut next = rng(0x9e37_79b9_7f4a_7c15);
    let scatter = freqs
        .iter()
        .map(|&f| {
            let p = (0..np).map(|_| 0.2 * next()).collect();
            EvalPoint::new(p, Complex64::jw(2.0 * std::f64::consts::PI * f))
        })
        .collect();
    [("sweep", sweep), ("scatter", scatter)]
}

/// Runs `f` once to size its buffers, then asserts the exact number of
/// allocations a second run makes on this thread.
fn assert_warmed(expected: usize, what: &str, mut f: impl FnMut()) {
    f();
    let ((), allocations) = counted(&mut f);
    assert_eq!(allocations, expected, "{what}");
}

#[test]
fn warmed_rom_batches_allocate_one_matrix_per_point_and_one_vec() {
    for (workload, sys) in workloads() {
        let rom = reduce(&sys);
        let mut ws = EvalWorkspace::new();
        for (shape, points) in batches(rom.num_params()) {
            rom.eval_batch(&points, &mut ws).unwrap();
            let (out, allocations) = counted(|| rom.eval_batch(&points, &mut ws).unwrap());
            assert_eq!(out.len(), points.len());
            assert_eq!(
                allocations,
                points.len() + 1,
                "{workload} {shape}: one matrix per point plus the result Vec"
            );
        }
    }
}

#[test]
fn warmed_rom_kernels_allocate_only_their_result() {
    for (workload, sys) in workloads() {
        let rom = reduce(&sys);
        let [(_, sweep), (_, scatter)] = batches(rom.num_params());
        let mut ws = EvalWorkspace::new();
        for (shape, points) in [("sweep", &sweep), ("scatter", &scatter)] {
            let mut pts = points.iter().cycle();
            assert_warmed(1, &format!("{workload} {shape}: transfer_with"), || {
                let pt = pts.next().unwrap();
                rom.transfer_with(&pt.params, pt.s, &mut ws).unwrap();
            });
        }

        let (mut g, mut c) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        let mut pts = scatter.iter().cycle();
        assert_warmed(0, &format!("{workload}: g_at_into + c_at_into"), || {
            let p = &pts.next().unwrap().params;
            rom.g_at_into(p, &mut g);
            rom.c_at_into(p, &mut c);
        });

        let q = rom.size();
        let x: Vec<f64> = (0..q).map(|i| 1.0 + i as f64).collect();
        let u = vec![1.0; rom.num_inputs()];
        let xs = vec![1.0; sys.dim()];
        let lu = LuFactors::factor(&g).unwrap();
        let (mut bu, mut y, mut gx, mut sol, mut gxs) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        assert_warmed(0, &format!("{workload}: Matrix::mul_vec_into"), || {
            rom.b.mul_vec_into(&u, &mut bu);
            g.mul_vec_into(&x, &mut gx);
        });
        assert_warmed(0, &format!("{workload}: Matrix::tr_mul_vec_into"), || {
            rom.l.tr_mul_vec_into(&x, &mut y)
        });
        assert_warmed(0, &format!("{workload}: LuFactors::solve_into"), || {
            lu.solve_into(&x, &mut sol).unwrap()
        });
        assert_warmed(0, &format!("{workload}: CsrMatrix::mul_vec_into"), || {
            sys.g0.mul_vec_into(&xs, &mut gxs)
        });
    }
}

#[test]
fn engine_workers_allocate_what_a_cold_serial_batch_of_their_chunk_does() {
    for (workload, sys) in workloads() {
        let rom = reduce(&sys);
        for (shape, points) in batches(rom.num_params()) {
            let serial = rom.eval_batch(&points, &mut EvalWorkspace::new()).unwrap();
            for threads in [1, 2, 4] {
                // (chunk start, chunk length, allocations on the worker).
                let seen = Mutex::new(Vec::new());
                let out = EvalEngine::new(threads)
                    .map_chunked(&points, |chunk, ws| {
                        let (r, allocations) = counted(|| rom.eval_batch(chunk, ws));
                        let start = (chunk.as_ptr() as usize - points.as_ptr() as usize)
                            / std::mem::size_of::<EvalPoint>();
                        seen.lock().unwrap().push((start, chunk.len(), allocations));
                        r
                    })
                    .unwrap();
                assert_eq!(out, serial, "{workload} {shape} at {threads} threads");
                let mut seen = seen.into_inner().unwrap();
                seen.sort_unstable();
                assert_eq!(
                    seen.len(),
                    threads,
                    "{workload} {shape}: one chunk per worker"
                );
                for (start, len, allocations) in seen {
                    let chunk = &points[start..start + len];
                    let mut ws = EvalWorkspace::new();
                    let (_, cold) = counted(|| rom.eval_batch(chunk, &mut ws).unwrap());
                    assert_eq!(
                        allocations, cold,
                        "{workload} {shape} at {threads} threads, chunk at {start}"
                    );
                    assert_eq!(
                        allocations,
                        len + 8,
                        "{workload} {shape}: one matrix per point, the result Vec and \
                         seven workspace buffers sized on first use"
                    );
                }
            }
            // `map` at one thread runs its only worker on this thread, so
            // the whole call is counted: as above, plus nothing.
            let (out, allocations) = counted(|| {
                EvalEngine::serial()
                    .map(&points, |pt, ws| rom.transfer_with(&pt.params, pt.s, ws))
                    .unwrap()
            });
            assert_eq!(out, serial, "{workload} {shape}: map");
            assert_eq!(allocations, points.len() + 8, "{workload} {shape}: map");
        }
    }
}

#[test]
fn rom_transient_allocates_four_plus_one_series_per_output_at_any_step_count() {
    for (workload, sys) in workloads() {
        let rom = reduce(&sys);
        let p = vec![0.05; rom.num_params()];
        let stimuli = vec![
            Stimulus::Step {
                t0: 0.0,
                amplitude: 1.0,
            };
            rom.num_inputs()
        ];
        let mut ws = EvalWorkspace::new();
        let mut run = |steps: usize| {
            let opts = TransientOptions::trapezoidal(1e-9, steps);
            rom.transient(&p, &stimuli, &opts, &mut ws).unwrap()
        };
        run(10);
        for steps in [100, 800] {
            let (out, allocations) = counted(|| run(steps));
            assert_eq!(out.time.len(), steps + 1);
            assert_eq!(
                allocations,
                4 + rom.num_outputs(),
                "{workload} at {steps} steps: the step-matrix factors and permutation, \
                 the time series, the output list and one series per output"
            );
        }
    }
}
