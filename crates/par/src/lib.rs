//! A hermetic parallel compute runtime for the GraphAug workspace.
//!
//! Every hot kernel in the reproduction (dense matmul, CSR SpMM and their
//! backward passes) fans work out through this crate. It is built on
//! `std::thread` only — no external dependencies — and is designed around a
//! **determinism contract**:
//!
//! 1. Work is split into **fixed chunks** whose boundaries depend only on
//!    the problem size ([`fixed_chunks`]), never on the thread count.
//! 2. Each chunk owns a **disjoint** slice of the output, so no atomics or
//!    locks touch the data path.
//! 3. Reductions (kernels that must combine across chunks) merge per-chunk
//!    partials **in ascending chunk order**.
//!
//! Under this contract the floating-point result of every kernel is
//! bit-identical for any `GRAPHAUG_THREADS` value — the thread count only
//! decides which worker executes a chunk, never what a chunk computes. The
//! seeded experiment pipeline therefore produces byte-for-byte identical
//! artifacts on a laptop and a 16-core server.
//!
//! # Pool model
//!
//! A process-wide pool of persistent workers is spawned lazily on the first
//! parallel call and parked on a condvar between jobs. The submitting thread
//! participates in chunk execution (so `GRAPHAUG_THREADS=2` means one worker
//! plus the caller), claims are handed out through an atomic cursor, and the
//! caller blocks until every chunk has finished — which is what makes the
//! lifetime-erased borrow of the job closure sound.
//!
//! # Configuration
//!
//! * `GRAPHAUG_THREADS` — thread budget (default: `available_parallelism`,
//!   clamped to [`MAX_THREADS`]). Read once at first use.
//! * [`set_thread_count`] — runtime override, used by the determinism suite
//!   to compare thread counts within one process.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

pub mod simd;

pub use simd::{
    dot8, dot8_i8, l2sq8, score_rows_f32, score_rows_i8, set_simd_enabled, simd_available,
    simd_enabled, F32x8,
};

/// Hard cap on the worker budget (also the maximum chunk fan-out produced by
/// [`fixed_chunks`], so more threads than this could never be fed anyway).
pub const MAX_THREADS: usize = 16;

/// Minimum rows/items per chunk: below this the per-chunk dispatch overhead
/// outweighs any parallel win, so small problems stay single-chunk (and thus
/// run inline on the calling thread).
const MIN_CHUNK: usize = 64;

static TARGET: AtomicUsize = AtomicUsize::new(0); // 0 = not yet initialized

fn init_target() -> usize {
    let n = std::env::var("GRAPHAUG_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    n.clamp(1, MAX_THREADS)
}

/// The current thread budget (`GRAPHAUG_THREADS`, clamped to
/// `1..=MAX_THREADS`). Purely a performance knob: results never depend on it.
pub fn thread_count() -> usize {
    match TARGET.load(Ordering::Relaxed) {
        0 => {
            let n = init_target();
            TARGET.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// Overrides the thread budget at runtime (clamped to `1..=MAX_THREADS`).
/// The determinism test suite uses this to compare thread counts in-process.
pub fn set_thread_count(n: usize) {
    TARGET.store(n.clamp(1, MAX_THREADS), Ordering::Relaxed);
}

/// Splits `n` items into chunks whose size depends **only on `n`** — never
/// on the thread count — returning `(chunk_len, n_chunks)`. This is the
/// fixed chunking behind the determinism contract (module docs): kernels
/// that merge per-chunk partials stay bit-stable because the partial
/// boundaries cannot move when the pool grows or shrinks.
pub fn fixed_chunks(n: usize) -> (usize, usize) {
    if n == 0 {
        return (1, 0);
    }
    let chunk = n.div_ceil(MAX_THREADS).max(MIN_CHUNK);
    (chunk, n.div_ceil(chunk))
}

// ---------------------------------------------------------------------------
// Pool internals
// ---------------------------------------------------------------------------

/// One in-flight parallel job: a lifetime-erased closure plus claim/finish
/// cursors. Safety: the pointee outlives the job because [`run`] does not
/// return until `done == n_chunks`, and workers never dereference `task`
/// except while executing a successfully claimed chunk.
struct Job {
    task: *const (dyn Fn(usize) + Sync),
    n_chunks: usize,
    next: AtomicUsize,
    done: AtomicUsize,
    panicked: AtomicBool,
}

unsafe impl Send for Job {}
unsafe impl Sync for Job {}

struct PoolState {
    job: Option<Arc<Job>>,
    epoch: u64,
    workers: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    work_cv: Condvar,
    done_cv: Condvar,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            job: None,
            epoch: 0,
            workers: 0,
        }),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
    })
}

fn worker_loop(pool: &'static Pool) {
    let mut my_epoch = 0u64;
    loop {
        let job = {
            let mut st = pool.state.lock().expect("pool lock");
            loop {
                if st.epoch != my_epoch {
                    my_epoch = st.epoch;
                    if let Some(j) = st.job.clone() {
                        break j;
                    }
                }
                st = pool.work_cv.wait(st).expect("pool wait");
            }
        };
        execute_chunks(pool, &job);
    }
}

/// Claims and runs chunks until the cursor is exhausted. Shared by workers
/// and the submitting thread.
fn execute_chunks(pool: &Pool, job: &Job) {
    loop {
        let i = job.next.fetch_add(1, Ordering::Relaxed);
        if i >= job.n_chunks {
            return;
        }
        // Safety: `task` is alive — see the invariant on `Job`.
        let task = unsafe { &*job.task };
        if catch_unwind(AssertUnwindSafe(|| task(i))).is_err() {
            job.panicked.store(true, Ordering::Relaxed);
        }
        let finished = job.done.fetch_add(1, Ordering::Release) + 1;
        if finished == job.n_chunks {
            // Take the lock so a submitter between its check and its wait
            // cannot miss the wakeup.
            let _guard = pool.state.lock().expect("pool lock");
            pool.done_cv.notify_all();
        }
    }
}

fn ensure_workers(pool: &'static Pool, st: &mut PoolState, wanted: usize) {
    while st.workers < wanted.min(MAX_THREADS - 1) {
        std::thread::Builder::new()
            .name(format!("graphaug-par-{}", st.workers))
            .spawn(move || worker_loop(pool))
            .expect("spawn pool worker");
        st.workers += 1;
    }
}

/// Executes `f(0), f(1), …, f(n_chunks - 1)` exactly once each, possibly in
/// parallel. Blocks until every chunk has completed; panics (after all
/// chunks finish) if any chunk panicked.
///
/// Chunk *assignment* to threads is nondeterministic; callers get
/// deterministic results by making every chunk own disjoint output (see the
/// module-level contract).
pub fn run(n_chunks: usize, f: impl Fn(usize) + Sync) {
    if n_chunks == 0 {
        return;
    }
    let threads = thread_count().min(n_chunks);
    if threads <= 1 {
        // Serial path: identical chunk set, ascending order.
        for i in 0..n_chunks {
            f(i);
        }
        return;
    }

    let pool = pool();
    // Erase the closure's lifetime; sound because this function blocks until
    // `done == n_chunks` and no worker touches `task` afterwards.
    let task: *const (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(&f)
    };
    let job = Arc::new(Job {
        task,
        n_chunks,
        next: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        panicked: AtomicBool::new(false),
    });
    {
        let mut st = pool.state.lock().expect("pool lock");
        ensure_workers(pool, &mut st, threads - 1);
        st.epoch += 1;
        st.job = Some(Arc::clone(&job));
        pool.work_cv.notify_all();
    }
    execute_chunks(pool, &job);
    {
        let mut st = pool.state.lock().expect("pool lock");
        while job.done.load(Ordering::Acquire) < n_chunks {
            st = pool.done_cv.wait(st).expect("pool wait");
        }
        st.job = None;
    }
    if job.panicked.load(Ordering::Relaxed) {
        panic!("graphaug-par: a parallel chunk panicked");
    }
}

// ---------------------------------------------------------------------------
// Disjoint-output helpers
// ---------------------------------------------------------------------------

/// A `Send + Sync` raw-pointer wrapper for handing disjoint sub-slices of one
/// `&mut [T]` to concurrent chunks. The kernel crates use this for outputs
/// whose chunk boundaries are irregular (e.g. CSR value ranges).
#[derive(Clone, Copy)]
pub struct SendMutPtr<T>(*mut T);

unsafe impl<T: Send> Send for SendMutPtr<T> {}
unsafe impl<T: Send> Sync for SendMutPtr<T> {}

impl<T> SendMutPtr<T> {
    /// Captures the base pointer of `data`.
    pub fn new(data: &mut [T]) -> Self {
        SendMutPtr(data.as_mut_ptr())
    }

    /// Reborrows `data[start..start + len]`.
    ///
    /// # Safety
    /// The range must be in bounds of the original slice and must not
    /// overlap any range concurrently handed to another chunk.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [T] {
        std::slice::from_raw_parts_mut(self.0.add(start), len)
    }
}

/// Runs `f(chunk_idx, item_range)` over the [`fixed_chunks`] partition of
/// `0..n`. The ranges tile `0..n` in order and never overlap.
pub fn parallel_spans(n: usize, f: impl Fn(usize, Range<usize>) + Sync) {
    let (chunk, k) = fixed_chunks(n);
    run(k, |i| {
        let start = i * chunk;
        f(i, start..(start + chunk).min(n));
    });
}

/// Splits a row-major `out` buffer of `width`-wide rows into fixed row
/// chunks and runs `f(first_row, rows_slice)` on each with exclusive access.
pub fn parallel_rows<T: Send>(out: &mut [T], width: usize, f: impl Fn(usize, &mut [T]) + Sync) {
    assert!(width > 0, "parallel_rows requires a positive row width");
    assert_eq!(out.len() % width, 0, "output is not a whole number of rows");
    let rows = out.len() / width;
    let base = SendMutPtr::new(out);
    parallel_spans(rows, |_, r| {
        // Safety: spans tile `0..rows` disjointly, so the row ranges (and
        // hence the element ranges) handed out never overlap.
        let slice = unsafe { base.slice_mut(r.start * width, (r.end - r.start) * width) };
        f(r.start, slice);
    });
}

/// Splits `data` into caller-sized chunks (`chunk_len` elements, last chunk
/// short) and runs `f(chunk_idx, chunk_slice)` on each with exclusive
/// access. `chunk_len` must not depend on the thread count if the caller
/// needs deterministic cross-chunk reductions.
pub fn parallel_chunks<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(
        chunk_len > 0,
        "parallel_chunks requires a positive chunk_len"
    );
    let n = data.len();
    let k = n.div_ceil(chunk_len);
    let base = SendMutPtr::new(data);
    run(k, |i| {
        let start = i * chunk_len;
        let len = chunk_len.min(n - start);
        // Safety: chunk index ranges tile `0..n` disjointly.
        let slice = unsafe { base.slice_mut(start, len) };
        f(i, slice);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn fixed_chunks_are_thread_count_independent() {
        for n in [0usize, 1, 63, 64, 65, 1000, 100_000] {
            let a = fixed_chunks(n);
            set_thread_count(1);
            let b = fixed_chunks(n);
            set_thread_count(4);
            let c = fixed_chunks(n);
            assert_eq!(a, b);
            assert_eq!(a, c);
            let (chunk, k) = a;
            assert!(k <= MAX_THREADS);
            if n > 0 {
                assert!(chunk * k >= n && chunk * (k.saturating_sub(1)) < n);
            }
        }
    }

    #[test]
    fn run_executes_every_chunk_exactly_once() {
        for threads in [1usize, 2, 4] {
            set_thread_count(threads);
            let counts: Vec<AtomicU32> = (0..37).map(|_| AtomicU32::new(0)).collect();
            run(counts.len(), |i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn parallel_rows_partitions_disjointly() {
        set_thread_count(4);
        let mut out = vec![0u32; 300 * 3];
        parallel_rows(&mut out, 3, |row0, rows| {
            for (i, chunk) in rows.chunks_exact_mut(3).enumerate() {
                for v in chunk.iter_mut() {
                    *v += (row0 + i) as u32;
                }
            }
        });
        for (r, chunk) in out.chunks_exact(3).enumerate() {
            assert!(chunk.iter().all(|&v| v == r as u32), "row {r}");
        }
    }

    #[test]
    fn parallel_chunks_honors_explicit_chunk_len() {
        set_thread_count(4);
        let mut data = vec![0usize; 130];
        parallel_chunks(&mut data, 32, |ci, chunk| {
            for v in chunk.iter_mut() {
                *v = ci + 1;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i / 32 + 1);
        }
    }

    #[test]
    fn parallel_spans_tile_the_range_in_order() {
        set_thread_count(2);
        let seen = Mutex::new(Vec::new());
        parallel_spans(1000, |ci, r| {
            seen.lock().unwrap().push((ci, r));
        });
        let mut spans = seen.into_inner().unwrap();
        spans.sort_by_key(|(ci, _)| *ci);
        let mut cursor = 0usize;
        for (_, r) in &spans {
            assert_eq!(r.start, cursor);
            cursor = r.end;
        }
        assert_eq!(cursor, 1000);
    }

    #[test]
    fn chunk_panic_propagates_after_all_chunks_finish() {
        set_thread_count(4);
        let finished = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run(8, |i| {
                if i == 3 {
                    panic!("boom");
                }
                finished.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err());
        assert_eq!(finished.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn serial_and_parallel_runs_agree() {
        let compute = |threads: usize| {
            set_thread_count(threads);
            let mut out = vec![0f32; 500];
            parallel_rows(&mut out, 1, |row0, rows| {
                for (i, v) in rows.iter_mut().enumerate() {
                    let x = (row0 + i) as f32;
                    *v = (x * 0.37).sin() + x.sqrt();
                }
            });
            out
        };
        let a = compute(1);
        let b = compute(4);
        assert_eq!(a, b);
    }
}
