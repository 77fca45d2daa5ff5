//! A zero-dependency scoped worker pool for experiment fan-out.
//!
//! The paper's evaluation replays dozens of independent
//! (system × seed × fault-rate × load) simulation cells; each cell owns
//! its configuration and its [`crate::SimRng`] streams, so cells can run
//! on separate cores with **no change in output**. [`scoped_map`] is the
//! fan-out primitive the experiment drivers use:
//!
//! * **Order-preserving:** output `i` is `f(items[i])` regardless of
//!   which worker ran it or when it finished, so parallel results are
//!   bit-for-bit identical to a serial `items.into_iter().map(f)`.
//! * **Panic-propagating:** if `f` panics on an item, the pool joins all
//!   workers and re-panics in the caller with the *failing item's
//!   index* and the original message.
//! * **Bounded:** workers default to [`std::thread::available_parallelism`],
//!   overridable with the `MUDI_THREADS` environment variable
//!   (`MUDI_THREADS=1` forces serial execution in the calling thread).
//!
//! * **Not nested:** a fan-out called from inside a pool worker (an
//!   experiment cell that trains a model, a cell that steps a sharded
//!   engine) runs inline on that worker, so a sweep never holds more
//!   than [`max_workers`] threads. Outputs do not depend on the worker
//!   count, so running inline changes nothing but the schedule.
//!
//! Built on [`std::thread::scope`], so `f` may borrow from the caller's
//! stack and no `'static` bounds are required.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The worker cap: `MUDI_THREADS` if set to a positive integer,
/// otherwise [`std::thread::available_parallelism`] (1 if unknown).
pub fn max_workers() -> usize {
    if let Some(n) = crate::env::parse::<usize>("MUDI_THREADS").filter(|&n| n >= 1) {
        return n;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

thread_local! {
    /// Set for the lifetime of a pool worker thread.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is a pool worker. A fan-out requested
/// from a worker runs inline (see the module docs).
fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Runs one item on a pool worker thread, marking the thread as a
/// worker first. Pool threads are spawned per call and exit when the
/// work runs out, so the flag is never cleared.
fn as_worker<R>(body: impl FnOnce() -> R) -> R {
    IN_WORKER.with(|w| w.set(true));
    body()
}

/// The worker count a fan-out over `n` items actually uses: `requested`
/// clamped to `[1, n]`, and 1 inside a pool worker.
fn effective_workers(requested: usize, n: usize) -> usize {
    if in_worker() {
        1
    } else {
        requested.clamp(1, n)
    }
}

/// Maps `f` over `items` on up to [`max_workers`] worker threads,
/// returning outputs in input order. See the module docs for the
/// determinism and panic contracts.
pub fn scoped_map<I, O, F>(items: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    scoped_map_workers(items, max_workers(), f)
}

/// [`scoped_map`] with an explicit worker count (tests pin 1/2/8 here
/// without touching the process environment). `workers` is clamped to
/// `[1, items.len()]`; `workers == 1`, or a call from inside a pool
/// worker, runs in the calling thread.
pub fn scoped_map_workers<I, O, F>(items: Vec<I>, workers: usize, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = effective_workers(workers, n);
    if workers == 1 {
        // Serial fast path: same panic labelling, no thread machinery.
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| run_labelled(&f, i, item))
            .collect();
    }

    // Work distribution: an atomic cursor hands each index to exactly
    // one worker; item `i` is taken from slot `i` and its output lands
    // in slot `i`, so ordering is positional, never temporal. The
    // per-slot mutexes are uncontended (each is touched by one worker).
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let out: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let failure: Mutex<Option<(usize, String)>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("item slot lock")
                    .take()
                    .expect("each index is claimed exactly once");
                match catch_unwind(AssertUnwindSafe(|| as_worker(|| f(item)))) {
                    Ok(o) => *out[i].lock().expect("output slot lock") = Some(o),
                    Err(payload) => {
                        let msg = panic_message(payload.as_ref());
                        let mut slot = failure.lock().expect("failure slot lock");
                        // Keep the lowest-index failure so the caller
                        // sees a stable report when several race.
                        if slot.as_ref().is_none_or(|&(j, _)| i < j) {
                            *slot = Some((i, msg));
                        }
                        // Stop handing out further work.
                        cursor.store(n, Ordering::Relaxed);
                        break;
                    }
                }
            });
        }
    });

    if let Some((i, msg)) = failure.into_inner().expect("failure slot") {
        panic!("scoped_map: item {i} panicked: {msg}");
    }
    out.into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("output slot")
                .expect("every index ran to completion")
        })
        .collect()
}

/// Fork-join barrier over mutable per-shard work: runs
/// `f(i, &mut work[i])` for every item on up to `workers` threads and
/// returns only when **all** items have completed — the epoch-barrier
/// primitive of the sharded engine.
///
/// * **Disjoint by construction:** each `&mut work[i]` is handed to
///   exactly one worker, so shard states (which may hold `!Sync`
///   interior-mutability memos) are never shared across threads.
/// * **Serial fast path:** `workers <= 1`, a single item, or a call
///   from inside a pool worker runs in the calling thread with no
///   thread machinery and no allocation — the 1-shard engine keeps its
///   zero-allocation steady state.
/// * **Panic-propagating:** a panicking shard joins all workers and
///   re-panics in the caller labelled with the shard index.
///
/// The multi-worker path allocates O(items) claim slots and spawns
/// `workers` threads **per call**; callers amortize this by choosing
/// epoch windows long enough to batch meaningful work per barrier.
pub fn scoped_for_each_mut<W, F>(work: &mut [W], workers: usize, f: F)
where
    W: Send,
    F: Fn(usize, &mut W) + Sync,
{
    let n = work.len();
    if n == 0 {
        return;
    }
    let workers = effective_workers(workers, n);
    if workers == 1 {
        for (i, w) in work.iter_mut().enumerate() {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i, w))) {
                panic!(
                    "scoped_for_each_mut: shard {i} panicked: {}",
                    panic_message(payload.as_ref())
                );
            }
        }
        return;
    }

    // Same claim discipline as `scoped_map_workers`: an atomic cursor
    // hands each index to exactly one worker, and the per-slot mutex
    // transfers the `&mut` borrow without contention.
    let slots: Vec<Mutex<Option<&mut W>>> = work.iter_mut().map(|w| Mutex::new(Some(w))).collect();
    let cursor = AtomicUsize::new(0);
    let failure: Mutex<Option<(usize, String)>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let w = slots[i]
                    .lock()
                    .expect("work slot lock")
                    .take()
                    .expect("each shard is claimed exactly once");
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| as_worker(|| f(i, w)))) {
                    let msg = panic_message(payload.as_ref());
                    let mut slot = failure.lock().expect("failure slot lock");
                    if slot.as_ref().is_none_or(|&(j, _)| i < j) {
                        *slot = Some((i, msg));
                    }
                    cursor.store(n, Ordering::Relaxed);
                    break;
                }
            });
        }
    });

    if let Some((i, msg)) = failure.into_inner().expect("failure slot") {
        panic!("scoped_for_each_mut: shard {i} panicked: {msg}");
    }
}

/// Runs one item serially, relabelling a panic with the item index to
/// match the threaded path's contract.
fn run_labelled<I, O, F>(f: &F, i: usize, item: I) -> O
where
    F: Fn(I) -> O,
{
    match catch_unwind(AssertUnwindSafe(|| f(item))) {
        Ok(o) => o,
        Err(payload) => {
            panic!(
                "scoped_map: item {i} panicked: {}",
                panic_message(payload.as_ref())
            )
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = scoped_map_workers(items.clone(), 8, |x| x * x);
        assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = scoped_map_workers(Vec::<u32>::new(), 4, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_items() {
        let out = scoped_map_workers(vec![1u32, 2, 3], 64, |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn borrows_from_caller_stack() {
        let base = 10u64;
        let out = scoped_map_workers((0..5u64).collect(), 2, |x| x + base);
        assert_eq!(out, vec![10, 11, 12, 13, 14]);
    }

    #[test]
    fn matches_serial_map_for_every_worker_count() {
        let items: Vec<u64> = (0..17).collect();
        let expect: Vec<u64> = items.iter().map(|x| x.wrapping_mul(0x9e37) ^ 7).collect();
        for workers in [1, 2, 3, 8, 32] {
            let got = scoped_map_workers(items.clone(), workers, |x| x.wrapping_mul(0x9e37) ^ 7);
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn max_workers_is_at_least_one() {
        assert!(max_workers() >= 1);
    }

    #[test]
    fn for_each_mut_applies_every_shard_at_every_worker_count() {
        for workers in [1, 2, 3, 8] {
            let mut work: Vec<u64> = (0..7).collect();
            scoped_for_each_mut(&mut work, workers, |i, w| {
                *w = w.wrapping_mul(3) + i as u64;
            });
            let expect: Vec<u64> = (0..7u64).map(|i| i.wrapping_mul(3) + i).collect();
            assert_eq!(work, expect, "workers={workers}");
        }
    }

    #[test]
    fn for_each_mut_is_a_barrier() {
        // Every shard's effect is visible when the call returns.
        let mut work = vec![0u64; 32];
        scoped_for_each_mut(&mut work, 8, |i, w| *w = i as u64 + 1);
        assert!(work.iter().enumerate().all(|(i, &w)| w == i as u64 + 1));
    }

    #[test]
    fn for_each_mut_labels_the_panicking_shard() {
        for workers in [1, 4] {
            let err = std::panic::catch_unwind(|| {
                let mut work = vec![0u32; 6];
                scoped_for_each_mut(&mut work, workers, |i, _| {
                    if i == 3 {
                        panic!("boom");
                    }
                });
            })
            .unwrap_err();
            let msg = panic_message(err.as_ref());
            assert!(
                msg.contains("shard 3") && msg.contains("boom"),
                "workers={workers}: {msg}"
            );
        }
    }

    /// A fan-out called from a worker runs inline on that worker. The
    /// barrier holds every outer item until all `outer` workers are
    /// alive at once, so each outer item owns a distinct thread while
    /// its nested calls (which request 8 workers each) run; the thread
    /// count stays at the outer pool's, which is `max_workers()`
    /// wherever that allows a pool at all.
    #[test]
    fn nested_fan_out_stays_on_the_outer_workers() {
        use std::collections::HashSet;
        use std::sync::Barrier;
        let outer_workers = max_workers().max(2);
        let barrier = Barrier::new(outer_workers);
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        let record = || {
            seen.lock().unwrap().insert(std::thread::current().id());
        };
        let outer = scoped_map_workers((0..outer_workers as u64).collect(), outer_workers, |x| {
            barrier.wait();
            assert!(in_worker());
            let me = std::thread::current().id();
            let inner = scoped_map_workers((0..16u64).collect(), 8, |y| {
                record();
                assert_eq!(std::thread::current().id(), me);
                x * 100 + y
            });
            let mut work = vec![0u64; 16];
            scoped_for_each_mut(&mut work, 8, |i, w| {
                record();
                assert_eq!(std::thread::current().id(), me);
                *w = i as u64;
            });
            inner.iter().sum::<u64>() + work.iter().sum::<u64>()
        });
        let expect: Vec<u64> = (0..outer_workers as u64)
            .map(|x| (0..16).map(|y| x * 100 + y).sum::<u64>() + (0..16).sum::<u64>())
            .collect();
        assert_eq!(outer, expect);
        let threads = seen.into_inner().unwrap().len();
        assert_eq!(threads, outer_workers, "nested calls spawned extra threads");
        assert!(!in_worker(), "the caller is not a worker");
    }

    #[test]
    fn for_each_mut_empty_work_is_a_no_op() {
        let mut work: Vec<u32> = Vec::new();
        scoped_for_each_mut(&mut work, 4, |_, _| unreachable!());
    }
}
