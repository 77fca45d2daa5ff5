//! A zero-dependency scoped worker pool for experiment fan-out and the
//! sharded engine's fork-join barriers.
//!
//! The paper's evaluation replays dozens of independent
//! (system × seed × fault-rate × load) simulation cells; each cell owns
//! its configuration and its [`crate::SimRng`] streams, so cells can run
//! on separate cores with **no change in output**. [`scoped_map_workers`]
//! is the fan-out primitive the experiment drivers use,
//! [`scoped_for_each_mut`] is the engine's per-shard barrier, and
//! [`fold_chunks_mut`] is its chunked device-table reduction. All three
//! run on one private fork-join loop, so they share its contracts:
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
//! * **Not nested:** a fan-out called from inside a pool worker (an
//!   experiment cell that trains a model, a cell that steps a sharded
//!   engine) runs inline on that worker, so a sweep never holds more
//!   than [`max_workers`] threads. Outputs do not depend on the worker
//!   count, so running inline changes nothing but the schedule.
//!
//! Workers are scoped threads, so `f` may borrow from the caller's
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

/// The worker count a fan-out over `n >= 1` items actually uses:
/// `requested` clamped to `[1, n]`, and 1 inside a pool worker.
fn effective_workers(requested: usize, n: usize) -> usize {
    if in_worker() {
        1
    } else {
        requested.clamp(1, n)
    }
}

/// Runs `body` for item `i`, relabelling a panic as
/// `"{label} {i} panicked: {message}"`.
fn labelled<R>(label: &str, i: usize, body: impl FnOnce() -> R) -> R {
    match catch_unwind(AssertUnwindSafe(body)) {
        Ok(r) => r,
        Err(payload) => panic!("{label} {i} panicked: {}", panic_message(payload.as_ref())),
    }
}

/// The one claim loop behind every public entry point: runs
/// `f(i, &mut work[i])` for every item on up to `workers` threads and
/// returns when **all** items have completed.
///
/// An atomic cursor hands each index to exactly one worker, so item
/// states (which may hold `!Sync` memos) are never shared across
/// threads; the per-slot mutexes are uncontended. A panic stops the
/// hand-out and re-panics in the caller as `"{label} {i} panicked: …"`,
/// reporting the lowest failing index when several race. One worker,
/// one item, or a call from inside a pool worker runs inline without
/// allocating; otherwise each call allocates O(items) slots and spawns
/// its threads, so callers batch meaningful work per call.
fn fork_join<W, F>(work: &mut [W], workers: usize, label: &str, f: F)
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
            labelled(label, i, || f(i, w));
        }
        return;
    }
    let slots: Vec<Mutex<&mut W>> = work.iter_mut().map(Mutex::new).collect();
    let cursor = AtomicUsize::new(0);
    let failure: Mutex<Option<(usize, String)>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let mut w = slots[i].lock().expect("work slot lock");
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| as_worker(|| f(i, &mut w))))
                {
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
        panic!("{label} {i} panicked: {msg}");
    }
}

/// Maps `f` over `items` on up to `workers` threads (drivers pass
/// [`max_workers`]; tests pin 1/2/8), returning outputs in input order.
pub fn scoped_map_workers<I, O, F>(items: Vec<I>, workers: usize, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let mut slots: Vec<(Option<I>, Option<O>)> =
        items.into_iter().map(|x| (Some(x), None)).collect();
    fork_join(
        &mut slots,
        workers,
        "scoped_map_workers: item",
        |_, (item, out)| {
            *out = item.take().map(&f);
        },
    );
    slots
        .into_iter()
        .map(|(_, out)| out.expect("every item ran"))
        .collect()
}

/// The sharded engine's epoch barrier: runs `f(i, &mut work[i])` for
/// every shard on up to `workers` threads and returns when all are
/// done. One shard or one worker runs inline without allocating, so
/// the 1-shard engine keeps its zero-allocation steady state.
pub fn scoped_for_each_mut<W, F>(work: &mut [W], workers: usize, f: F)
where
    W: Send,
    F: Fn(usize, &mut W) + Sync,
{
    fork_join(work, workers, "scoped_for_each_mut: shard", f);
}

/// Chunked reduction over a mutable table: runs `map(base, piece)` over
/// `items` cut into fixed `chunk`-sized pieces (`base` is the piece's
/// first index; the last piece may be shorter) on up to `workers`
/// threads, and hands the results to `fold` on the calling thread **in
/// piece order**. The pieces depend only on `items.len()` and `chunk`,
/// so a float fold over them groups its terms identically at every
/// worker count. One piece or one worker runs inline and allocates
/// nothing. A panic in `map` is labelled with its piece.
pub fn fold_chunks_mut<T, R, M, F>(
    items: &mut [T],
    chunk: usize,
    workers: usize,
    map: M,
    mut fold: F,
) where
    T: Send,
    R: Send,
    M: Fn(usize, &mut [T]) -> R + Sync,
    F: FnMut(R),
{
    const LABEL: &str = "fold_chunks_mut: piece";
    let pieces = items.len().div_ceil(chunk);
    if pieces <= 1 || effective_workers(workers, pieces) == 1 {
        for (k, piece) in items.chunks_mut(chunk).enumerate() {
            fold(labelled(LABEL, k, || map(k * chunk, piece)));
        }
        return;
    }
    let mut work: Vec<(&mut [T], Option<R>)> = items.chunks_mut(chunk).map(|p| (p, None)).collect();
    fork_join(&mut work, workers, LABEL, |k, (piece, out)| {
        *out = Some(map(k * chunk, piece));
    });
    for (_, out) in work {
        fold(out.expect("every piece ran"));
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
            let mut folded = 0u64;
            fold_chunks_mut(
                &mut work,
                4,
                8,
                |_, piece| {
                    record();
                    assert_eq!(std::thread::current().id(), me);
                    piece.iter().sum::<u64>()
                },
                |s| folded += s,
            );
            inner.iter().sum::<u64>() + work.iter().sum::<u64>() + folded
        });
        let expect: Vec<u64> = (0..outer_workers as u64)
            .map(|x| (0..16).map(|y| x * 100 + y).sum::<u64>() + 2 * (0..16).sum::<u64>())
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

    /// The chunked fold hands `fold` every piece's result in piece
    /// order, with bit-identical float sums, at every worker count —
    /// for an empty table, one short piece, an exact multiple of the
    /// chunk and a ragged tail.
    #[test]
    fn fold_chunks_matches_the_serial_chunk_fold_at_every_worker_count() {
        const CHUNK: usize = 4;
        for len in [0, 3, 12, 14] {
            let mut items: Vec<f64> = (0..len).map(|i| 1.0 / (i as f64 + 3.0)).collect();
            let mut want_pieces = Vec::new();
            let mut want_sum = 0.0f64;
            for (k, piece) in items.chunks(CHUNK).enumerate() {
                want_pieces.push((k * CHUNK, piece.len()));
                want_sum += piece.iter().sum::<f64>();
            }
            for workers in [1, 2, 3, 8] {
                let mut pieces = Vec::new();
                let mut sum = 0.0f64;
                fold_chunks_mut(
                    &mut items,
                    CHUNK,
                    workers,
                    |base, piece| (base, piece.len(), piece.iter().sum::<f64>()),
                    |(base, n, s)| {
                        pieces.push((base, n));
                        sum += s;
                    },
                );
                assert_eq!(pieces, want_pieces, "len={len} workers={workers}");
                assert_eq!(
                    sum.to_bits(),
                    want_sum.to_bits(),
                    "len={len} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn fold_chunks_labels_the_panicking_piece() {
        for workers in [1, 4] {
            let err = std::panic::catch_unwind(|| {
                let mut items = vec![0u32; 10];
                fold_chunks_mut(
                    &mut items,
                    3,
                    workers,
                    |base, _| {
                        if base == 6 {
                            panic!("boom");
                        }
                    },
                    |()| {},
                );
            })
            .unwrap_err();
            let msg = panic_message(err.as_ref());
            assert!(
                msg.contains("piece 2") && msg.contains("boom"),
                "workers={workers}: {msg}"
            );
        }
    }
}
