//! Property tests for the scoped worker pool (`simcore::pool`), via the
//! in-tree proptest shim: `scoped_map_workers` must behave exactly like a
//! serial `map` for every (item count × worker count) shape — items >
//! workers, workers > items, and empty input all included — and a
//! panicking item must surface its index to the caller.

use proptest::prelude::*;
use simcore::pool::{max_workers, scoped_map_workers};

proptest! {
    /// Output preserves input order and length for arbitrary shapes.
    #[test]
    fn preserves_order_and_length(n in 0usize..48, workers in 1usize..12) {
        // Items are position-dependent values, so any reordering or
        // loss would change the output.
        let items: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9e37_79b9) ^ 0xA5).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x.rotate_left(7) ^ 0x5A).collect();
        let got = scoped_map_workers(items, workers, |x| x.rotate_left(7) ^ 0x5A);
        prop_assert_eq!(got.len(), n);
        prop_assert_eq!(got, expect);
    }

    /// Worker count never changes the result, only the schedule —
    /// compare two arbitrary worker counts against each other.
    #[test]
    fn worker_count_is_invisible(n in 1usize..32, w1 in 1usize..10, w2 in 1usize..10) {
        let items: Vec<u64> = (0..n as u64).collect();
        let a = scoped_map_workers(items.clone(), w1, |x| x * x + 1);
        let b = scoped_map_workers(items, w2, |x| x * x + 1);
        prop_assert_eq!(a, b);
    }
}

#[test]
fn empty_input_is_fine_at_any_worker_count() {
    for workers in [1, 2, 7, 64] {
        let out: Vec<u8> = scoped_map_workers(Vec::new(), workers, |x: u8| x);
        assert!(out.is_empty(), "workers={workers}");
    }
}

#[test]
fn panicking_item_surfaces_its_index() {
    // Silence the default per-thread panic backtrace while the worker
    // panics are intentional; restore the hook afterwards.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = std::panic::catch_unwind(|| {
        scoped_map_workers((0u32..8).collect(), 3, |x| {
            if x == 5 {
                panic!("injected failure on cell {x}");
            }
            x
        })
    });
    let serial_outcome = std::panic::catch_unwind(|| {
        scoped_map_workers((0u32..8).collect(), 1, |x| {
            if x == 5 {
                panic!("injected failure on cell {x}");
            }
            x
        })
    });
    std::panic::set_hook(hook);

    for (label, res) in [("threaded", outcome), ("serial", serial_outcome)] {
        let payload = res.expect_err(label);
        let msg = payload
            .downcast_ref::<String>()
            .unwrap_or_else(|| panic!("{label}: string payload expected"));
        assert!(msg.contains("item 5"), "{label}: index missing in {msg:?}");
        assert!(
            msg.contains("injected failure on cell 5"),
            "{label}: original message missing in {msg:?}"
        );
    }
}

#[test]
fn max_workers_is_positive() {
    assert!(max_workers() >= 1);
}
