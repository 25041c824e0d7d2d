//! Fan-out properties that need to know how many workers the process has.
//! This binary only ever calls `map(2, …)`, so the pool holds exactly one
//! helper for both tests — which is why they are not unit tests, where
//! other tests grow the pool to seven.

mod common;

use common::within_ten_seconds;
use std::collections::HashSet;
use std::sync::{Barrier, Mutex};
use std::thread::ThreadId;

/// Two indices that wait for each other: returns only if two distinct
/// threads were inside the closure at the same time.
fn needs_two_threads() {
    let barrier = Barrier::new(2);
    let ids = concord_pool::map(2, 2, |_| {
        barrier.wait();
        std::thread::current().id()
    });
    assert_ne!(ids[0], ids[1]);
}

#[test]
fn a_panicking_index_reraises_and_the_worker_survives() {
    within_ten_seconds(|| {
        // Both indices meet at the barrier first, so the helper is inside
        // the closure when index 1 panics — whichever thread claimed it.
        let barrier = Barrier::new(2);
        let raised = std::panic::catch_unwind(|| {
            concord_pool::map(2, 2, |i| {
                barrier.wait();
                assert!(i != 1, "boom at {i}");
                i
            })
        });
        let payload = raised.expect_err("the panic reaches the caller");
        assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("boom at 1"));
        // The only helper this process has must still be there.
        needs_two_threads();
        needs_two_threads();
    });
}

#[test]
fn concurrent_callers_share_the_helper() {
    within_ten_seconds(|| {
        let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        let start = Barrier::new(2);
        let callers: HashSet<ThreadId> = std::thread::scope(|scope| {
            let call = || {
                start.wait();
                for round in 0..20usize {
                    let out = concord_pool::map(2, 64, |i| {
                        seen.lock().unwrap().insert(std::thread::current().id());
                        std::thread::yield_now();
                        i * 3 + round
                    });
                    assert_eq!(out, (0..64).map(|i| i * 3 + round).collect::<Vec<_>>());
                }
                std::thread::current().id()
            };
            let (a, b) = (scope.spawn(call), scope.spawn(call));
            [a.join().unwrap(), b.join().unwrap()].into()
        });
        let seen = seen.into_inner().unwrap();
        assert!(callers.is_subset(&seen), "every caller claims indices itself");
        assert!(seen.len() <= 3, "two callers and one shared helper, not {}", seen.len());
    });
}
