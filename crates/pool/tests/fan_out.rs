//! Fan-out properties that hold however many workers the process has
//! (the ones that need exactly one are in `one_helper.rs`).

mod common;

use common::within_ten_seconds;
use concord_pool::map;
use std::collections::HashSet;
use std::sync::{Barrier, Mutex};

#[test]
fn nested_map_completes_without_free_workers() {
    // Both outer indices fan out again, so the inner calls compete for
    // helpers the outer call may already hold: rule 1 must finish them.
    within_ten_seconds(|| {
        for _ in 0..50 {
            let out = map(2, 2, |outer| map(2, 8, |inner| outer * 8 + inner));
            assert_eq!(out, vec![(0..8).collect::<Vec<_>>(), (8..16).collect::<Vec<_>>()]);
        }
    });
}

#[test]
fn a_call_never_exceeds_its_thread_count() {
    within_ten_seconds(|| {
        // Grow the pool to seven workers: eight indices that all wait for
        // each other need eight threads inside the closure at once.
        let barrier = Barrier::new(8);
        map(8, 8, |_| {
            barrier.wait();
        });
        for _ in 0..20 {
            let seen = Mutex::new(HashSet::new());
            map(2, 64, |_| {
                seen.lock().unwrap().insert(std::thread::current().id());
                std::thread::yield_now();
            });
            assert!(seen.lock().unwrap().len() <= 2, "one ticket, so one helper");
        }
    });
}
