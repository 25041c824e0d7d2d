//! Shared by the fan-out test binaries.

/// Run `test` on its own thread and fail if it has not finished after ten
/// seconds: a wedged fan-out must fail the suite, not hang it.
pub fn within_ten_seconds(test: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let runner = std::thread::spawn(move || {
        test();
        done_tx.send(()).unwrap();
    });
    done_rx.recv_timeout(std::time::Duration::from_secs(10)).expect("fan-out wedged");
    runner.join().unwrap();
}
