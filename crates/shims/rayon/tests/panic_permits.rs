//! A worker panic must not cost the pool its threads: the permits a
//! terminal operation claimed go back even when a worker unwinds, so a
//! long-running process that catches a panic (the daemon isolates solver
//! panics per request) keeps running its later fan-outs in parallel.
//!
//! This file is its own test binary because every test in one binary
//! shares the process-wide permit counter.

use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

#[test]
fn permits_return_after_a_caught_worker_panic() {
    if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        return;
    }
    let caught = std::panic::catch_unwind(|| {
        (0..4usize)
            .into_par_iter()
            .map(|i| {
                assert!(i != 3, "injected panic on the last item");
                i
            })
            .collect::<Vec<_>>()
    });
    assert!(caught.is_err(), "the worker panic must reach the caller");
    // Two items that each wait up to 500 ms for the other to start: both
    // see the other only if they run at once.
    let arrived = AtomicUsize::new(0);
    let met: Vec<bool> = (0..2usize)
        .into_par_iter()
        .map(|_| {
            arrived.fetch_add(1, Ordering::SeqCst);
            let t0 = Instant::now();
            while arrived.load(Ordering::SeqCst) < 2 {
                if t0.elapsed() > Duration::from_millis(500) {
                    return false;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            true
        })
        .collect();
    assert_eq!(
        met,
        vec![true, true],
        "after a caught panic the pool lost its threads"
    );
}
