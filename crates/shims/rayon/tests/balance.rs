//! Load balance under uneven item costs: workers pull items one at a time,
//! so two expensive items at the front of the input run on different
//! threads instead of queueing behind each other in one worker's share.
//!
//! This file is its own test binary because every test in one binary
//! shares the process-wide permit counter.

use rayon::prelude::*;
use std::time::Duration;

#[test]
fn expensive_leading_items_run_on_different_threads() {
    if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        return;
    }
    let ran_on: Vec<std::thread::ThreadId> = (0..4usize)
        .into_par_iter()
        .map(|i| {
            let ms = if i < 2 { 100 } else { 1 };
            std::thread::sleep(Duration::from_millis(ms));
            std::thread::current().id()
        })
        .collect();
    assert_ne!(
        ran_on[0], ran_on[1],
        "both 100 ms items ran on one thread: {ran_on:?}"
    );
}
