//! The worker pool: the one place the harness fans work out across host
//! threads.
//!
//! The suite, the nginx sweep and the server scenario all send their
//! tasks through [`run_streamed`] (or its collecting wrapper [`run`]),
//! sized by `RunConfig::threads`. Nothing they call spawns threads of its
//! own, so the number of threads sharing the cores is exactly the pool's
//! width and per-phase timings do not depend on nesting.

use pythia_core::PythiaError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Peak number of completed-but-unconsumed outcomes the pool ever
/// buffered — the quantity its backpressure bounds.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamStats {
    /// Peak reorder-buffer occupancy (≤ the claim window).
    pub peak_buffered: usize,
    /// The claim window: at most this many tasks may be past their claim
    /// but not yet consumed, bounding live outcomes to `window + 1`.
    pub window: usize,
}

/// Run `task` over `items` on `threads` workers (clamped to
/// `1..=items.len()`), delivering each outcome to `sink` **in input
/// order** the moment it is available. Memory scales with the worker
/// window, not with the number of items. Tasks that are deterministic
/// give the sink the same sequence for every worker count.
///
/// Backpressure comes from two bounds: a `sync_channel` sized to the
/// worker count, and a claim window (2× workers) that stops a worker
/// from starting item `i` until item `i - window` has been consumed by
/// the sink. Together they cap completed-but-unconsumed outcomes at
/// `window` however lopsided the task durations are.
///
/// Ordering audit (the claim counter): `fetch_add(Relaxed)` is sound
/// here because the counter is a pure index dispenser — no data is
/// published through it. Atomic RMWs on one variable have a total
/// modification order even under `Relaxed`, so each index is claimed
/// exactly once; the happens-before edge for the *results* is the
/// channel send/recv pair, and the window gate's mutex orders the
/// consumed counter.
///
/// Each task runs under [`PythiaError::catch_panic`], so a panicking task
/// yields an `Internal` error in its own slot instead of poisoning the
/// pool: the other tasks keep draining the queue and land in their usual
/// positions.
pub fn run_streamed<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    task: impl Fn(&T) -> Result<R, PythiaError> + Sync,
    mut sink: impl FnMut(Result<R, PythiaError>),
) -> StreamStats {
    let threads = threads.clamp(1, items.len().max(1));
    let window = threads * 2;
    let next = AtomicUsize::new(0);
    // Consumed-prefix gate: workers wait here until the sink catches up.
    let gate: (Mutex<usize>, Condvar) = (Mutex::new(0), Condvar::new());
    let (tx, rx) = std::sync::mpsc::sync_channel::<(usize, Result<R, PythiaError>)>(threads);
    let mut peak_buffered = 0usize;
    std::thread::scope(|s| {
        for _ in 0..threads {
            let tx = tx.clone();
            let (next, gate, task) = (&next, &gate, &task);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                {
                    let (consumed, cv) = gate;
                    let mut done = consumed.lock().unwrap();
                    while i >= *done + window {
                        done = cv.wait(done).unwrap();
                    }
                }
                let outcome = PythiaError::catch_panic(|| task(&items[i]));
                if tx.send((i, outcome)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // Consume in input order; out-of-order completions wait in a
        // reorder buffer bounded by the claim window.
        let mut pending: HashMap<usize, Result<R, PythiaError>> = HashMap::new();
        for j in 0..items.len() {
            let outcome = loop {
                if let Some(o) = pending.remove(&j) {
                    break o;
                }
                match rx.recv() {
                    Ok((i, o)) if i == j => break o,
                    Ok((i, o)) => {
                        pending.insert(i, o);
                        peak_buffered = peak_buffered.max(pending.len());
                    }
                    // Workers are gone and item j never arrived: a worker
                    // died outside `catch_panic`.
                    Err(_) => break Err(PythiaError::internal("pool worker dropped the task")),
                }
            };
            sink(outcome);
            let (consumed, cv) = &gate;
            *consumed.lock().unwrap() += 1;
            cv.notify_all();
        }
    });
    StreamStats {
        peak_buffered,
        window,
    }
}

/// Collecting wrapper over [`run_streamed`]: every outcome, in input
/// order.
pub fn run<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    task: impl Fn(&T) -> Result<R, PythiaError> + Sync,
) -> Vec<Result<R, PythiaError>> {
    let mut out = Vec::with_capacity(items.len());
    run_streamed(items, threads, task, |o| out.push(o));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn results_come_back_in_input_order_when_tasks_finish_out_of_order() {
        // Early items sleep longest, so completion order is reversed.
        let items: Vec<u64> = (0..8).collect();
        let out = run(&items, 4, |&i| {
            std::thread::sleep(Duration::from_millis(2 * (8 - i)));
            Ok(i * 10)
        });
        let got: Vec<u64> = out.into_iter().map(Result::unwrap).collect();
        assert_eq!(got, (0..8).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_task_is_one_internal_entry_in_its_own_slot() {
        let items: Vec<u32> = (0..6).collect();
        let ran = AtomicUsize::new(0);
        let out = run(&items, 3, |&i| {
            ran.fetch_add(1, Ordering::Relaxed);
            if i == 2 {
                panic!("task {i} exploded");
            }
            Ok(i)
        });
        assert_eq!(ran.load(Ordering::Relaxed), items.len(), "every task ran");
        let ok: Vec<Option<u32>> = out.iter().map(|o| o.as_ref().ok().copied()).collect();
        assert_eq!(ok, [Some(0), Some(1), None, Some(3), Some(4), Some(5)]);
        let e = out[2].as_ref().unwrap_err();
        assert!(
            e.is_internal() && e.to_string().contains("task 2 exploded"),
            "{e}"
        );
    }

    #[test]
    fn reorder_buffer_stays_within_the_window() {
        // The first item finishes only after every other item its window
        // admits (1..=5), so those pile up in the reorder buffer while
        // the window stops the workers from claiming more.
        let items: Vec<u64> = (0..40).collect();
        let finished = AtomicUsize::new(0);
        let mut seen = Vec::new();
        let stats = run_streamed(
            &items,
            3,
            |&i| {
                if i == 0 {
                    while finished.load(Ordering::SeqCst) < 5 {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    std::thread::sleep(Duration::from_millis(20));
                } else {
                    finished.fetch_add(1, Ordering::SeqCst);
                }
                Ok(i)
            },
            |o| seen.push(o.unwrap()),
        );
        assert_eq!(seen, items);
        assert_eq!(stats.window, 6);
        assert!(stats.peak_buffered > 0, "the slow head must buffer others");
        assert!(
            stats.peak_buffered <= stats.window,
            "peak {} > window {}",
            stats.peak_buffered,
            stats.window
        );
    }

    #[test]
    fn more_threads_than_items_is_clamped() {
        let items = [1u8, 2];
        let stats = run_streamed(&items, 16, |&i| Ok(i), |_| {});
        assert_eq!(stats.window, 4, "two workers, not sixteen");
        let stats = run_streamed(&[] as &[u8], 16, |&i| Ok(i), |_| {});
        assert_eq!(stats.window, 2, "empty input: one idle worker");
    }
}
