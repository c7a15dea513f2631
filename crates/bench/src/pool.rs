//! The worker pool: the one place the harness fans work out across host
//! threads.
//!
//! The suite, the nginx sweep and the server scenario all send their
//! tasks through [`run`], sized by `RunConfig::threads`. Nothing they
//! call spawns threads of its own, so the number of threads sharing the
//! cores is exactly the pool's width and per-phase timings do not depend
//! on nesting.

use pythia_core::PythiaError;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The pool's width for `items` tasks: `threads` clamped to
/// `1..=items` (one idle worker for an empty input).
fn width(threads: usize, items: usize) -> usize {
    threads.clamp(1, items.max(1))
}

/// Run `task` over `items` on `threads` workers (clamped to
/// `1..=items.len()`) and return every outcome **in input order**.
/// Tasks that are deterministic give the same vector for every worker
/// count.
///
/// Workers claim the next index from a shared counter. `Relaxed` is
/// sound there: the counter is a pure index dispenser and publishes no
/// data, and atomic RMWs on one variable have a total modification order,
/// so each index is claimed exactly once. The results reach the caller
/// through the scoped-thread joins.
///
/// Each task runs under [`PythiaError::catch_panic`], so a panicking task
/// yields an `Internal` error in its own slot instead of poisoning the
/// pool: the other tasks keep draining the queue and land in their usual
/// positions.
pub fn run<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    task: impl Fn(&T) -> Result<R, PythiaError> + Sync,
) -> Vec<Result<R, PythiaError>> {
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<R, PythiaError>>> = items.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..width(threads, items.len()))
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            break done;
                        };
                        done.push((i, PythiaError::catch_panic(|| task(item))));
                    }
                })
            })
            .collect();
        for w in workers {
            for (i, outcome) in w.join().unwrap_or_default() {
                slots[i] = Some(outcome);
            }
        }
    });
    slots
        .into_iter()
        // A slot stays empty only if its worker died outside `catch_panic`.
        .map(|o| o.unwrap_or_else(|| Err(PythiaError::internal("pool worker dropped the task"))))
        .collect()
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
    fn more_threads_than_items_is_clamped() {
        assert_eq!(width(16, 2), 2, "two workers, not sixteen");
        assert_eq!(width(16, 0), 1, "empty input: one idle worker");
        assert_eq!(width(0, 5), 1, "at least one worker");
        assert_eq!(width(3, 5), 3);
        assert!(run(&[] as &[u8], 16, |&i| Ok(i)).is_empty());
        let out: Vec<u8> = run(&[1u8, 2], 16, |&i| Ok(i))
            .into_iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!(out, [1, 2]);
    }
}
