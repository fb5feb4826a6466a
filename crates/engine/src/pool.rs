//! The deterministic worker pool every batch engine shares.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `job(0..n)` on `workers` self-scheduling threads (clamped to at
/// least 1 and at most `n`) and returns the results in index order.
///
/// Workers claim indices from a shared atomic cursor and write each result
/// into that index's slot, so the returned vector is independent of worker
/// count and OS scheduling. The campaign runner, the differential fuzzer's
/// batches, the job service and the model checker's swarm all run on it.
/// The job itself must not unwind — callers wanting fault isolation wrap
/// their job body in `catch_unwind` and return the panic as a value.
pub fn parallel_indexed<T, F>(n: usize, workers: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.max(1).min(n.max(1));
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                if index >= n {
                    break;
                }
                let result = job(index);
                *slots[index].lock().expect("slot lock") = Some(result);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("every slot is filled before the scope ends")
        })
        .collect()
}
