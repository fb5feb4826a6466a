//! Property test for the shared worker pool: results come back in index
//! order whatever the worker count.

use dvs_engine::{parallel_indexed, DetRng};

/// `parallel_indexed` must return results in index order for any worker
/// count — including workers > jobs and the empty batch.
#[test]
fn parallel_indexed_is_worker_count_independent() {
    let job = |i: usize| {
        // Uneven, deterministic per-index work so fast workers overtake
        // slow ones and slots are written out of order.
        let mut rng = DetRng::new(i as u64);
        let spin = rng.below(2000);
        let mut acc = i as u64;
        for _ in 0..spin {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        (i, acc)
    };
    let baseline: Vec<(usize, u64)> = (0..37).map(job).collect();
    for workers in [1, 2, 3, 8, 64] {
        let got = parallel_indexed(37, workers, job);
        assert_eq!(got, baseline, "workers={workers}");
    }
    assert!(parallel_indexed(0, 4, job).is_empty());
}
