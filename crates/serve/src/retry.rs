//! Retry with exponential backoff and deterministic jitter.
//!
//! Cells that fail *transiently* — a panic somewhere in the stack, or a
//! cycle-limit trip that a bigger host scheduling slice might avoid — are
//! retried up to a budget, with a delay that doubles per attempt and is
//! jittered per `(cell, attempt)` so a batch of failing cells does not
//! retry in lockstep. The jitter is seeded FNV, not wall-clock randomness:
//! the same cell retries on the same schedule every run, which keeps the
//! service's behavior reproducible under test.

use dvs_engine::{fnv1a, FNV_OFFSET};
use std::time::Duration;

/// The retry budget and backoff shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per cell (1 = no retries).
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Backoff cap.
    pub max_delay: Duration,
    /// Seed folded into the per-(cell, attempt) jitter.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_secs(2),
            jitter_seed: 0x5e4e,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// The delay before retry number `attempt` (1-based: the delay taken
    /// after the `attempt`-th failure) of the cell keyed `cell_key`:
    /// exponential from [`RetryPolicy::base_delay`], capped at
    /// [`RetryPolicy::max_delay`], scaled into `[50%, 100%]` by a
    /// deterministic per-(cell, attempt) jitter.
    pub fn delay(&self, attempt: u32, cell_key: u64) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(20))
            .min(self.max_delay);
        let mut h = FNV_OFFSET;
        for byte in self
            .jitter_seed
            .to_le_bytes()
            .into_iter()
            .chain(cell_key.to_le_bytes())
            .chain(attempt.to_le_bytes())
        {
            h = fnv1a(h, byte);
        }
        // Map the hash into [512, 1024]/1024 — half to full of the
        // exponential step.
        let scale = 512 + (h % 513) as u32;
        exp * scale / 1024
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_exponentially_until_the_cap() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(160),
            jitter_seed: 1,
        };
        let d: Vec<Duration> = (1..=8).map(|a| p.delay(a, 42)).collect();
        for (i, d) in d.iter().enumerate() {
            let step = Duration::from_millis(10)
                .saturating_mul(1 << i)
                .min(Duration::from_millis(160));
            assert!(*d >= step / 2 && *d <= step, "attempt {}: {d:?}", i + 1);
        }
        // Capped: late attempts never exceed max_delay.
        assert!(p.delay(30, 42) <= Duration::from_millis(160));
    }

    #[test]
    fn jitter_is_deterministic_and_varies_by_cell() {
        let p = RetryPolicy::default();
        assert_eq!(p.delay(2, 7), p.delay(2, 7), "same inputs, same delay");
        let distinct: std::collections::BTreeSet<Duration> =
            (0..32).map(|cell| p.delay(2, cell)).collect();
        assert!(
            distinct.len() > 8,
            "jitter must spread cells apart: {distinct:?}"
        );
    }

    #[test]
    fn none_policy_allows_a_single_attempt() {
        assert_eq!(RetryPolicy::none().max_attempts, 1);
    }
}
