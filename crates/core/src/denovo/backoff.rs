//! The DeNovoSync hardware backoff unit (paper §4.2).
//!
//! One unit per core. Two levels of adaptivity:
//!
//! * The **backoff counter** delays synchronization read misses to words in
//!   Valid state. It grows by the current increment on every incoming
//!   remote synchronization-read registration request (the contention
//!   symptom), wraps to zero on overflow, and resets on a synchronization
//!   read/RMW *hit* (low-contention signal).
//! * The **increment counter** grows by the default increment on every
//!   N-th incoming remote synchronization-read registration request
//!   (N = core count in the paper) and resets to the default on a release.
//!
//! Every core has a unit; only DeNovoSync's L1 table bumps the counter and
//! consults it, so under DeNovoSync0 and GCS it stays at zero.

use crate::config::BackoffConfig;
use dvs_engine::Cycle;

/// Per-core adaptive backoff state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BackoffUnit {
    cfg: BackoffConfig,
    counter: u64,
    increment: u64,
    remote_seen: u64,
}

impl BackoffUnit {
    /// Creates a unit with a zero counter and the default increment.
    pub fn new(cfg: BackoffConfig) -> Self {
        BackoffUnit {
            cfg,
            counter: 0,
            increment: cfg.default_increment,
            remote_seen: 0,
        }
    }

    /// Current delay applied to a synchronization read of a Valid-state
    /// word, in cycles.
    pub fn current(&self) -> Cycle {
        self.counter
    }

    /// The current increment value (visible for tests/ablation reporting).
    pub fn increment(&self) -> u64 {
        self.increment
    }

    /// A remote synchronization-read registration request arrived for a word
    /// this core had registered: bump the counter (and, every N-th request,
    /// the increment).
    pub fn on_remote_sync_read(&mut self) {
        self.remote_seen += 1;
        if self.remote_seen.is_multiple_of(self.cfg.increment_period) {
            self.increment += self.cfg.default_increment;
        }
        // Wrap on overflow, per the paper.
        self.counter = (self.counter + self.increment) & self.cfg.counter_max();
    }

    /// A synchronization read or RMW hit in Registered state: no one
    /// intervened, so contention is low — reset the backoff counter.
    pub fn on_sync_hit(&mut self) {
        self.counter = 0;
    }

    /// A release (synchronization write) completed: the synchronization
    /// construct finished; reset the increment to the default.
    pub fn on_release(&mut self) {
        self.increment = self.cfg.default_increment;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> BackoffUnit {
        BackoffUnit::new(BackoffConfig::cores16())
    }

    #[test]
    fn counter_grows_with_remote_requests() {
        let mut u = unit();
        assert_eq!(u.current(), 0);
        u.on_remote_sync_read();
        assert_eq!(u.current(), 1); // default increment 1 at 16 cores
        u.on_remote_sync_read();
        assert_eq!(u.current(), 2);
    }

    #[test]
    fn increment_adapts_every_period() {
        let mut u = unit();
        // 15 requests at increment 1, the 16th bumps the increment to 2
        // before being applied.
        for _ in 0..15 {
            u.on_remote_sync_read();
        }
        assert_eq!(u.current(), 15);
        assert_eq!(u.increment(), 1);
        u.on_remote_sync_read();
        assert_eq!(u.increment(), 2);
        assert_eq!(u.current(), 17);
    }

    #[test]
    fn hit_resets_counter_but_not_increment() {
        let mut u = unit();
        for _ in 0..20 {
            u.on_remote_sync_read();
        }
        let inc = u.increment();
        assert!(inc > 1);
        u.on_sync_hit();
        assert_eq!(u.current(), 0);
        assert_eq!(u.increment(), inc);
    }

    #[test]
    fn release_resets_increment_but_not_counter() {
        let mut u = unit();
        for _ in 0..20 {
            u.on_remote_sync_read();
        }
        let count = u.current();
        u.on_release();
        assert_eq!(u.increment(), 1);
        assert_eq!(u.current(), count);
    }

    #[test]
    fn counter_wraps_at_width() {
        let mut u = BackoffUnit::new(BackoffConfig {
            counter_bits: 4, // max 15
            default_increment: 6,
            increment_period: 1000,
        });
        u.on_remote_sync_read(); // 6
        u.on_remote_sync_read(); // 12
        u.on_remote_sync_read(); // 18 & 15 = 2
        assert_eq!(u.current(), 2);
    }

    #[test]
    fn paper_64_core_defaults() {
        let mut u = BackoffUnit::new(BackoffConfig::cores64());
        u.on_remote_sync_read();
        assert_eq!(u.current(), 64);
    }
}
