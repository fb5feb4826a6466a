//! Per-core stall accounting.
//!
//! The event loop knows exactly when a core stops retiring (a miss goes
//! outstanding, a spin parks in the watch, a backoff penalty starts, a
//! fence drains) and when it resumes; the start cycle lives in the core's
//! stalled status. The system's observer hands each finished stall's
//! duration to this tracker, which keeps always-on per-core
//! [`Log2Histogram`]s of stall durations by [`StallClass`], exported into a
//! [`MetricsRegistry`] after the run.
//!
//! The tracker is pure accounting: it lives outside every architectural
//! `Hash`, emits nothing, and costs two array updates per *stall* (not per
//! cycle), which is noise next to the event-loop work that accompanies any
//! stall.

use dvs_telemetry::{Log2Histogram, MetricsRegistry, StallClass};

/// Stall duration histograms and counts for every core of a system.
#[derive(Debug, Clone)]
pub struct StallTracker {
    /// `[core][StallClass::index()]` duration histograms.
    durations: Vec<[Log2Histogram; 4]>,
    counts: Vec<[u64; 4]>,
}

impl StallTracker {
    /// An empty tracker for `cores` cores.
    pub fn new(cores: usize) -> Self {
        StallTracker {
            durations: vec![
                [
                    Log2Histogram::new(),
                    Log2Histogram::new(),
                    Log2Histogram::new(),
                    Log2Histogram::new(),
                ];
                cores
            ],
            counts: vec![[0; 4]; cores],
        }
    }

    /// Records one finished stall of `class` on `core` lasting `cycles`.
    pub fn record(&mut self, core: usize, class: StallClass, cycles: u64) {
        self.durations[core][class.index()].record(cycles);
        self.counts[core][class.index()] += 1;
    }

    /// How many stalls of `class` core `core` has completed.
    pub fn count(&self, core: usize, class: StallClass) -> u64 {
        self.counts[core][class.index()]
    }

    /// Exports core `core`'s stall counts and duration histograms into
    /// `reg` under `<node>/core/stall_*` paths.
    pub fn export_core(&self, core: usize, node: &str, reg: &mut MetricsRegistry) {
        let (hists, counts) = (&self.durations[core], &self.counts[core]);
        for class in StallClass::ALL {
            let i = class.index();
            if counts[i] == 0 {
                continue;
            }
            let (count, cycles) = class.metric_names();
            reg.add(node, "core", count, counts[i]);
            reg.merge_histogram(node, "core", cycles, &hists[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_counts_and_durations() {
        let mut t = StallTracker::new(2);
        t.record(0, StallClass::Memory, 40);
        t.record(1, StallClass::Backoff, 8);
        t.record(1, StallClass::Backoff, 0);
        assert_eq!(t.count(0, StallClass::Memory), 1);
        assert_eq!(t.count(0, StallClass::Spin), 0);
        assert_eq!(t.count(1, StallClass::Backoff), 2);

        let mut reg = MetricsRegistry::new();
        t.export_core(0, "core0", &mut reg);
        t.export_core(1, "core1", &mut reg);
        assert_eq!(reg.counter("core0", "core", "stall_memory_count"), 1);
        assert_eq!(reg.counter("core1", "core", "stall_backoff_count"), 2);
        assert_eq!(
            reg.histogram("core1", "core", "stall_backoff_cycles")
                .expect("histogram")
                .sum(),
            8
        );
    }
}
