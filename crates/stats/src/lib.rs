//! Statistics collection and reporting for the DeNovoSync reproduction.
//!
//! The paper reports two top-level metrics, and this crate models both:
//!
//! * **Execution time**, decomposed per core into the stacked components of
//!   Figures 3–7: non-synchronization compute, kernel compute, memory stall,
//!   software backoff, hardware backoff, and barrier stall
//!   ([`TimeComponent`], [`TimeBreakdown`]).
//! * **Network traffic**, measured in flit–link crossings and decomposed by
//!   message class: load, store, writeback, invalidation (MESI only) and
//!   synchronization (DeNovo only) ([`TrafficClass`], [`TrafficStats`]).
//!
//! [`RunStats`] aggregates everything a single simulation produces, and the
//! [`report`] module renders the paper-style normalized stacked-bar tables
//! printed by the benchmark harnesses.

pub mod report;

use std::fmt;
use std::ops::{Add, AddAssign};

/// The execution-time components of the paper's Figures 3–7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TimeComponent {
    /// Dummy computation between kernel iterations ("non-synch" in Fig 3–6).
    NonSynch,
    /// Instruction execution inside the kernel, including spinning reads that
    /// hit in the cache (1 cycle per instruction).
    Compute,
    /// Cycles a thread is blocked waiting for the memory system.
    MemoryStall,
    /// Software (exponential) backoff delay cycles.
    SwBackoff,
    /// Hardware backoff stall cycles (DeNovoSync only).
    HwBackoff,
    /// Time spent waiting in the end-of-kernel barrier (load imbalance).
    BarrierStall,
}

impl TimeComponent {
    /// All components, in the paper's stacking order.
    pub const ALL: [TimeComponent; 6] = [
        TimeComponent::NonSynch,
        TimeComponent::Compute,
        TimeComponent::MemoryStall,
        TimeComponent::SwBackoff,
        TimeComponent::HwBackoff,
        TimeComponent::BarrierStall,
    ];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            TimeComponent::NonSynch => "non-synch",
            TimeComponent::Compute => "compute",
            TimeComponent::MemoryStall => "mem-stall",
            TimeComponent::SwBackoff => "sw-backoff",
            TimeComponent::HwBackoff => "hw-backoff",
            TimeComponent::BarrierStall => "barrier",
        }
    }

    fn index(self) -> usize {
        match self {
            TimeComponent::NonSynch => 0,
            TimeComponent::Compute => 1,
            TimeComponent::MemoryStall => 2,
            TimeComponent::SwBackoff => 3,
            TimeComponent::HwBackoff => 4,
            TimeComponent::BarrierStall => 5,
        }
    }
}

impl fmt::Display for TimeComponent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-core cycle counts, one bucket per [`TimeComponent`].
///
/// # Examples
///
/// ```
/// use dvs_stats::{TimeBreakdown, TimeComponent};
///
/// let mut t = TimeBreakdown::new();
/// t.add_cycles(TimeComponent::Compute, 10);
/// t.add_cycles(TimeComponent::MemoryStall, 90);
/// assert_eq!(t.total(), 100);
/// assert_eq!(t.get(TimeComponent::MemoryStall), 90);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimeBreakdown {
    buckets: [u64; 6],
}

impl TimeBreakdown {
    /// Creates an all-zero breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `cycles` to `component`.
    pub fn add_cycles(&mut self, component: TimeComponent, cycles: u64) {
        self.buckets[component.index()] += cycles;
    }

    /// Cycle count for one component.
    pub fn get(&self, component: TimeComponent) -> u64 {
        self.buckets[component.index()]
    }

    /// Sum over all components.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Iterates `(component, cycles)` pairs in stacking order.
    pub fn iter(&self) -> impl Iterator<Item = (TimeComponent, u64)> + '_ {
        TimeComponent::ALL.iter().map(move |&c| (c, self.get(c)))
    }
}

impl Add for TimeBreakdown {
    type Output = TimeBreakdown;
    fn add(mut self, rhs: TimeBreakdown) -> TimeBreakdown {
        self += rhs;
        self
    }
}

impl AddAssign for TimeBreakdown {
    fn add_assign(&mut self, rhs: TimeBreakdown) {
        for i in 0..self.buckets.len() {
            self.buckets[i] += rhs.buckets[i];
        }
    }
}

/// Network message classes for traffic accounting (Figures 3–7, parts b/d).
///
/// MESI traffic is reported as load / store / writeback / invalidation;
/// DeNovo traffic as data load / data store / writeback / synchronization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TrafficClass {
    /// Data-load requests and their data responses.
    Load,
    /// Data-store / ownership-registration requests and responses.
    Store,
    /// Writebacks and their acknowledgments.
    Writeback,
    /// Writer-initiated invalidations and their acks (MESI only).
    Invalidation,
    /// Synchronization loads, stores and RMWs (DeNovo only; MESI does not
    /// distinguish synchronization traffic, per the paper's footnote 3).
    Sync,
}

impl TrafficClass {
    /// All classes, in reporting order (Inv, WB, SYNCH, ST, LD as stacked in
    /// the paper's traffic figures).
    pub const ALL: [TrafficClass; 5] = [
        TrafficClass::Invalidation,
        TrafficClass::Writeback,
        TrafficClass::Sync,
        TrafficClass::Store,
        TrafficClass::Load,
    ];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            TrafficClass::Load => "LD",
            TrafficClass::Store => "ST",
            TrafficClass::Writeback => "WB",
            TrafficClass::Invalidation => "Inv",
            TrafficClass::Sync => "SYNCH",
        }
    }

    /// The class's flit counter in a metrics tree: `flits_` and the
    /// lowercase label.
    pub fn flits_metric(self) -> &'static str {
        match self {
            TrafficClass::Load => "flits_ld",
            TrafficClass::Store => "flits_st",
            TrafficClass::Writeback => "flits_wb",
            TrafficClass::Invalidation => "flits_inv",
            TrafficClass::Sync => "flits_synch",
        }
    }

    fn index(self) -> usize {
        match self {
            TrafficClass::Invalidation => 0,
            TrafficClass::Writeback => 1,
            TrafficClass::Sync => 2,
            TrafficClass::Store => 3,
            TrafficClass::Load => 4,
        }
    }
}

impl fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Flit–link crossing counts per [`TrafficClass`].
///
/// One unit is one flit traversing one network link, the paper's traffic
/// metric ("a flit going over one network link constitutes one unit of
/// network traffic").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    flit_crossings: [u64; 5],
    messages: u64,
}

impl TrafficStats {
    /// Creates an all-zero traffic record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one message of `class` that produced `crossings` flit–link
    /// crossings.
    pub fn record(&mut self, class: TrafficClass, crossings: u64) {
        self.flit_crossings[class.index()] += crossings;
        self.messages += 1;
    }

    /// Crossings for one class.
    pub fn get(&self, class: TrafficClass) -> u64 {
        self.flit_crossings[class.index()]
    }

    /// Total crossings over all classes.
    pub fn total(&self) -> u64 {
        self.flit_crossings.iter().sum()
    }

    /// Total messages sent.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Iterates `(class, crossings)` in reporting order.
    pub fn iter(&self) -> impl Iterator<Item = (TrafficClass, u64)> + '_ {
        TrafficClass::ALL.iter().map(move |&c| (c, self.get(c)))
    }
}

impl AddAssign for TrafficStats {
    fn add_assign(&mut self, rhs: TrafficStats) {
        for i in 0..self.flit_crossings.len() {
            self.flit_crossings[i] += rhs.flit_crossings[i];
        }
        self.messages += rhs.messages;
    }
}

/// Cache access outcome counters, split by access kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Data-load hits / misses.
    pub data_read_hits: u64,
    /// Data-load misses.
    pub data_read_misses: u64,
    /// Data-store hits (word/line already owned).
    pub data_write_hits: u64,
    /// Data-store misses (ownership had to be acquired).
    pub data_write_misses: u64,
    /// Synchronization-read hits.
    pub sync_read_hits: u64,
    /// Synchronization-read misses (for DeNovo: registration required).
    pub sync_read_misses: u64,
    /// Synchronization write / RMW hits.
    pub sync_write_hits: u64,
    /// Synchronization write / RMW misses.
    pub sync_write_misses: u64,
}

impl CacheStats {
    /// Creates an all-zero record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total hits.
    pub fn hits(&self) -> u64 {
        self.data_read_hits + self.data_write_hits + self.sync_read_hits + self.sync_write_hits
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.data_read_misses
            + self.data_write_misses
            + self.sync_read_misses
            + self.sync_write_misses
    }
}

impl AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: CacheStats) {
        self.data_read_hits += rhs.data_read_hits;
        self.data_read_misses += rhs.data_read_misses;
        self.data_write_hits += rhs.data_write_hits;
        self.data_write_misses += rhs.data_write_misses;
        self.sync_read_hits += rhs.sync_read_hits;
        self.sync_read_misses += rhs.sync_read_misses;
        self.sync_write_hits += rhs.sync_write_hits;
        self.sync_write_misses += rhs.sync_write_misses;
    }
}

/// Everything one simulation run produces.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Total simulated cycles (max over cores of completion time).
    pub cycles: u64,
    /// Per-core execution-time breakdowns.
    pub per_core: Vec<TimeBreakdown>,
    /// Aggregate network traffic.
    pub traffic: TrafficStats,
    /// Aggregate L1 cache statistics.
    pub cache: CacheStats,
    /// Number of simulation events processed (simulator health metric).
    pub events: u64,
}

impl RunStats {
    /// Creates an empty record for `cores` cores.
    pub fn new(cores: usize) -> Self {
        RunStats {
            cycles: 0,
            per_core: vec![TimeBreakdown::new(); cores],
            traffic: TrafficStats::new(),
            cache: CacheStats::new(),
            events: 0,
        }
    }

    /// Sum of all cores' breakdowns (the stacked bar of Figures 3–7 before
    /// normalization).
    pub fn breakdown(&self) -> TimeBreakdown {
        self.per_core
            .iter()
            .fold(TimeBreakdown::new(), |acc, b| acc + *b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_metric_names_are_the_lowercase_labels() {
        for class in TrafficClass::ALL {
            let want = format!("flits_{}", class.label().to_ascii_lowercase());
            assert_eq!(class.flits_metric(), want);
        }
    }

    #[test]
    fn breakdown_accumulates() {
        let mut t = TimeBreakdown::new();
        t.add_cycles(TimeComponent::Compute, 5);
        t.add_cycles(TimeComponent::Compute, 5);
        t.add_cycles(TimeComponent::HwBackoff, 3);
        assert_eq!(t.get(TimeComponent::Compute), 10);
        assert_eq!(t.total(), 13);
    }

    #[test]
    fn breakdown_add() {
        let mut a = TimeBreakdown::new();
        a.add_cycles(TimeComponent::NonSynch, 1);
        let mut b = TimeBreakdown::new();
        b.add_cycles(TimeComponent::NonSynch, 2);
        b.add_cycles(TimeComponent::BarrierStall, 4);
        let c = a + b;
        assert_eq!(c.get(TimeComponent::NonSynch), 3);
        assert_eq!(c.get(TimeComponent::BarrierStall), 4);
    }

    #[test]
    fn breakdown_iter_order_matches_all() {
        let t = TimeBreakdown::new();
        let comps: Vec<TimeComponent> = t.iter().map(|(c, _)| c).collect();
        assert_eq!(comps, TimeComponent::ALL.to_vec());
    }

    #[test]
    fn traffic_accumulates_by_class() {
        let mut t = TrafficStats::new();
        t.record(TrafficClass::Load, 36);
        t.record(TrafficClass::Load, 4);
        t.record(TrafficClass::Invalidation, 8);
        assert_eq!(t.get(TrafficClass::Load), 40);
        assert_eq!(t.get(TrafficClass::Invalidation), 8);
        assert_eq!(t.total(), 48);
        assert_eq!(t.messages(), 3);
    }

    #[test]
    fn traffic_add_assign() {
        let mut a = TrafficStats::new();
        a.record(TrafficClass::Sync, 10);
        let mut b = TrafficStats::new();
        b.record(TrafficClass::Sync, 5);
        b.record(TrafficClass::Writeback, 2);
        a += b;
        assert_eq!(a.get(TrafficClass::Sync), 15);
        assert_eq!(a.get(TrafficClass::Writeback), 2);
        assert_eq!(a.messages(), 3);
    }

    #[test]
    fn cache_stats_totals() {
        let mut c = CacheStats::new();
        c.data_read_hits = 3;
        c.sync_read_misses = 2;
        c.sync_write_hits = 1;
        assert_eq!(c.hits(), 4);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn run_stats_breakdown_sums_cores() {
        let mut r = RunStats::new(2);
        r.per_core[0].add_cycles(TimeComponent::Compute, 7);
        r.per_core[1].add_cycles(TimeComponent::Compute, 3);
        r.per_core[1].add_cycles(TimeComponent::MemoryStall, 5);
        let b = r.breakdown();
        assert_eq!(b.get(TimeComponent::Compute), 10);
        assert_eq!(b.get(TimeComponent::MemoryStall), 5);
    }

    #[test]
    fn labels_are_unique_and_nonempty() {
        let mut labels: Vec<&str> = TimeComponent::ALL.iter().map(|c| c.label()).collect();
        labels.extend(TrafficClass::ALL.iter().map(|c| c.label()));
        assert!(labels.iter().all(|l| !l.is_empty()));
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), labels.len());
    }
}
