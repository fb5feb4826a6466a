//! Memory layouts and DeNovo regions.
//!
//! The paper (§3) assumes programs provide *static regions*: named groups of
//! memory locations that a synchronization acquire must self-invalidate. A
//! [`MemoryLayout`] is built once per workload: the builder allocates named,
//! line-aligned segments, assigns each to a [`Region`], and the resulting
//! layout answers "which region does this address belong to?" during
//! self-invalidation.
//!
//! Synchronization variables are allocated line-aligned and padded to a full
//! line by default, matching the paper's observation that "most software pads
//! lock variables to avoid false sharing". The padding ablation
//! (`ablation_padding`) allocates them unpadded instead.

use crate::addr::{Addr, WordAddr, LINE_BYTES, WORD_BYTES};
use std::fmt;

/// A DeNovo region identifier.
///
/// Regions are dense small integers handed out by [`LayoutBuilder::region`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Region(pub u16);

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region#{}", self.0)
    }
}

/// A named, contiguous, region-tagged range of memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Human-readable name (unique within a layout).
    pub name: String,
    /// First byte.
    pub base: Addr,
    /// Size in bytes.
    pub bytes: u64,
    /// The DeNovo region this segment belongs to.
    pub region: Region,
}

impl Segment {
    /// Whether `addr` falls inside this segment.
    pub fn contains(&self, addr: Addr) -> bool {
        addr.raw() >= self.base.raw() && addr.raw() < self.base.raw() + self.bytes
    }

    /// The `i`-th word of the segment.
    ///
    /// # Panics
    ///
    /// Panics if the word would fall outside the segment.
    pub fn word(&self, i: u64) -> Addr {
        let a = self.base.offset((i * WORD_BYTES) as i64);
        assert!(self.contains(a), "word {i} outside segment {}", self.name);
        a
    }

    /// Number of whole words in the segment.
    pub fn words(&self) -> u64 {
        self.bytes / WORD_BYTES
    }
}

/// Builder for a [`MemoryLayout`].
///
/// # Examples
///
/// ```
/// use dvs_mem::LayoutBuilder;
///
/// let mut b = LayoutBuilder::new();
/// let shared = b.region("shared");
/// let lock = b.sync_var("lock", shared, true);
/// let data = b.segment("payload", 1024, shared);
/// let layout = b.build();
/// assert_eq!(layout.region_of(lock), Some(shared));
/// assert!(layout.segment("payload").unwrap().contains(data));
/// ```
#[derive(Debug, Default)]
pub struct LayoutBuilder {
    segments: Vec<Segment>,
    region_names: Vec<String>,
    cursor: u64,
}

impl LayoutBuilder {
    /// Creates an empty builder. Allocation starts at a non-zero base so a
    /// null "pointer" (0) never aliases real memory.
    pub fn new() -> Self {
        LayoutBuilder {
            segments: Vec::new(),
            region_names: Vec::new(),
            cursor: LINE_BYTES, // keep address 0 unused (null)
        }
    }

    /// Declares a new region and returns its id.
    pub fn region(&mut self, name: &str) -> Region {
        let id = Region(u16::try_from(self.region_names.len()).expect("too many regions"));
        self.region_names.push(name.to_owned());
        id
    }

    /// Allocates a line-aligned segment of at least `bytes` bytes (rounded up
    /// to whole lines) tagged with `region`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero or a segment name repeats.
    pub fn segment(&mut self, name: &str, bytes: u64, region: Region) -> Addr {
        assert!(bytes > 0, "empty segment {name}");
        assert!(
            self.segments.iter().all(|s| s.name != name),
            "duplicate segment name {name}"
        );
        let rounded = bytes.div_ceil(LINE_BYTES) * LINE_BYTES;
        let base = Addr::new(self.cursor);
        self.cursor += rounded;
        self.segments.push(Segment {
            name: name.to_owned(),
            base,
            bytes: rounded,
            region,
        });
        base
    }

    /// Allocates a single synchronization variable. If `padded`, it occupies
    /// a full line by itself (the paper's default); otherwise it is a single
    /// word (packed with whatever is allocated next via
    /// [`LayoutBuilder::word_in`]).
    pub fn sync_var(&mut self, name: &str, region: Region, padded: bool) -> Addr {
        if padded {
            self.segment(name, LINE_BYTES, region)
        } else {
            self.word_in(name, region)
        }
    }

    /// Allocates a single unpadded word (word-aligned, possibly sharing a
    /// line with neighbouring allocations in the same region).
    pub fn word_in(&mut self, name: &str, region: Region) -> Addr {
        assert!(
            self.segments.iter().all(|s| s.name != name),
            "duplicate segment name {name}"
        );
        let base = Addr::new(self.cursor);
        self.cursor += WORD_BYTES;
        self.segments.push(Segment {
            name: name.to_owned(),
            base,
            bytes: WORD_BYTES,
            region,
        });
        base
    }

    /// Finishes the layout.
    ///
    /// # Panics
    ///
    /// Panics if [`MemoryLayout::from_parts`] rejects the segments.
    pub fn build(self) -> MemoryLayout {
        MemoryLayout::from_parts(self.segments, self.region_names).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// A finished memory layout: sorted segments plus region names.
#[derive(Debug, Clone, Default)]
pub struct MemoryLayout {
    segments: Vec<Segment>,
    region_names: Vec<String>,
}

impl MemoryLayout {
    /// Builds a layout from raw parts (a builder's, or parsed back from a
    /// trace file). Segments are sorted by base; region indices in segments
    /// must refer into `region_names`.
    ///
    /// # Errors
    ///
    /// Overlapping segments, or a segment naming an undeclared region.
    pub fn from_parts(
        mut segments: Vec<Segment>,
        region_names: Vec<String>,
    ) -> Result<Self, String> {
        segments.sort_by_key(|s| s.base.raw());
        for pair in segments.windows(2) {
            if pair[0].base.raw() + pair[0].bytes > pair[1].base.raw() {
                let (a, b) = (&pair[0].name, &pair[1].name);
                return Err(format!("overlapping segments {a} and {b}"));
            }
        }
        if let Some(s) = segments
            .iter()
            .find(|s| s.region.0 as usize >= region_names.len())
        {
            let (name, region) = (&s.name, s.region.0);
            return Err(format!("segment {name} names undeclared region {region}"));
        }
        Ok(MemoryLayout {
            segments,
            region_names,
        })
    }

    /// The region containing `addr`, if any.
    pub fn region_of(&self, addr: Addr) -> Option<Region> {
        let i = self
            .segments
            .partition_point(|s| s.base.raw() + s.bytes <= addr.raw());
        let seg = self.segments.get(i)?;
        seg.contains(addr).then_some(seg.region)
    }

    /// The region containing word `w`, if any.
    pub fn region_of_word(&self, w: WordAddr) -> Option<Region> {
        self.region_of(w.base())
    }

    /// Looks up a segment by name.
    pub fn segment(&self, name: &str) -> Option<&Segment> {
        self.segments.iter().find(|s| s.name == name)
    }

    /// All segments, sorted by base address.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of declared regions.
    pub fn regions(&self) -> usize {
        self.region_names.len()
    }

    /// Name of a region.
    pub fn region_name(&self, region: Region) -> Option<&str> {
        self.region_names.get(region.0 as usize).map(String::as_str)
    }

    /// Total allocated bytes (including padding).
    pub fn footprint(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes).sum()
    }

    /// One past the last allocated byte — the exclusive top of the layout
    /// (0 for an empty layout). Dense per-line/per-word state tables size
    /// themselves from this: every layout address falls below it.
    pub fn top(&self) -> u64 {
        // Segments are sorted by base and disjoint, so the last one ends
        // highest.
        self.segments.last().map_or(0, |s| s.base.raw() + s.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_are_line_aligned_and_disjoint() {
        let mut b = LayoutBuilder::new();
        let r = b.region("r");
        let a1 = b.segment("a", 10, r);
        let a2 = b.segment("b", 100, r);
        assert_eq!(a1.raw() % LINE_BYTES, 0);
        assert_eq!(a2.raw() % LINE_BYTES, 0);
        assert!(a2.raw() >= a1.raw() + LINE_BYTES);
        let l = b.build();
        assert_eq!(l.segment("a").unwrap().bytes, LINE_BYTES);
        assert_eq!(l.segment("b").unwrap().bytes, 2 * LINE_BYTES);
    }

    #[test]
    fn region_lookup() {
        let mut b = LayoutBuilder::new();
        let r1 = b.region("one");
        let r2 = b.region("two");
        let a = b.segment("a", 64, r1);
        let c = b.segment("c", 64, r2);
        let l = b.build();
        assert_eq!(l.region_of(a), Some(r1));
        assert_eq!(l.region_of(a.offset(63)), Some(r1));
        assert_eq!(l.region_of(c), Some(r2));
        assert_eq!(l.region_of(Addr::new(0)), None);
        assert_eq!(l.region_of(Addr::new(1 << 40)), None);
        assert_eq!(l.region_name(r2), Some("two"));
        assert_eq!(l.regions(), 2);
    }

    #[test]
    fn padded_sync_var_owns_its_line() {
        let mut b = LayoutBuilder::new();
        let r = b.region("sync");
        let lock = b.sync_var("lock", r, true);
        let next = b.segment("data", 8, r);
        assert_eq!(lock.raw() % LINE_BYTES, 0);
        assert_ne!(lock.line(), next.line());
    }

    #[test]
    fn unpadded_sync_vars_share_a_line() {
        let mut b = LayoutBuilder::new();
        let r = b.region("sync");
        let l1 = b.sync_var("lock1", r, false);
        let l2 = b.sync_var("lock2", r, false);
        assert_eq!(l1.line(), l2.line());
        assert_ne!(l1.word(), l2.word());
    }

    #[test]
    fn null_address_is_never_allocated() {
        let mut b = LayoutBuilder::new();
        let r = b.region("r");
        let a = b.segment("a", 8, r);
        assert!(a.raw() > 0);
    }

    #[test]
    #[should_panic(expected = "duplicate segment name")]
    fn duplicate_names_panic() {
        let mut b = LayoutBuilder::new();
        let r = b.region("r");
        b.segment("x", 8, r);
        b.segment("x", 8, r);
    }

    #[test]
    fn segment_word_accessor() {
        let mut b = LayoutBuilder::new();
        let r = b.region("r");
        b.segment("arr", 128, r);
        let l = b.build();
        let seg = l.segment("arr").unwrap();
        assert_eq!(seg.words(), 16);
        assert_eq!(seg.word(0), seg.base);
        assert_eq!(seg.word(15).raw(), seg.base.raw() + 15 * WORD_BYTES);
    }

    #[test]
    #[should_panic(expected = "outside segment")]
    fn segment_word_out_of_bounds() {
        let mut b = LayoutBuilder::new();
        let r = b.region("r");
        b.segment("arr", 64, r);
        let l = b.build();
        l.segment("arr").unwrap().word(8);
    }

    #[test]
    fn footprint_sums_segments() {
        let mut b = LayoutBuilder::new();
        let r = b.region("r");
        b.segment("a", 64, r);
        b.segment("b", 65, r);
        assert_eq!(b.build().footprint(), 64 + 128);
    }
}
