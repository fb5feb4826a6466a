//! Set-associative cache geometry.

use crate::addr::{LineAddr, LINE_BYTES};

/// Geometry of a set-associative cache with 64-byte lines.
///
/// # Examples
///
/// ```
/// use dvs_mem::{CacheGeometry, LineAddr};
///
/// let l1 = CacheGeometry::new(32 * 1024, 4); // the paper's 32KB 4-way L1
/// assert_eq!(l1.sets(), 128);
/// assert_eq!(l1.lines(), 512);
/// let line = LineAddr::new(0x1234);
/// assert!(l1.set_index(line) < l1.sets());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    size_bytes: u64,
    assoc: usize,
    sets: usize,
}

impl CacheGeometry {
    /// Creates a geometry for a cache of `size_bytes` with `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics if the parameters do not describe a power-of-two number of
    /// sets, or if `assoc` is zero.
    pub fn new(size_bytes: u64, assoc: usize) -> Self {
        assert!(assoc > 0, "associativity must be positive");
        let lines = size_bytes / LINE_BYTES;
        assert!(
            lines > 0 && lines.is_multiple_of(assoc as u64),
            "cache of {size_bytes} bytes cannot be {assoc}-way"
        );
        let sets = (lines / assoc as u64) as usize;
        assert!(
            sets.is_power_of_two(),
            "set count {sets} not a power of two"
        );
        CacheGeometry {
            size_bytes,
            assoc,
            sets,
        }
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Number of ways per set.
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Total number of lines.
    pub fn lines(&self) -> usize {
        self.sets * self.assoc
    }

    /// The set a line maps to: the line number modulo the set count, taken
    /// with a mask (`new` guarantees a power of two).
    pub fn set_index(&self, line: LineAddr) -> usize {
        (line.raw() & (self.sets as u64 - 1)) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_geometry_matches_paper() {
        let g = CacheGeometry::new(32 * 1024, 4);
        assert_eq!(g.sets(), 128);
        assert_eq!(g.lines(), 512);
        assert_eq!(g.size_bytes(), 32 * 1024);
        assert_eq!(g.assoc(), 4);
    }

    #[test]
    fn consecutive_lines_spread_over_sets() {
        let g = CacheGeometry::new(8 * 1024, 2);
        let s0 = g.set_index(LineAddr::new(0));
        let s1 = g.set_index(LineAddr::new(1));
        assert_ne!(s0, s1);
        assert_eq!(g.set_index(LineAddr::new(g.sets() as u64)), s0);
        // The mask is the modulo, down to a single-set cache.
        for (bytes, assoc) in [(32 * 1024, 4), (8 * 1024, 2), (1024, 2), (256, 4), (64, 1)] {
            let g = CacheGeometry::new(bytes, assoc);
            let sets = g.sets() as u64;
            for raw in [
                0,
                1,
                sets - 1,
                sets,
                sets + 1,
                0x1234,
                0xdead_beef_1234,
                1 << 40,
            ] {
                let line = LineAddr::new(raw);
                assert_eq!(g.set_index(line) as u64, raw % sets, "{bytes}B {assoc}-way");
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        CacheGeometry::new(3 * 64, 1);
    }

    #[test]
    #[should_panic(expected = "associativity")]
    fn zero_assoc_rejected() {
        CacheGeometry::new(1024, 0);
    }
}
