//! Address types.
//!
//! The simulated machine has a 64-bit byte-addressed physical address space.
//! Cache lines are 64 bytes (Table 1); the architectural word — DeNovo's
//! coherence granularity — is 8 bytes, so a line holds eight words. All
//! memory operations in the VM are word-aligned word accesses (the kernels
//! operate on pointers and counters, which are naturally word-sized).

use std::fmt;

/// Bytes per cache line (paper Table 1: 64-byte lines).
pub const LINE_BYTES: u64 = 64;
/// Bytes per architectural word (DeNovo's coherence granularity).
pub const WORD_BYTES: u64 = 8;
/// Words per cache line.
pub const WORDS_PER_LINE: usize = (LINE_BYTES / WORD_BYTES) as usize;

/// A byte address.
///
/// # Examples
///
/// ```
/// use dvs_mem::{Addr, LINE_BYTES};
///
/// let a = Addr::new(0x1048);
/// assert_eq!(a.line().base().raw(), 0x1040);
/// assert_eq!(a.word().index_in_line(), 1);
/// assert_eq!(a.offset_in_line(), 0x8);
/// # let _ = LINE_BYTES;
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Addr(u64);

impl Addr {
    /// Wraps a raw byte address.
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// The raw byte address.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The line containing this address.
    pub const fn line(self) -> LineAddr {
        LineAddr(self.0 / LINE_BYTES)
    }

    /// The word containing this address.
    pub const fn word(self) -> WordAddr {
        WordAddr(self.0 / WORD_BYTES)
    }

    /// Byte offset within the containing line.
    pub const fn offset_in_line(self) -> u64 {
        self.0 % LINE_BYTES
    }

    /// Whether the address is word-aligned.
    pub const fn is_word_aligned(self) -> bool {
        self.0.is_multiple_of(WORD_BYTES)
    }

    /// Address displaced by `bytes` (may be negative).
    pub fn offset(self, bytes: i64) -> Addr {
        Addr(self.0.wrapping_add(bytes as u64))
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

/// A word-granularity address (byte address divided by [`WORD_BYTES`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct WordAddr(u64);

impl WordAddr {
    /// Wraps a raw word index.
    pub const fn new(index: u64) -> Self {
        WordAddr(index)
    }

    /// The raw word index.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The first byte of this word.
    pub const fn base(self) -> Addr {
        Addr(self.0 * WORD_BYTES)
    }

    /// The line containing this word.
    pub const fn line(self) -> LineAddr {
        LineAddr(self.0 / WORDS_PER_LINE as u64)
    }

    /// This word's position within its line, `0..WORDS_PER_LINE`.
    pub const fn index_in_line(self) -> usize {
        (self.0 % WORDS_PER_LINE as u64) as usize
    }
}

impl fmt::Display for WordAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{:#x}", self.0 * WORD_BYTES)
    }
}

/// A line-granularity address (byte address divided by [`LINE_BYTES`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Wraps a raw line index.
    pub const fn new(index: u64) -> Self {
        LineAddr(index)
    }

    /// The raw line index.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The first byte of this line.
    pub const fn base(self) -> Addr {
        Addr(self.0 * LINE_BYTES)
    }

    /// The `i`-th word of this line.
    ///
    /// # Panics
    ///
    /// Panics if `i >= WORDS_PER_LINE`.
    pub fn word(self, i: usize) -> WordAddr {
        assert!(i < WORDS_PER_LINE, "word index {i} out of line");
        WordAddr(self.0 * WORDS_PER_LINE as u64 + i as u64)
    }

    /// Iterates the words of this line.
    pub fn words(self) -> impl Iterator<Item = WordAddr> {
        (0..WORDS_PER_LINE).map(move |i| self.word(i))
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{:#x}", self.0 * LINE_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_and_word_of_byte_address() {
        let a = Addr::new(0x1000 + 63);
        assert_eq!(a.line(), LineAddr::new(0x1000 / 64));
        assert_eq!(a.word().index_in_line(), 7);
        assert!(!Addr::new(3).is_word_aligned());
        assert!(Addr::new(16).is_word_aligned());
    }

    #[test]
    fn word_line_roundtrip() {
        for raw in [0u64, 7, 8, 63, 64, 1000, u32::MAX as u64] {
            let w = WordAddr::new(raw);
            let l = w.line();
            let idx = w.index_in_line();
            assert_eq!(l.word(idx), w);
            assert_eq!(w.base().word(), w);
        }
    }

    #[test]
    fn line_words_enumerates_all() {
        let l = LineAddr::new(5);
        let words: Vec<WordAddr> = l.words().collect();
        assert_eq!(words.len(), WORDS_PER_LINE);
        assert!(words.iter().all(|w| w.line() == l));
        assert_eq!(words[0].base().raw(), 5 * LINE_BYTES);
    }

    #[test]
    fn offset_moves_bytes() {
        let a = Addr::new(100);
        assert_eq!(a.offset(8).raw(), 108);
        assert_eq!(a.offset(-4).raw(), 96);
    }

    #[test]
    #[should_panic(expected = "out of line")]
    fn word_index_bounds() {
        LineAddr::new(0).word(WORDS_PER_LINE);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Addr::new(0x40).to_string(), "0x40");
        assert_eq!(LineAddr::new(1).to_string(), "l0x40");
        assert_eq!(WordAddr::new(1).to_string(), "w0x8");
    }
}
