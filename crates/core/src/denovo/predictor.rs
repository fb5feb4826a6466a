//! The per-L1 synchronization-variable predictor.
//!
//! A small, bounded table of word addresses this L1 has learned are
//! sync-classified at their home bank (from `Classified` rejections,
//! `Recall`s, and `SyncNotify` wakeups). A predictor hit routes the access
//! straight down the dedicated sync path; a miss costs one optimistic
//! registration round trip that the bank answers with `Classified`, after
//! which the entry is re-learned. Capacity misses are therefore a
//! performance event, never a correctness event.

use dvs_mem::WordAddr;

/// Bounded FIFO set of sync-classified word addresses. Slots fill in
/// order and are never freed, so an L1 that never learns a word (every
/// L1 outside GCS) holds an empty table.
#[derive(Debug, Clone, Hash)]
pub struct SyncPredictor {
    slots: Vec<WordAddr>,
    capacity: usize,
    /// Next slot to overwrite once full (round-robin replacement).
    next: usize,
}

impl SyncPredictor {
    /// Default table size: matches a realistic per-core structure of a few
    /// dozen hot sync variables.
    pub const DEFAULT_SLOTS: usize = 32;

    /// An empty predictor with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "predictor needs at least one slot");
        SyncPredictor {
            slots: Vec::new(),
            capacity,
            next: 0,
        }
    }

    /// Whether `word` is predicted sync-classified.
    pub fn contains(&self, word: WordAddr) -> bool {
        self.slots.contains(&word)
    }

    /// Learns `word` (idempotent; evicts round-robin when full).
    pub fn insert(&mut self, word: WordAddr) {
        if self.contains(word) {
            return;
        }
        if self.slots.len() < self.capacity {
            self.slots.push(word);
            return;
        }
        self.slots[self.next] = word;
        self.next = (self.next + 1) % self.capacity;
    }

    /// Number of learned entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether nothing has been learned yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(i: u64) -> WordAddr {
        WordAddr::new(i)
    }

    #[test]
    fn insert_is_idempotent_and_bounded() {
        let mut p = SyncPredictor::new(2);
        assert!(p.is_empty());
        p.insert(w(1));
        p.insert(w(1));
        assert_eq!(p.len(), 1);
        p.insert(w(2));
        assert!(p.contains(w(1)) && p.contains(w(2)));
        // Full: the third insert evicts round-robin, capacity stays 2.
        p.insert(w(3));
        assert_eq!(p.len(), 2);
        assert!(p.contains(w(3)));
    }

    #[test]
    fn eviction_is_deterministic() {
        let mut a = SyncPredictor::new(2);
        let mut b = SyncPredictor::new(2);
        for i in 0..10 {
            a.insert(w(i));
            b.insert(w(i));
        }
        assert_eq!(a.contains(w(9)), b.contains(w(9)));
        assert_eq!(a.len(), b.len());
    }
}
