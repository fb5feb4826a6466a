//! Miss-status holding registers.
//!
//! An MSHR file tracks outstanding misses keyed by address (line address for
//! MESI, word address for DeNovo). The paper does not evaluate MSHR-capacity
//! pressure, so the file is unbounded, but it records a high-water mark so
//! experiments can confirm realistic occupancies. The file reports nothing
//! itself: its owner observes each allocation and release.
//!
//! Occupancy is a handful of entries (bounded by each core's outstanding
//! misses), so the file is a flat key-sorted vector: binary-search lookups
//! with no hashing, and the canonical fingerprint hash falls out of plain
//! in-order iteration.

use std::hash::Hash;

/// A file of miss-status holding registers keyed by `K`.
///
/// # Examples
///
/// ```
/// use dvs_mem::Mshr;
///
/// let mut mshr: Mshr<u64, &str> = Mshr::unbounded();
/// assert!(mshr.try_insert(100, "pending GetM").is_ok());
/// assert_eq!(mshr.get(&100), Some(&"pending GetM"));
/// assert_eq!(mshr.remove(&100), Some("pending GetM"));
/// ```
#[derive(Debug, Clone)]
pub struct Mshr<K, V> {
    /// Outstanding entries, sorted by key.
    entries: Vec<(K, V)>,
    high_water: usize,
}

/// Error returned when inserting a key the file already tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrError {
    /// An entry for this key already exists.
    Occupied,
}

impl std::fmt::Display for MshrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MshrError::Occupied => f.write_str("mshr entry already exists for key"),
        }
    }
}

impl std::error::Error for MshrError {}

impl<K, V> Mshr<K, V> {
    /// Creates an empty, unbounded file.
    pub fn unbounded() -> Self {
        Mshr {
            entries: Vec::new(),
            high_water: 0,
        }
    }
}

impl<K: Ord, V> Mshr<K, V> {
    /// Where `key` is, or where it would insert.
    fn search(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// Inserts a new entry.
    ///
    /// # Errors
    ///
    /// Returns [`MshrError::Occupied`] if the key is already tracked.
    pub fn try_insert(&mut self, key: K, value: V) -> Result<(), MshrError> {
        let slot = match self.search(&key) {
            Ok(_) => return Err(MshrError::Occupied),
            Err(slot) => slot,
        };
        self.entries.insert(slot, (key, value));
        self.high_water = self.high_water.max(self.entries.len());
        Ok(())
    }

    /// Removes and returns an entry.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let slot = self.search(key).ok()?;
        Some(self.entries.remove(slot).1)
    }

    /// Looks up an entry.
    pub fn get(&self, key: &K) -> Option<&V> {
        let slot = self.search(key).ok()?;
        Some(&self.entries[slot].1)
    }

    /// Looks up an entry mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let slot = self.search(key).ok()?;
        Some(&mut self.entries[slot].1)
    }

    /// Whether an entry exists for `key`.
    pub fn contains(&self, key: &K) -> bool {
        self.search(key).is_ok()
    }

    /// Current number of outstanding entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries are outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maximum simultaneous occupancy observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Iterates outstanding entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

/// Canonical hash: entries sorted by key (their storage order). The
/// `high_water` statistic is excluded — it never affects future behaviour.
impl<K: Ord + Hash, V: Hash> Hash for Mshr<K, V> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_usize(self.entries.len());
        for (k, v) in &self.entries {
            k.hash(state);
            v.hash(state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut m: Mshr<u32, u32> = Mshr::unbounded();
        m.try_insert(1, 10).unwrap();
        assert_eq!(m.get(&1), Some(&10));
        *m.get_mut(&1).unwrap() += 1;
        assert_eq!(m.remove(&1), Some(11));
        assert!(m.is_empty());
    }

    #[test]
    fn duplicate_key_rejected() {
        let mut m: Mshr<u32, ()> = Mshr::unbounded();
        m.try_insert(1, ()).unwrap();
        assert_eq!(m.try_insert(1, ()), Err(MshrError::Occupied));
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut m: Mshr<u32, ()> = Mshr::unbounded();
        m.try_insert(1, ()).unwrap();
        m.try_insert(2, ()).unwrap();
        m.remove(&1);
        m.remove(&2);
        assert_eq!(m.high_water(), 2);
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn iteration_is_key_sorted() {
        let mut m: Mshr<u32, u32> = Mshr::unbounded();
        for k in [9u32, 2, 5, 7, 1] {
            m.try_insert(k, k * 10).unwrap();
        }
        let keys: Vec<u32> = m.iter().map(|(&k, _)| k).collect();
        assert_eq!(keys, vec![1, 2, 5, 7, 9]);
    }
}
