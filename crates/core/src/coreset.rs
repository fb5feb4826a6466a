//! A dense set of cores: one bit per core, up to [`CoreSet::CAPACITY`].
//!
//! Used wherever a bank tracks a group of cores: MESI directory sharer
//! lists and the sync-path waiter sets of classified words. The bound
//! covers the largest mesh the configurations build (16×16).

use crate::msg::CoreId;

/// A set of core ids below [`CoreSet::CAPACITY`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct CoreSet([u64; CoreSet::CAPACITY / 64]);

impl CoreSet {
    /// Largest number of cores a set can track.
    pub const CAPACITY: usize = 256;

    /// The set holding exactly `core`.
    pub fn of(core: CoreId) -> Self {
        let mut s = CoreSet::default();
        s.insert(core);
        s
    }

    /// Adds `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is not below [`CoreSet::CAPACITY`].
    pub fn insert(&mut self, core: CoreId) {
        assert!(
            core < Self::CAPACITY,
            "core set supports {} cores",
            Self::CAPACITY
        );
        self.0[core / 64] |= 1 << (core % 64);
    }

    /// Removes `core` (a no-op if absent).
    pub fn remove(&mut self, core: CoreId) {
        if core < Self::CAPACITY {
            self.0[core / 64] &= !(1 << (core % 64));
        }
    }

    /// Number of cores in the set.
    pub fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    /// The cores of `self` that are not in `other`.
    pub fn difference(&self, other: &CoreSet) -> CoreSet {
        let mut out = *self;
        for (o, m) in out.0.iter_mut().zip(other.0) {
            *o &= !m;
        }
        out
    }

    /// The member cores in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = CoreId> + '_ {
        self.0.iter().enumerate().flat_map(|(i, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                let b = (bits != 0).then(|| bits.trailing_zeros() as usize)?;
                bits &= bits - 1;
                Some(i * 64 + b)
            })
        })
    }
}

impl FromIterator<CoreId> for CoreSet {
    fn from_iter<I: IntoIterator<Item = CoreId>>(cores: I) -> Self {
        let mut s = CoreSet::default();
        for c in cores {
            s.insert(c);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cores_past_64_do_not_alias() {
        let mut s = CoreSet::of(3);
        s.insert(67);
        s.insert(255);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 67, 255]);
        s.remove(3);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![67, 255]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn difference_keeps_only_the_others() {
        let mut a = CoreSet::of(1);
        a.insert(70);
        let d = a.difference(&CoreSet::of(70));
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1]);
        assert!(CoreSet::default().is_empty());
        assert!(!d.is_empty());
    }

    #[test]
    fn collects_from_core_ids() {
        let s: CoreSet = [200, 3, 3, 64].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 64, 200]);
    }

    #[test]
    #[should_panic(expected = "core set supports 256 cores")]
    fn out_of_range_insert_panics() {
        CoreSet::default().insert(256);
    }
}
