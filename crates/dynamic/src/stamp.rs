//! An epoch-stamped membership set for the scheduling hot path.
//!
//! The conflict scheduler touches a few hundred right vertices per update
//! and has to forget everything between batches. A `HashSet` pays a hash
//! per probe on the per-edge path and an `O(size)` drain per clear; a
//! dense `Vec<bool>` clears in `O(n)`. The stamped set here pays one
//! array read per probe and clear in `O(1)`: every slot remembers the
//! stamp of the last generation that wrote it, and bumping the generation
//! invalidates all slots at once. Stamp wraparound (one in `2³²` clears)
//! falls back to a full zeroing pass, so stale stamps from a previous
//! wraparound epoch can never alias a live generation.
//!
//! # The epoch-stamp invariant
//!
//! The set maintains one invariant: **a slot is live iff its mark
//! equals the current generation stamp**. Three facts make it airtight:
//!
//! 1. Writes always store the current stamp, so a slot written this
//!    generation tests live.
//! 2. [`StampSet::clear`] bumps the stamp without touching the slots,
//!    so every previously-live slot instantly tests dead — that is the
//!    `O(1)` clear.
//! 3. The stamp never repeats within a mark array's lifetime: generations
//!    are handed out sequentially, and the one wraparound in `2³²` clears
//!    re-zeroes all marks and restarts at 1 (stamp 0 is reserved for
//!    "never written"). Without the re-zero, a slot last written `2³²`
//!    generations ago would alias the new stamp and resurrect — the
//!    wraparound unit test pins exactly that case.
//!
//! Growth preserves the invariant trivially: fresh slots carry mark 0,
//! which no live generation ever equals.
//!
//! ```
//! use sparse_alloc_dynamic::stamp::StampSet;
//!
//! let mut members = StampSet::new(16);
//! assert!(members.insert(3), "first insert reports novelty");
//! assert!(!members.insert(3), "re-insert reports membership");
//! members.clear(); // O(1): bumps the generation, touches no slot
//! assert!(!members.contains(3));
//! assert!(members.insert(3), "the slot is reusable immediately");
//! ```

/// A set over `0..n` with `O(1)` insert/contains/clear.
#[derive(Debug, Clone)]
pub struct StampSet {
    stamp: u32,
    marks: Vec<u32>,
}

impl Default for StampSet {
    fn default() -> Self {
        StampSet::new(0)
    }
}

impl StampSet {
    /// An empty set over the universe `0..n`.
    pub fn new(n: usize) -> Self {
        StampSet {
            stamp: 1,
            marks: vec![0; n],
        }
    }

    /// Grow the universe to at least `n` (new slots are absent).
    pub fn grow(&mut self, n: usize) {
        if self.marks.len() < n {
            self.marks.resize(n, 0);
        }
    }

    /// Universe size.
    pub fn universe(&self) -> usize {
        self.marks.len()
    }

    /// Drop every member in `O(1)` (amortized: a wraparound pays `O(n)`).
    pub fn clear(&mut self) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Wraparound: stamps from 2³² generations ago would read as
            // live; re-zero and restart the generation counter.
            self.marks.iter_mut().for_each(|m| *m = 0);
            self.stamp = 1;
        }
    }

    /// Insert `i`; returns `true` iff it was not yet a member.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        if self.marks[i] == self.stamp {
            false
        } else {
            self.marks[i] = self.stamp;
            true
        }
    }

    /// Is `i` a member?
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.marks[i] == self.stamp
    }

    /// Jump the generation counter (wraparound tests).
    #[cfg(test)]
    fn force_stamp(&mut self, stamp: u32) {
        self.stamp = stamp;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn insert_contains_and_clear_between_epochs() {
        let mut s = StampSet::new(8);
        assert!(s.insert(3));
        assert!(!s.insert(3), "double insert reports membership");
        assert!(s.contains(3));
        assert!(!s.contains(4));
        s.clear();
        assert!(!s.contains(3), "clear drops all members");
        assert!(s.insert(3), "slot is reusable after clear");
        s.grow(16);
        assert!(!s.contains(12));
        assert!(s.insert(12));
        assert_eq!(s.universe(), 16);
    }

    #[test]
    fn stamp_wraparound_cannot_resurrect_members() {
        let mut s = StampSet::new(4);
        s.insert(0);
        s.insert(1);
        // Jump to the last generation before wraparound: the next clear
        // wraps to 0 and must re-zero instead of aliasing old stamps.
        s.force_stamp(u32::MAX);
        assert!(
            !s.contains(0),
            "a slot stamped by an old generation is not a member"
        );
        s.insert(2); // stamped u32::MAX
        s.clear(); // wraps: full re-zero, stamp restarts at 1
        assert!(!s.contains(2), "wraparound clear drops members");
        for i in 0..4 {
            assert!(!s.contains(i), "slot {i} alive across wraparound");
        }
        assert!(s.insert(2));
        assert!(s.contains(2));
    }

    #[test]
    fn agrees_with_a_hashset_on_random_touch_sequences() {
        // Deterministic LCG so the test needs no rng dependency.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let n = 64usize;
        let mut s = StampSet::new(n);
        let mut reference: HashSet<usize> = HashSet::new();
        for _ in 0..5_000 {
            match next() % 4 {
                0 => {
                    let i = (next() as usize) % n;
                    assert_eq!(s.insert(i), reference.insert(i), "insert({i})");
                }
                1 => {
                    let i = (next() as usize) % n;
                    assert_eq!(s.contains(i), reference.contains(&i), "contains({i})");
                }
                2 if next().is_multiple_of(16) => {
                    s.clear();
                    reference.clear();
                }
                _ => {
                    let i = (next() as usize) % n;
                    assert_eq!(s.contains(i), reference.contains(&i));
                }
            }
        }
        for i in 0..n {
            assert_eq!(s.contains(i), reference.contains(&i), "final state {i}");
        }
    }
}
