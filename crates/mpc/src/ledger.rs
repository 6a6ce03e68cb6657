//! Round, communication, and space accounting.
//!
//! The quantities tracked here are *exactly* the quantities Theorem 10
//! bounds: communication rounds, per-machine space, and total space. The
//! experiment suite (E4) prints them directly.

/// Record of one communication round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundRecord {
    /// Total words moved between machines this round.
    pub words_moved: u64,
    /// Max over machines of words sent.
    pub max_sent: usize,
    /// Max over machines of words received.
    pub max_received: usize,
    /// Max over machines of words stored after the round.
    pub max_storage: usize,
    /// Sum over machines of words stored after the round.
    pub total_storage: u64,
    /// Label of the operation that caused the round (for table readouts).
    pub label: &'static str,
}

/// Accumulated accounting across a cluster's lifetime.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Communication rounds so far.
    pub rounds: usize,
    /// Total words moved across all rounds.
    pub words_total: u64,
    /// Peak single-machine per-round I/O (max of sent, received).
    pub peak_round_io: usize,
    /// Peak single-machine storage observed after any round.
    pub peak_storage: usize,
    /// Peak total storage (sum across machines) observed after any round.
    pub peak_total_storage: u64,
    /// Per-round records, in order.
    pub history: Vec<RoundRecord>,
    /// Labels of local (round-free) computation phases, in order. Local
    /// phases move no words between machines, so the MPC model charges
    /// them zero rounds — but they still appear here so cost tables can
    /// attribute storage peaks to the step that caused them.
    pub local_steps: Vec<&'static str>,
    /// Roll-up threshold: `Some(n)` folds `history`/`local_steps` into
    /// per-label aggregates whenever either exceeds `n` entries, so a
    /// long-lived serve loop keeps O(labels) accounting state instead of
    /// one record per round forever. `None` (the default) keeps the full
    /// in-order history.
    rollup_after: Option<usize>,
    /// Per-label aggregates of rolled-up records (empty until a roll-up
    /// fires). Bounded by the number of distinct labels.
    rolled: Vec<LabelTotals>,
}

/// Per-label aggregate a roll-up folds old records into. Totals and
/// labeled counts are preserved exactly; only per-record order is given
/// up (the running peaks in [`Ledger`] never lived in `history`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LabelTotals {
    /// The round/local-step label.
    pub label: &'static str,
    /// Rounds rolled up under this label.
    pub rounds: usize,
    /// Words moved by those rounds.
    pub words_moved: u64,
    /// Local (round-free) steps rolled up under this label.
    pub local_steps: usize,
}

impl Ledger {
    /// Fold one round's record into the running totals.
    pub fn record(&mut self, rec: RoundRecord) {
        self.rounds += 1;
        self.words_total += rec.words_moved;
        self.peak_round_io = self.peak_round_io.max(rec.max_sent).max(rec.max_received);
        self.peak_storage = self.peak_storage.max(rec.max_storage);
        self.peak_total_storage = self.peak_total_storage.max(rec.total_storage);
        self.history.push(rec);
        self.maybe_rollup();
    }

    /// Enable roll-up mode: once `history` or `local_steps` holds more
    /// than `n` entries, fold the surplus into per-label [`LabelTotals`].
    /// Every total and labeled count this ledger reports is unchanged by
    /// the mode (`ledger::tests::rollup_matches_the_unbounded_ledger`).
    pub fn rollup_after(&mut self, n: usize) {
        self.rollup_after = Some(n.max(1));
        self.maybe_rollup();
    }

    /// Per-label aggregates accumulated by roll-ups so far.
    pub fn rolled(&self) -> &[LabelTotals] {
        &self.rolled
    }

    fn rolled_entry<'a>(
        rolled: &'a mut Vec<LabelTotals>,
        label: &'static str,
    ) -> &'a mut LabelTotals {
        if let Some(at) = rolled.iter().position(|t| t.label == label) {
            &mut rolled[at]
        } else {
            rolled.push(LabelTotals {
                label,
                ..LabelTotals::default()
            });
            rolled.last_mut().unwrap()
        }
    }

    fn maybe_rollup(&mut self) {
        let Some(n) = self.rollup_after else { return };
        if self.history.len() > n {
            for rec in self.history.drain(..) {
                let t = Self::rolled_entry(&mut self.rolled, rec.label);
                t.rounds += 1;
                t.words_moved += rec.words_moved;
            }
        }
        if self.local_steps.len() > n {
            for label in self.local_steps.drain(..) {
                Self::rolled_entry(&mut self.rolled, label).local_steps += 1;
            }
        }
    }

    /// Update the storage peaks without charging a round (local phases).
    pub fn observe_storage(&mut self, max_storage: usize, total_storage: u64) {
        self.peak_storage = self.peak_storage.max(max_storage);
        self.peak_total_storage = self.peak_total_storage.max(total_storage);
    }

    /// Record a labeled local computation phase: storage peaks are
    /// observed, `rounds` stays untouched (local work is free in MPC).
    pub fn observe_local(&mut self, label: &'static str, max_storage: usize, total_storage: u64) {
        self.local_steps.push(label);
        self.observe_storage(max_storage, total_storage);
        self.maybe_rollup();
    }

    /// Count of local phases whose label equals `label`, including any
    /// folded into roll-up aggregates.
    pub fn local_steps_labeled(&self, label: &str) -> usize {
        let rolled: usize = self
            .rolled
            .iter()
            .filter(|t| t.label == label)
            .map(|t| t.local_steps)
            .sum();
        rolled + self.local_steps.iter().filter(|l| **l == label).count()
    }

    /// Count of rounds whose label equals `label`, including any folded
    /// into roll-up aggregates.
    pub fn rounds_labeled(&self, label: &str) -> usize {
        let rolled: usize = self
            .rolled
            .iter()
            .filter(|t| t.label == label)
            .map(|t| t.rounds)
            .sum();
        rolled + self.history.iter().filter(|r| r.label == label).count()
    }

    /// Words moved by rounds whose label equals `label`, including any
    /// folded into roll-up aggregates.
    pub fn words_labeled(&self, label: &str) -> u64 {
        let rolled: u64 = self
            .rolled
            .iter()
            .filter(|t| t.label == label)
            .map(|t| t.words_moved)
            .sum();
        rolled
            + self
                .history
                .iter()
                .filter(|r| r.label == label)
                .map(|r| r.words_moved)
                .sum::<u64>()
    }

    /// Assert that every per-machine quantity this ledger observed —
    /// storage after a round *and* single-round send/receive volume —
    /// stayed within `limit` words.
    ///
    /// Lenient clusters record peaks without enforcing them; algorithms
    /// that *claim* a space regime (e.g. the sharded serve loop's
    /// `n^δ`-per-machine budget) call this at phase boundaries so a
    /// violation surfaces as a structured
    /// [`MpcError::SpaceExceeded`](crate::MpcError::SpaceExceeded)
    /// instead of silently passing. Primitives that model their cost
    /// analytically (broadcast trees) only show up in the I/O peaks, which
    /// is why round I/O is checked alongside storage: a deliberately
    /// oversized broadcast must be rejected here even though no machine
    /// ever *stored* the value.
    pub fn assert_space_within(&self, limit: usize) -> Result<(), crate::MpcError> {
        use crate::error::{MpcError, SpaceKind};
        if self.peak_storage > limit {
            return Err(MpcError::SpaceExceeded {
                round: self.rounds,
                machine: usize::MAX, // peaks are not attributed to a machine
                kind: SpaceKind::Storage,
                used: self.peak_storage,
                limit,
            });
        }
        if self.peak_round_io > limit {
            return Err(MpcError::SpaceExceeded {
                round: self.rounds,
                machine: usize::MAX,
                kind: SpaceKind::Send,
                used: self.peak_round_io,
                limit,
            });
        }
        Ok(())
    }

    /// Merge another ledger's history after this one (used when an algorithm
    /// runs sub-clusters). Roll-up aggregates on either side are merged
    /// aggregate-to-aggregate, so totals and labeled counts survive.
    pub fn absorb(&mut self, other: &Ledger) {
        for t in &other.rolled {
            self.rounds += t.rounds;
            self.words_total += t.words_moved;
            let mine = Self::rolled_entry(&mut self.rolled, t.label);
            mine.rounds += t.rounds;
            mine.words_moved += t.words_moved;
            mine.local_steps += t.local_steps;
        }
        for rec in &other.history {
            self.record(rec.clone());
        }
        self.local_steps.extend_from_slice(&other.local_steps);
        self.peak_round_io = self.peak_round_io.max(other.peak_round_io);
        self.peak_storage = self.peak_storage.max(other.peak_storage);
        self.peak_total_storage = self.peak_total_storage.max(other.peak_total_storage);
        self.maybe_rollup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(words: u64, sent: usize, recv: usize, store: usize, label: &'static str) -> RoundRecord {
        RoundRecord {
            words_moved: words,
            max_sent: sent,
            max_received: recv,
            max_storage: store,
            total_storage: store as u64 * 4,
            label,
        }
    }

    #[test]
    fn accumulation() {
        let mut l = Ledger::default();
        l.record(rec(100, 30, 40, 50, "sort"));
        l.record(rec(200, 60, 20, 45, "exchange"));
        assert_eq!(l.rounds, 2);
        assert_eq!(l.words_total, 300);
        assert_eq!(l.peak_round_io, 60);
        assert_eq!(l.peak_storage, 50);
        assert_eq!(l.peak_total_storage, 200);
        assert_eq!(l.rounds_labeled("sort"), 1);
    }

    #[test]
    fn observe_storage_no_round() {
        let mut l = Ledger::default();
        l.observe_storage(70, 300);
        assert_eq!(l.rounds, 0);
        assert_eq!(l.peak_storage, 70);
    }

    #[test]
    fn local_steps_are_recorded_round_free() {
        let mut l = Ledger::default();
        l.observe_local("map", 10, 40);
        l.observe_local("map", 25, 90);
        l.observe_local("filter", 5, 20);
        assert_eq!(l.rounds, 0, "local phases never charge a round");
        assert_eq!(l.local_steps_labeled("map"), 2);
        assert_eq!(l.local_steps_labeled("filter"), 1);
        assert_eq!(l.peak_storage, 25);

        let mut outer = Ledger::default();
        outer.absorb(&l);
        assert_eq!(outer.local_steps_labeled("map"), 2);
        assert_eq!(outer.rounds, 0);
    }

    #[test]
    fn assert_space_within_checks_storage_and_io() {
        let mut l = Ledger::default();
        l.record(rec(100, 30, 40, 50, "sort"));
        assert!(l.assert_space_within(50).is_ok());
        let err = l.assert_space_within(49).unwrap_err();
        assert!(matches!(
            err,
            crate::MpcError::SpaceExceeded {
                kind: crate::error::SpaceKind::Storage,
                used: 50,
                limit: 49,
                ..
            }
        ));
        // Pure I/O peaks (no storage) are caught too.
        let mut l = Ledger::default();
        l.record(rec(100, 90, 10, 5, "broadcast"));
        assert!(matches!(
            l.assert_space_within(80).unwrap_err(),
            crate::MpcError::SpaceExceeded {
                kind: crate::error::SpaceKind::Send,
                used: 90,
                ..
            }
        ));
    }

    #[test]
    fn oversized_broadcast_is_rejected_not_silently_passed() {
        // A lenient cluster lets an S-violating broadcast through (it only
        // records peaks); the assertion helper must still reject it.
        use crate::cluster::{Cluster, MpcConfig};
        use crate::primitives::broadcast_value;
        let mut c =
            Cluster::from_items(MpcConfig::lenient(4, 8), vec![0u32; 4]).expect("items fit");
        let big: Vec<u64> = vec![7; 64]; // 65 words ≫ S = 8
        broadcast_value(&mut c, &big).unwrap();
        let err = c.ledger().assert_space_within(8).unwrap_err();
        assert!(matches!(
            err,
            crate::MpcError::SpaceExceeded {
                kind: crate::error::SpaceKind::Send,
                ..
            }
        ));
        // A right-sized broadcast passes the same gate.
        let mut c =
            Cluster::from_items(MpcConfig::lenient(4, 64), vec![0u32; 4]).expect("items fit");
        broadcast_value(&mut c, &3u64).unwrap();
        c.ledger().assert_space_within(64).unwrap();
    }

    #[test]
    fn rollup_matches_the_unbounded_ledger() {
        // Drive the same synthetic serving workload into an unbounded
        // ledger and one rolling up after 4 records; every total and
        // labeled count must agree while the rolled ledger's accounting
        // state stays bounded.
        let labels = ["route_updates", "repair_wave", "migration_commit"];
        let mut full = Ledger::default();
        let mut rolled = Ledger::default();
        rolled.rollup_after(4);
        let mut x = 41u64;
        for i in 0..200usize {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let label = labels[i % labels.len()];
            let r = rec(
                x % 100,
                (x % 7) as usize,
                (x % 11) as usize,
                (x % 31) as usize,
                label,
            );
            full.record(r.clone());
            rolled.record(r);
            if i % 5 == 0 {
                full.observe_local("shard_state", (x % 17) as usize, x % 63);
                rolled.observe_local("shard_state", (x % 17) as usize, x % 63);
            }
        }
        assert_eq!(rolled.rounds, full.rounds);
        assert_eq!(rolled.words_total, full.words_total);
        assert_eq!(rolled.peak_round_io, full.peak_round_io);
        assert_eq!(rolled.peak_storage, full.peak_storage);
        assert_eq!(rolled.peak_total_storage, full.peak_total_storage);
        for label in labels {
            assert_eq!(rolled.rounds_labeled(label), full.rounds_labeled(label));
            assert_eq!(rolled.words_labeled(label), full.words_labeled(label));
        }
        assert_eq!(
            rolled.local_steps_labeled("shard_state"),
            full.local_steps_labeled("shard_state")
        );
        // The point of the mode: bounded accounting state.
        assert!(
            rolled.history.len() <= 4,
            "history kept {} records",
            rolled.history.len()
        );
        assert!(rolled.local_steps.len() <= 4);
        assert!(rolled.rolled().len() <= labels.len() + 1);
        assert_eq!(full.history.len(), 200);
    }

    #[test]
    fn rollup_survives_absorb_on_both_sides() {
        let mut full = Ledger::default();
        let mut rolled = Ledger::default();
        rolled.rollup_after(2);
        let mut sub_full = Ledger::default();
        let mut sub_rolled = Ledger::default();
        sub_rolled.rollup_after(2);
        for i in 0..10u64 {
            let r = rec(i, 1, 2, 3, if i % 2 == 0 { "x" } else { "y" });
            full.record(r.clone());
            rolled.record(r.clone());
            sub_full.record(r.clone());
            sub_rolled.record(r);
            sub_full.observe_local("z", 1, 2);
            sub_rolled.observe_local("z", 1, 2);
        }
        full.absorb(&sub_full);
        rolled.absorb(&sub_rolled);
        assert_eq!(rolled.rounds, full.rounds);
        assert_eq!(rolled.words_total, full.words_total);
        for label in ["x", "y"] {
            assert_eq!(rolled.rounds_labeled(label), full.rounds_labeled(label));
            assert_eq!(rolled.words_labeled(label), full.words_labeled(label));
        }
        assert_eq!(
            rolled.local_steps_labeled("z"),
            full.local_steps_labeled("z")
        );
        assert!(rolled.history.len() <= 2);
    }

    #[test]
    fn absorb_merges() {
        let mut a = Ledger::default();
        a.record(rec(10, 1, 2, 3, "x"));
        let mut b = Ledger::default();
        b.record(rec(20, 9, 1, 1, "y"));
        a.absorb(&b);
        assert_eq!(a.rounds, 2);
        assert_eq!(a.words_total, 30);
        assert_eq!(a.peak_round_io, 9);
    }
}
