//! Round and message accounting for LOCAL-model executions, part of the
//! workspace metrics vocabulary; `sparse-alloc-local`'s engine reports
//! it per run.

/// Metrics accumulated by a LOCAL-engine run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundMetrics {
    /// Number of synchronous rounds executed.
    pub rounds: usize,
    /// Total messages sent across all rounds.
    pub messages: u64,
    /// Messages sent per round (length = `rounds`).
    pub messages_per_round: Vec<u64>,
    /// Whether the run ended because every vertex voted to halt (as opposed
    /// to hitting the round limit).
    pub halted: bool,
}

impl RoundMetrics {
    /// Peak per-round message volume.
    pub fn peak_messages(&self) -> u64 {
        self.messages_per_round.iter().copied().max().unwrap_or(0)
    }

    /// Mean messages per round (0 if no rounds ran).
    pub fn mean_messages(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.messages as f64 / self.rounds as f64
        }
    }

    /// The per-round volumes as a log₂-bucketed [`crate::Histogram`],
    /// for merging into a [`crate::Registry`]-style report.
    pub fn message_histogram(&self) -> crate::Histogram {
        let mut h = crate::Histogram::new();
        for &m in &self.messages_per_round {
            h.record(m);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates() {
        let m = RoundMetrics {
            rounds: 3,
            messages: 60,
            messages_per_round: vec![10, 30, 20],
            halted: true,
        };
        assert_eq!(m.peak_messages(), 30);
        assert!((m.mean_messages() - 20.0).abs() < 1e-12);
        let h = m.message_histogram();
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 30);
    }

    #[test]
    fn empty_metrics() {
        let m = RoundMetrics::default();
        assert_eq!(m.peak_messages(), 0);
        assert_eq!(m.mean_messages(), 0.0);
        assert!(m.message_histogram().is_empty());
    }
}
