//! Broadcast a small value to every machine via a fan-out tree.
//!
//! With per-machine space `S`, one machine can forward a `w`-word value to
//! at most `f = max(2, S / w)` other machines per round, so reaching `N`
//! machines takes `⌈log_f N⌉` rounds. In the sublinear regime
//! (`S = n^α`, `N = O(n^{1−α})`) this is the `O(1/α) = O(1)` rounds the
//! paper's accounting assumes. The simulation clones the value; the ledger
//! is charged the tree's true round count and word volume.

use crate::cluster::Cluster;
use crate::error::MpcError;
use crate::ledger::RoundRecord;
use crate::words::Words;

/// Broadcast `value` (resident on one machine) to all machines, charging
/// the tree cost under the `broadcast` label. Returns the per-machine
/// copies.
pub fn broadcast_value<T, V>(cluster: &mut Cluster<T>, value: &V) -> Result<Vec<V>, MpcError>
where
    T: Words + Send + Sync,
    V: Words + Clone,
{
    broadcast_value_labeled(cluster, value, "broadcast")
}

/// [`broadcast_value`] with the tree's rounds recorded under `label`, so a
/// primitive that broadcasts as one of its steps (the sample sort's
/// splitters) keeps its rounds under its own name.
pub fn broadcast_value_labeled<T, V>(
    cluster: &mut Cluster<T>,
    value: &V,
    label: &'static str,
) -> Result<Vec<V>, MpcError>
where
    T: Words + Send + Sync,
    V: Words + Clone,
{
    let p = cluster.config().machines;
    let s = cluster.config().space_words;
    let w = value.words().max(1);

    if p > 1 {
        let fan_out = (s / w).max(2);
        // Tree rounds: informed machines multiply by (fan_out + 1) per round.
        let mut informed: u64 = 1;
        while informed < p as u64 {
            let newly = (informed * fan_out as u64).min(p as u64 - informed);
            let words_moved = newly * w as u64;
            // Per-machine send this round ≤ fan_out · w ≤ S by construction;
            // receive = w.
            cluster.charge_round(RoundRecord {
                words_moved,
                max_sent: (fan_out * w).min(newly as usize * w),
                max_received: w,
                max_storage: 0,
                total_storage: 0,
                label,
            });
            informed += newly;
        }
    }
    Ok(vec![value.clone(); p])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::MpcConfig;

    #[test]
    fn single_round_when_fanout_covers() {
        let mut c = Cluster::from_items(MpcConfig::lenient(8, 1000), (0u32..8).collect()).unwrap();
        let copies = broadcast_value(&mut c, &42u64).unwrap();
        assert_eq!(copies, vec![42u64; 8]);
        // fan-out = 1000 ≥ 7, one round.
        assert_eq!(c.ledger().rounds, 1);
        assert_eq!(c.ledger().rounds_labeled("broadcast"), 1);
    }

    #[test]
    fn tree_rounds_when_space_small() {
        // S = 2, value 1 word → fan-out 2: informed 1→3→9→27→64.
        let mut c = Cluster::from_items(MpcConfig::lenient(64, 2), vec![0u32]).unwrap();
        let _ = broadcast_value(&mut c, &7u32).unwrap();
        assert_eq!(c.ledger().rounds, 4);
    }

    #[test]
    fn single_machine_is_free() {
        let mut c = Cluster::from_items(MpcConfig::lenient(1, 10), vec![0u32]).unwrap();
        let copies = broadcast_value(&mut c, &vec![1u32, 2, 3]).unwrap();
        assert_eq!(copies.len(), 1);
        assert_eq!(c.ledger().rounds, 0);
    }

    #[test]
    fn word_volume_accounts_all_copies() {
        let mut c = Cluster::from_items(MpcConfig::lenient(5, 100), vec![0u32]).unwrap();
        let v = vec![1u32, 2, 3]; // 4 words
        let _ = broadcast_value(&mut c, &v).unwrap();
        // 4 copies delivered × 4 words.
        assert_eq!(c.ledger().words_total, 16);
    }
}
