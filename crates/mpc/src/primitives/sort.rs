//! Distributed sample sort: the `O(1)`-round MPC sort of
//! Goodrich–Sitchinava–Zhang, in the form every MPC paper builds on.
//!
//! 1. sort locally (0 rounds);
//! 2. every machine sends `p − 1` evenly spaced local samples to machine 0
//!    (1 round);
//! 3. machine 0 picks `p − 1` global splitters, broadcast (tree rounds,
//!    labelled `sort-splitters`);
//! 4. items are routed by splitter bucket (1 round) and sorted locally.
//!
//! After the call, machine `i`'s items are sorted and all ≤ machine
//! `i + 1`'s (global sort order across machines).

use crate::cluster::Cluster;
use crate::error::MpcError;
use crate::primitives::broadcast::broadcast_value_labeled;
use crate::words::Words;

/// Sort the cluster's items by `key`. Keys must be cheap to clone; ties are
/// broken by the items' pre-sort (machine, position) order being folded
/// into the local stable sorts, which makes the result deterministic.
pub fn sort_by_key<T, K, F>(cluster: Cluster<T>, key: F) -> Result<Cluster<T>, MpcError>
where
    T: Words + Send + Sync,
    K: Ord + Clone + Words + Send + Sync,
    F: Fn(&T) -> K + Sync,
{
    let p = cluster.n_machines();
    if p == 1 {
        return cluster.map_local("sort-local", |_, mut items| {
            items.sort_by_key(|a| key(a));
            items
        });
    }

    // Step 1+2: local sort, then ship samples to machine 0.
    let mut cluster = cluster.map_local("sort-local", |_, mut items| {
        items.sort_by_key(|a| key(a));
        items
    })?;

    let samples_per_machine = p - 1;
    let mut sample_out: Vec<Vec<(usize, K)>> = Vec::with_capacity(p);
    for m in 0..p {
        let items = cluster.machine(m);
        let mut out = Vec::new();
        if !items.is_empty() {
            for j in 1..=samples_per_machine {
                let idx = (j * items.len()) / (samples_per_machine + 1);
                let idx = idx.min(items.len() - 1);
                out.push((0usize, key(&items[idx])));
            }
        }
        sample_out.push(out);
    }
    let samples_in = cluster.raw_exchange("sort-sample", sample_out)?;

    // Step 3: machine 0 computes global splitters.
    let mut all_samples: Vec<K> = samples_in.into_iter().flatten().collect();
    all_samples.sort();
    let mut splitters: Vec<K> = Vec::with_capacity(p - 1);
    if !all_samples.is_empty() {
        for j in 1..p {
            let idx = (j * all_samples.len()) / p;
            splitters.push(all_samples[idx.min(all_samples.len() - 1)].clone());
        }
    }
    let splitters = broadcast_value_labeled(&mut cluster, &splitters, "sort-splitters")?
        .pop()
        .expect("at least one machine");

    // Step 4: route by bucket, then local sort.
    let routed = cluster.exchange_multi("sort-route", |_, items| {
        items
            .into_iter()
            .map(|it| {
                let k = key(&it);
                // First splitter > k determines the bucket.
                let bucket = splitters.partition_point(|s| *s <= k);
                (bucket.min(p - 1), it)
            })
            .collect()
    })?;
    routed.map_local("sort-local", |_, mut items| {
        items.sort_by_key(|a| key(a));
        items
    })
}

/// Check the global sort invariant (tests and debug assertions).
pub fn is_globally_sorted<T, K, F>(cluster: &Cluster<T>, key: F) -> bool
where
    T: Words + Send + Sync,
    K: Ord,
    F: Fn(&T) -> K,
{
    let mut last: Option<K> = None;
    for m in 0..cluster.n_machines() {
        for item in cluster.machine(m) {
            let k = key(item);
            if let Some(prev) = &last {
                if *prev > k {
                    return false;
                }
            }
            last = Some(k);
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::MpcConfig;

    #[test]
    fn sorts_scattered_integers() {
        let items: Vec<u32> = (0..500)
            .map(|i| (i * 2654435761u64 % 1000) as u32)
            .collect();
        let mut expect = items.clone();
        expect.sort_unstable();
        let c = Cluster::from_items(MpcConfig::lenient(8, 100_000), items).unwrap();
        let c = sort_by_key(c, |&x| x).unwrap();
        assert!(is_globally_sorted(&c, |&x| x));
        let (got, ledger) = c.into_items();
        assert_eq!(got, expect);
        // Rounds: sample (1) + broadcast (≥1) + route (1).
        assert!(
            ledger.rounds >= 3 && ledger.rounds <= 6,
            "rounds = {}",
            ledger.rounds
        );
    }

    #[test]
    fn every_sort_round_is_labelled_as_the_sort() {
        // The splitter broadcast records under `sort-splitters`, not the
        // shared `broadcast` label, so a per-label table charges the
        // whole sort to the sort.
        let c = Cluster::from_items(MpcConfig::lenient(8, 100_000), (0u32..200).rev().collect());
        let ledger = sort_by_key(c.unwrap(), |&x| x).unwrap().into_items().1;
        assert!(ledger.rounds_labeled("sort-splitters") >= 1);
        assert_eq!(ledger.rounds_labeled("broadcast"), 0);
        assert!(ledger.history.iter().all(|r| r.label.starts_with("sort-")));
    }

    #[test]
    fn single_machine_sort() {
        let c = Cluster::from_items(MpcConfig::lenient(1, 10_000), vec![3u32, 1, 2]).unwrap();
        let c = sort_by_key(c, |&x| x).unwrap();
        let (got, ledger) = c.into_items();
        assert_eq!(got, vec![1, 2, 3]);
        assert_eq!(ledger.rounds, 0);
    }

    #[test]
    fn skewed_input_stays_balanced() {
        // Highly duplicated keys: buckets can't be perfect, but no machine
        // should end up with everything (sanity bound: ≤ 70%).
        let items: Vec<u32> = (0..1000).map(|i| (i % 10) as u32).collect();
        let c = Cluster::from_items(MpcConfig::lenient(4, 1_000_000), items).unwrap();
        let c = sort_by_key(c, |&x| x).unwrap();
        assert!(is_globally_sorted(&c, |&x| x));
        let max_m = (0..4).map(|m| c.machine(m).len()).max().unwrap();
        assert!(max_m <= 700, "machine holds {max_m} of 1000");
    }

    #[test]
    fn sorts_compound_items() {
        let items: Vec<(u32, u32)> = (0..100).map(|i| ((100 - i) as u32, i as u32)).collect();
        let c = Cluster::from_items(MpcConfig::lenient(3, 100_000), items).unwrap();
        let c = sort_by_key(c, |&(a, _)| a).unwrap();
        assert!(is_globally_sorted(&c, |&(a, _)| a));
        let (got, _) = c.into_items();
        assert_eq!(got.first(), Some(&(1u32, 99u32)));
        assert_eq!(got.last(), Some(&(100u32, 0u32)));
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let c = Cluster::from_items(MpcConfig::lenient(4, 1000), Vec::<u32>::new()).unwrap();
        let c = sort_by_key(c, |&x| x).unwrap();
        assert_eq!(c.total_items(), 0);

        let c = Cluster::from_items(MpcConfig::lenient(4, 1000), vec![9u32]).unwrap();
        let c = sort_by_key(c, |&x| x).unwrap();
        let (got, _) = c.into_items();
        assert_eq!(got, vec![9]);
    }

    #[test]
    fn deterministic() {
        let run = || {
            let items: Vec<u64> = (0..300).map(|i| (i * 48271) % 97).collect();
            let c = Cluster::from_items(MpcConfig::lenient(5, 100_000), items).unwrap();
            let c = sort_by_key(c, |&x| x).unwrap();
            (0..5).map(|m| c.machine(m).to_vec()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
