//! Warm-restart fidelity: checkpoint mid-stream → restore → the engine is
//! observably identical to one that never stopped.
//!
//! The contract proved here is the whole point of the snapshot subsystem
//! (`sparse_alloc_dynamic::snapshot`): for ANY instance, ANY update
//! stream, and ANY cut point, serializing the engine and reading it back
//! reproduces the exact mate vector, the exact β-levels, and the exact
//! `k/(k+1)` certificate of the uninterrupted run — for the serial
//! [`ServeLoop`] (cut anywhere, even mid-epoch with dirty marks pending)
//! and for [`ShardedServeLoop`] at shard counts {1, 2, 4}, including
//! restores that re-shard onto a *different* machine count.

mod common;

use common::materialize_ops;
use proptest::prelude::*;
use sparse_alloc::dynamic::engine::{drive, Engine};
use sparse_alloc::dynamic::{snapshot, wal};
use sparse_alloc::flow::opt::opt_value;
use sparse_alloc::prelude::*;

/// Strategy: an arbitrary small allocation instance (duplicates and
/// isolated vertices allowed), mirroring `tests/properties.rs`.
fn instance() -> impl Strategy<Value = Bipartite> {
    (2usize..20, 2usize..16).prop_flat_map(|(nl, nr)| {
        let edges = proptest::collection::vec((0..nl as u32, 0..nr as u32), 0..90);
        let caps = proptest::collection::vec(1u64..=4, nr);
        (Just(nl), Just(nr), edges, caps).prop_map(|(nl, nr, edges, caps)| {
            let mut b = BipartiteBuilder::new(nl, nr);
            b.extend_edges(edges);
            b.build(caps).expect("in-range instance")
        })
    })
}

fn roundtrip_serial(serve: &ServeLoop) -> ServeLoop {
    let mut bytes = Vec::new();
    snapshot::write_serial(serve, &mut bytes).expect("checkpoint");
    snapshot::read_serial(&mut &bytes[..]).expect("restore")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Serial warm restart: cut the stream at an arbitrary update — even
    /// mid-epoch, with dirty marks and drift pending — and the restored
    /// engine finishes the stream exactly like the uninterrupted one:
    /// same mate vector, same levels, same stats, and the same k/(k+1)
    /// certificate on the final live graph.
    #[test]
    fn serial_restore_is_observably_identical(
        g in instance(),
        ops in proptest::collection::vec((0u8..5, 0u32..1_000_000, 0u32..1_000_000, 1u64..=4), 1..32),
        epoch_every in 2usize..8,
        cut_pct in 0usize..=100,
    ) {
        let eps = 0.25;
        let updates = materialize_ops(&g, &ops);
        let cut = updates.len() * cut_pct / 100;

        let mut uninterrupted = ServeLoop::new(g.clone(), DynamicConfig::for_eps(eps));
        let mut restarted = ServeLoop::new(g, DynamicConfig::for_eps(eps));
        for (i, up) in updates.iter().enumerate() {
            if i == cut {
                restarted = roundtrip_serial(&restarted);
            }
            uninterrupted.apply(up);
            restarted.apply(up);
            if i % epoch_every == epoch_every - 1 {
                uninterrupted.end_epoch();
                restarted.end_epoch();
            }
        }
        let ra = uninterrupted.end_epoch();
        let rb = restarted.end_epoch();
        prop_assert_eq!(ra, rb, "final epoch reports diverged");
        restarted.validate().unwrap();

        prop_assert_eq!(uninterrupted.assignment().mate, restarted.assignment().mate);
        prop_assert_eq!(uninterrupted.levels(), restarted.levels());
        prop_assert_eq!(uninterrupted.stats(), restarted.stats());

        // The certificate itself: the restored engine upholds the same
        // k/(k+1) bound on the same live graph.
        let live = restarted.snapshot();
        let opt = opt_value(&live);
        let k = restarted.config().walk_budget as f64;
        prop_assert!(
            restarted.match_size() as f64 >= k / (k + 1.0) * opt as f64 - 1e-9,
            "restored engine lost the certificate: {} vs OPT {opt}",
            restarted.match_size()
        );

        // And the restored engine snapshots byte-identically to the
        // uninterrupted one — the state really is the same state.
        let mut a = Vec::new();
        let mut b = Vec::new();
        snapshot::write_serial(&uninterrupted, &mut a).unwrap();
        snapshot::write_serial(&restarted, &mut b).unwrap();
        prop_assert_eq!(a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sharded warm restart, shard counts {1, 2, 4}: checkpoint at an
    /// arbitrary epoch boundary, restore onto the same count AND onto a
    /// different one, and every variant finishes the stream with the
    /// exact mate vector (and per-epoch sizes) of the uninterrupted run.
    #[test]
    fn sharded_restore_is_warm_for_every_shard_count(
        g in instance(),
        ops in proptest::collection::vec((0u8..5, 0u32..1_000_000, 0u32..1_000_000, 1u64..=4), 1..24),
        epoch_every in 2usize..8,
        cut_pct in 0usize..=100,
    ) {
        let eps = 0.25;
        let updates = materialize_ops(&g, &ops);
        let chunks: Vec<&[Update]> = updates.chunks(epoch_every).collect();
        let cut_epoch = chunks.len() * cut_pct / 100;

        for &shards in &[1usize, 2, 4] {
            // Re-shard onto a rotated count; also exercise same-count.
            let targets = [shards, match shards { 1 => 2, 2 => 4, _ => 1 }];

            let mut uninterrupted =
                ShardedServeLoop::new(g.clone(), ShardedConfig::for_eps(eps, shards)).unwrap();
            let mut sizes = Vec::new();
            for chunk in &chunks {
                uninterrupted.apply_batch(chunk).unwrap();
                sizes.push(uninterrupted.end_epoch().unwrap().serial.match_size);
            }

            for &target in &targets {
                let mut serve =
                    ShardedServeLoop::new(g.clone(), ShardedConfig::for_eps(eps, shards))
                        .unwrap();
                let mut resumed_sizes = Vec::new();
                for (e, chunk) in chunks.iter().enumerate() {
                    if e == cut_epoch {
                        let mut bytes = Vec::new();
                        snapshot::write_sharded(&mut serve, &mut bytes).unwrap();
                        serve = snapshot::read_sharded(&mut &bytes[..], Some(target))
                            .expect("restore");
                        prop_assert_eq!(serve.shards(), target);
                    }
                    serve.apply_batch(chunk).unwrap();
                    resumed_sizes.push(serve.end_epoch().unwrap().serial.match_size);
                }
                serve.validate().unwrap();
                prop_assert_eq!(
                    &resumed_sizes, &sizes,
                    "{} shards → {} epoch sizes diverged", shards, target
                );
                prop_assert_eq!(
                    serve.assignment().mate, uninterrupted.assignment().mate,
                    "{} shards → {} final matching diverged", shards, target
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Checkpoint while networked: snapshot an engine whose shards are
    /// live worker threads on a transport, restore the bytes onto a
    /// fresh loopback mesh (same and different shard counts), and the
    /// restored engine (a) re-snapshots **byte-identically** — scattering
    /// state to a new mesh is observably free — and (b) finishes the
    /// stream with the exact per-epoch sizes and the exact wire-gathered
    /// matching of the engine that never stopped.
    #[test]
    fn networked_restore_is_warm_and_resnapshot_is_byte_identical(
        g in instance(),
        ops in proptest::collection::vec((0u8..5, 0u32..1_000_000, 0u32..1_000_000, 1u64..=4), 1..24),
        epoch_every in 2usize..8,
        cut_pct in 0usize..=100,
    ) {
        let eps = 0.25;
        let updates = materialize_ops(&g, &ops);
        let chunks: Vec<&[Update]> = updates.chunks(epoch_every).collect();
        let cut_epoch = chunks.len() * cut_pct / 100;

        for &shards in &[2usize, 3] {
            let target = if shards == 2 { 3 } else { 2 };

            let mut uninterrupted = NetServeLoop::new(
                g.clone(), ShardedConfig::for_eps(eps, shards), TransportKind::Loopback,
            ).unwrap();
            let mut sizes = Vec::new();
            for chunk in &chunks {
                uninterrupted.apply_batch(chunk).unwrap();
                sizes.push(uninterrupted.end_epoch().unwrap().inner.serial.match_size);
            }
            let reference = uninterrupted.gather_assignment().unwrap();

            for &restore_shards in &[shards, target] {
                let mut serve = NetServeLoop::new(
                    g.clone(), ShardedConfig::for_eps(eps, shards), TransportKind::Loopback,
                ).unwrap();
                let mut resumed_sizes = Vec::new();
                for (e, chunk) in chunks.iter().enumerate() {
                    if e == cut_epoch {
                        // Mid-stream: checkpoint the live mesh, tear it
                        // down, restore onto a brand-new one.
                        let bytes = serve.checkpoint_bytes().unwrap();
                        let inner = snapshot::read_sharded(
                            &mut &bytes[..], Some(restore_shards),
                        ).expect("restore");
                        serve = NetServeLoop::from_inner(inner, TransportKind::Loopback)
                            .expect("fresh mesh");
                        prop_assert_eq!(serve.shards(), restore_shards);
                        // The restored engine's immediate re-snapshot is
                        // byte-for-byte the original checkpoint (under
                        // the same recorded shard map).
                        if restore_shards == shards {
                            let again = serve.checkpoint_bytes().unwrap();
                            prop_assert_eq!(&bytes, &again, "re-snapshot diverged");
                        }
                    }
                    serve.apply_batch(chunk).unwrap();
                    resumed_sizes.push(serve.end_epoch().unwrap().inner.serial.match_size);
                }
                serve.validate().unwrap();
                prop_assert_eq!(
                    &resumed_sizes, &sizes,
                    "{} → {} workers: epoch sizes diverged", shards, restore_shards
                );
                let gathered = serve.gather_assignment().unwrap();
                prop_assert_eq!(
                    &gathered.mate, &reference.mate,
                    "{} → {} workers: wire-gathered matching diverged", shards, restore_shards
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The write-ahead log's cut-anywhere contract, for ANY proptest-built
    /// record stream: truncating the encoded log at ANY byte yields the
    /// verbatim clean record prefix with the torn tail flagged — never a
    /// panic, never a half-decoded record — and flipping ANY single bit
    /// never smuggles an altered record through (it is either a typed
    /// corruption or, when it lands in the final frame's length words, a
    /// torn tail over the same verbatim prefix).
    #[test]
    fn wal_truncation_is_prefix_consistent_and_corruption_is_typed(
        g in instance(),
        ops in proptest::collection::vec((0u8..5, 0u32..1_000_000, 0u32..1_000_000, 1u64..=4), 1..16),
        epoch_every in 2usize..6,
        cut_pct in 0usize..=100,
        flip_pos in 0usize..1_000_000,
        flip_bit in 0u8..8,
    ) {
        let updates = materialize_ops(&g, &ops);
        let mut w = wal::WalWriter::new(Vec::new());
        for (e, chunk) in updates.chunks(epoch_every).enumerate() {
            w.append_batch(e as u64, chunk).unwrap();
            w.append_epoch_end(e as u64, 0).unwrap();
        }
        w.append_base(updates.len() as u64, 0xfeed).unwrap();
        let bytes = w.into_inner();
        let full = wal::read_wal(&mut &bytes[..]).expect("the untouched log is clean");
        prop_assert!(!full.torn);
        prop_assert_eq!(full.clean_len as usize, bytes.len());

        // Cut anywhere: a verbatim record prefix, torn iff mid-record.
        let cut = bytes.len() * cut_pct / 100;
        let cut_log = wal::read_wal(&mut &bytes[..cut]).expect("truncation is never corruption");
        prop_assert!(cut_log.records.len() <= full.records.len());
        prop_assert_eq!(
            &cut_log.records[..], &full.records[..cut_log.records.len()],
            "the surviving prefix must be verbatim"
        );
        prop_assert!(cut_log.clean_len as usize <= cut);
        prop_assert_eq!(cut_log.torn, cut_log.clean_len as usize != cut);

        // Flip any single bit: typed corruption, or a torn tail / strict
        // prefix — never a successful parse of altered content.
        let mut flipped = bytes.clone();
        let pos = flip_pos % flipped.len();
        flipped[pos] ^= 1 << flip_bit;
        match wal::read_wal(&mut &flipped[..]) {
            Err(wal::WalError::Corrupt { .. }) => {}
            Err(e) => prop_assert!(false, "flip at byte {} surfaced as {}", pos, e),
            Ok(r) => {
                prop_assert!(r.records.len() < full.records.len());
                prop_assert_eq!(
                    &r.records[..], &full.records[..r.records.len()],
                    "a bit flip must never alter a surviving record"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// End-to-end crash recovery ≡ uninterrupted, over shard counts
    /// {1, 2, 4, 7}: a supervised net engine logs every batch to a WAL,
    /// cuts one base checkpoint mid-stream, absorbs a proptest-chosen
    /// transport fault in a proptest-chosen later batch (respawn +
    /// re-INIT), then "crashes" at the end of the stream; a fresh engine
    /// restored from `base + log tail` carries the exact mate vector of
    /// an uninterrupted serial run over the same stream.
    #[test]
    fn recovery_equals_uninterrupted_for_every_shard_count(
        g in instance(),
        ops in proptest::collection::vec((0u8..5, 0u32..1_000_000, 0u32..1_000_000, 1u64..=4), 4..20),
        epoch_every in 2usize..6,
        fault_pick in 0usize..4,
        fault_pct in 0usize..=100,
    ) {
        use sparse_alloc::dynamic::SupervisorConfig;
        use sparse_alloc::mpc::transport::Fault;
        let eps = 0.25;
        let updates = materialize_ops(&g, &ops);
        let chunks: Vec<&[Update]> = updates.chunks(epoch_every).collect();
        let base_epoch = (chunks.len() / 2).max(1);
        let fault_epoch = ((chunks.len() - 1) * fault_pct / 100).min(chunks.len() - 1);
        let fault = match fault_pick {
            0 => Fault::Drop,
            1 => Fault::Truncate,
            2 => Fault::FlipBit { bit: 170 },
            _ => Fault::Reorder,
        };

        let cfg = ShardedConfig::for_eps(eps, 1);
        let mut serial = ServeLoop::new(g.clone(), cfg.dynamic);
        drive(&mut serial, chunks.iter().copied()).unwrap();

        for &shards in &[1usize, 2, 4, 7] {
            let dir = std::env::temp_dir();
            let pid = std::process::id();
            let wal_path = dir.join(format!("salloc-prop-wal-{pid}-{shards}.log"));
            let base_path = dir.join(format!("salloc-prop-base-{pid}-{shards}.bin"));

            let mut net = NetServeLoop::new(
                g.clone(), ShardedConfig::for_eps(eps, shards), TransportKind::Loopback,
            ).unwrap();
            net.set_recv_timeout(std::time::Duration::from_millis(100)).unwrap();
            net.set_supervisor(SupervisorConfig {
                max_respawns: 3,
                retry_budget: 1,
            });
            let mut writer = wal::WalWriter::create(&wal_path).unwrap();
            for (e, chunk) in chunks.iter().enumerate() {
                if e == fault_epoch {
                    net.inject_fault(1.min(shards - 1), fault.clone());
                }
                net.run_epoch(chunk, Some(&mut writer)).unwrap();
                if e + 1 == base_epoch {
                    net.checkpoint(&base_path, Some(&mut writer)).unwrap();
                }
            }
            prop_assert!(
                net.net_stats().respawns >= 1,
                "{} shards / {:?}: the fault must have tripped a respawn", shards, fault
            );
            prop_assert!(net.quarantine_reason().is_none());
            drop(net); // the "crash"

            let mut recovered = snapshot::load_sharded(&base_path, Some(shards)).unwrap();
            let log = wal::read_wal_file(&wal_path).unwrap();
            prop_assert!(!log.torn, "fsynced appends leave no torn tail");
            wal::replay(&mut recovered, &log.records[log.tail_start()..]).unwrap();
            recovered.validate().unwrap();
            prop_assert_eq!(
                recovered.assignment().mate, serial.assignment().mate,
                "{} shards / {:?}: recovery diverged from the uninterrupted run",
                shards, fault
            );

            let _ = std::fs::remove_file(&wal_path);
            let _ = std::fs::remove_file(&base_path);
        }
    }
}
