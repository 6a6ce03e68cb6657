//! E20 — persistence: snapshot size and save/restore latency, with a
//! warm-restart fidelity check at scale.
//!
//! The snapshot subsystem's operational claim is that a serving process
//! restarts **warm** instead of replaying its update history: the
//! levels + matching + overlay triple is a compact certificate of
//! everything the history did, so persisting it costs `O(n + m)` bytes
//! and a restore costs one read — not a re-solve, not a replay. This
//! experiment drives the e18/e19 workload (n > 10⁵) two epochs in, snaps
//! both engines, restores (the sharded one onto a *different* shard
//! count), runs one more epoch on the original and the restored engine,
//! and checks the mate vectors agree exactly. It records snapshot bytes
//! and save/restore wall time to `BENCH_persistence.json`.
//!
//! Criterion (gated in `ci.sh`): exact warm-restart fidelity, with the
//! serial snapshot no larger than `SIZE_CRITERION` bytes per word of
//! live state (`2·n_L + 2·n_R + m` — the same resident-state measure the
//! sharded space budget uses). Latency is recorded but not gated: it is
//! host-dependent, while bytes-per-word is not.

use std::time::Instant;

use sparse_alloc_dynamic::adapter::{churn_stream, ChurnMix};
use sparse_alloc_dynamic::engine::drive;
use sparse_alloc_dynamic::{snapshot, ServeLoop, ShardedConfig, ShardedServeLoop};
use sparse_alloc_graph::generators::union_of_spanning_trees;
use sparse_alloc_obs::Registry;

use super::phase_latency_json;
use crate::table::{f1, f3, json_object, json_str, provenance, Table};

const EPS: f64 = 0.25;
const CHURN: f64 = 0.005; // events per epoch as a fraction of m
const EPOCHS_BEFORE: usize = 2; // served before the checkpoint
const EPOCHS_AFTER: usize = 1; // served after the restore, on both engines

/// Size gate: snapshot bytes per word of live state (`2·n_L + 2·n_R + m`).
/// The payload is ~4 bytes per CSR edge plus ~8–16 per vertex of levels,
/// capacities, and matching — ~5 bytes/word on the e18 workload — so 12
/// flags a format regression (accidental duplication, bloated sections)
/// without tripping on instance shape.
const SIZE_CRITERION: f64 = 12.0;

/// Run E20 and print its tables.
pub fn run() {
    println!("E20 — persistence: snapshot size, save/restore latency, warm-restart fidelity");
    let gen = union_of_spanning_trees(65_000, 50_000, 4, 2, 29);
    let g = gen.graph;
    let (n, m) = (g.n(), g.m());
    let state_words = 2 * g.n_left() + 2 * g.n_right() + g.m();
    println!(
        "instance: {} (n = {n}, m = {m}, λ ≤ {}; ε = {EPS}, checkpoint after \
         {EPOCHS_BEFORE} epochs at {:.1}% churn, {EPOCHS_AFTER} epoch after restore)",
        gen.family,
        gen.lambda_upper,
        CHURN * 100.0
    );

    let events_per_epoch = ((m as f64) * CHURN).round().max(1.0) as usize;
    let total_epochs = EPOCHS_BEFORE + EPOCHS_AFTER;
    let updates = churn_stream(
        &g,
        total_epochs * events_per_epoch,
        &ChurnMix::default(),
        31,
    );
    let chunks: Vec<_> = updates
        .chunks(events_per_epoch)
        .take(total_epochs)
        .collect();
    let (before, after) = chunks.split_at(EPOCHS_BEFORE);

    let mut t = Table::new(&[
        "engine",
        "bytes",
        "B/word",
        "save-ms",
        "restore-ms",
        "fidelity",
    ]);

    // --- serial -----------------------------------------------------
    let mut serial = ServeLoop::new(g.clone(), ShardedConfig::for_eps(EPS, 2).dynamic);
    drive(&mut serial, before.iter().copied()).expect("serial serving cannot fail");
    let t0 = Instant::now();
    let mut serial_bytes = Vec::new();
    snapshot::write_serial(&serial, &mut serial_bytes).expect("serial checkpoint");
    let serial_save_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let mut serial_restored = snapshot::read_serial(&mut &serial_bytes[..]).expect("restore");
    let serial_restore_ms = t1.elapsed().as_secs_f64() * 1e3;
    for engine in [&mut serial, &mut serial_restored] {
        drive(engine, after.iter().copied()).expect("serial serving cannot fail");
    }
    let serial_fidelity = serial.assignment().mate == serial_restored.assignment().mate;
    assert!(serial_fidelity, "serial warm restart diverged");
    let serial_bpw = serial_bytes.len() as f64 / state_words as f64;
    t.row(vec![
        "serial".into(),
        serial_bytes.len().to_string(),
        f3(serial_bpw),
        f1(serial_save_ms),
        f1(serial_restore_ms),
        serial_fidelity.to_string(),
    ]);

    // --- sharded (2 shards, restored onto 4) ------------------------
    let mut sharded = ShardedServeLoop::new(g.clone(), ShardedConfig::for_eps(EPS, 2))
        .expect("initial state fits the space budget");
    drive(&mut sharded, before.iter().copied()).expect("epochs within budget");
    let t2 = Instant::now();
    let mut sharded_bytes = Vec::new();
    snapshot::write_sharded(&mut sharded, &mut sharded_bytes).expect("sharded checkpoint");
    let sharded_save_ms = t2.elapsed().as_secs_f64() * 1e3;
    let t3 = Instant::now();
    let mut resharded =
        snapshot::read_sharded(&mut &sharded_bytes[..], Some(4)).expect("re-shard restore");
    let sharded_restore_ms = t3.elapsed().as_secs_f64() * 1e3;
    assert_eq!(resharded.shards(), 4);
    for engine in [&mut sharded, &mut resharded] {
        drive(engine, after.iter().copied()).expect("epochs within budget");
    }
    let sharded_fidelity = sharded.assignment().mate == resharded.assignment().mate;
    assert!(sharded_fidelity, "re-sharded warm restart diverged");
    let sharded_bpw = sharded_bytes.len() as f64 / state_words as f64;
    t.row(vec![
        "2 shards → 4".into(),
        sharded_bytes.len().to_string(),
        f3(sharded_bpw),
        f1(sharded_save_ms),
        f1(sharded_restore_ms),
        sharded_fidelity.to_string(),
    ]);
    t.print();

    // Phase latency across the pre-checkpoint and post-restore drives of
    // all four engines (the restored pair's registries start empty, so
    // their spans cover exactly the warm part of the run).
    let mut phase_reg = Registry::new();
    phase_reg.merge(serial.obs());
    phase_reg.merge(serial_restored.obs());
    phase_reg.merge(sharded.obs());
    phase_reg.merge(resharded.obs());

    let size_ok = serial_bpw <= SIZE_CRITERION && sharded_bpw <= SIZE_CRITERION;
    let pass = serial_fidelity && sharded_fidelity && size_ok;
    println!(
        "  criterion: exact fidelity (serial + re-sharded) and ≤ {SIZE_CRITERION} snapshot \
         bytes per live-state word (serial {serial_bpw:.2}, sharded {sharded_bpw:.2}) — {}",
        if pass { "PASS" } else { "FAIL" }
    );

    let mut fields = vec![("experiment", json_str("e20_persistence"))];
    fields.extend(provenance());
    fields.extend([
        ("n", n.to_string()),
        ("m", m.to_string()),
        ("eps", EPS.to_string()),
        ("events_per_epoch", events_per_epoch.to_string()),
        ("epochs_before_checkpoint", EPOCHS_BEFORE.to_string()),
        ("epochs_after_restore", EPOCHS_AFTER.to_string()),
        ("state_words", state_words.to_string()),
        ("serial_bytes", serial_bytes.len().to_string()),
        ("serial_bytes_per_word", f3(serial_bpw)),
        ("serial_save_ms", f1(serial_save_ms)),
        ("serial_restore_ms", f1(serial_restore_ms)),
        ("sharded_bytes", sharded_bytes.len().to_string()),
        ("sharded_bytes_per_word", f3(sharded_bpw)),
        ("sharded_save_ms", f1(sharded_save_ms)),
        ("sharded_restore_ms", f1(sharded_restore_ms)),
        ("reshard", json_str("2 -> 4")),
        ("fidelity_serial", serial_fidelity.to_string()),
        ("fidelity_resharded", sharded_fidelity.to_string()),
        ("size_criterion_bytes_per_word", SIZE_CRITERION.to_string()),
        ("phase_latency_us", phase_latency_json(&phase_reg)),
        ("pass", pass.to_string()),
    ]);
    let record = json_object(&fields);
    match std::fs::write("BENCH_persistence.json", format!("{record}\n")) {
        Ok(()) => println!("  wrote BENCH_persistence.json"),
        Err(e) => println!("  could not write BENCH_persistence.json: {e}"),
    }
}
