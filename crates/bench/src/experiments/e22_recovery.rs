//! E22 — self-healing serving: supervised recovery and crash replay.
//!
//! E21 proves the networked engine serves correctly on a *healthy* wire.
//! This experiment measures what the robustness layer costs when the
//! wire is NOT healthy, and when the whole coordinator dies:
//!
//! 1. **Supervised recovery.** The E21 instance is served over loopback
//!    with a write-ahead log attached and a supervisor armed. A bit-flip
//!    fault is injected mid-stream; the supervisor must absorb it
//!    (rebuild the mesh on fresh channels and worker threads, re-scatter
//!    state, retry the exchange) and the run must end in exactly the
//!    serial state.
//!    Reported: respawn count, transient retries, bytes re-scattered,
//!    and the mean in-band recovery latency.
//!
//! 2. **Crash replay.** After the run, the engine is dropped cold — the
//!    crash — and a fresh engine is rebuilt from `last base snapshot +
//!    WAL tail`. Every checkpoint is a full base, so the tail is what
//!    follows the last one: here one base is cut, after epoch 1, and
//!    the replay re-runs the 3 epochs after it. Reported: replay
//!    latency and the recovered-vs-serial verdict (must be verbatim
//!    equal).
//!
//! 3. **Durability overhead.** The WAL's amortized bytes per logged
//!    update, and the full snapshot's size (what each periodic
//!    checkpoint writes).
//!
//! A `BENCH_recovery.json` record is emitted, carrying its provenance
//! (`nproc`, `profile`, `git_rev`); `ci.sh` gates on the recovery
//! verdict and the WAL amortized cost.

use std::time::Instant;

use sparse_alloc_dynamic::adapter::{churn_stream, ChurnMix};
use sparse_alloc_dynamic::engine::drive;
use sparse_alloc_dynamic::{
    snapshot, wal, Engine, NetServeLoop, ServeLoop, ShardedConfig, SupervisorConfig, TransportKind,
    WalWriter,
};
use sparse_alloc_graph::generators::union_of_spanning_trees;
use sparse_alloc_mpc::transport::Fault;

use super::phase_latency_json;
use crate::table::{f1, f3, json_object, json_str, provenance, Table};

const EPS: f64 = 0.25;
const EPOCHS: usize = 4;
const CHURN: f64 = 0.005; // events per epoch as a fraction of m
const SHARDS: usize = 4;
const FAULT_EPOCH: usize = 2; // 1-based epoch the fault lands in
const BASE_EPOCH: usize = 1; // 1-based epoch the base snapshot is cut at

/// Run E22 and print its tables.
pub fn run() {
    println!("E22 — self-healing serving: supervised recovery and crash replay");
    let gen = union_of_spanning_trees(65_000, 50_000, 4, 2, 29);
    let g = gen.graph;
    let (n, m) = (g.n(), g.m());
    println!(
        "instance: {} (n = {n}, m = {m}, λ ≤ {}; ε = {EPS}, {SHARDS} workers, \
         {EPOCHS} epochs at {:.1}% churn; FlipBit into worker 1 before epoch {FAULT_EPOCH})",
        gen.family,
        gen.lambda_upper,
        CHURN * 100.0
    );

    let events_per_epoch = ((m as f64) * CHURN).round().max(1.0) as usize;
    let updates = churn_stream(&g, EPOCHS * events_per_epoch, &ChurnMix::default(), 31);
    let logged_updates = (updates.chunks(events_per_epoch).take(EPOCHS))
        .map(|c| c.len() as u64)
        .sum::<u64>();

    // Serial reference under the identical engine config.
    let mut serial = ServeLoop::new(g.clone(), ShardedConfig::for_eps(EPS, SHARDS).dynamic);
    let batches = updates.chunks(events_per_epoch).take(EPOCHS);
    drive(&mut serial, batches).expect("serial serving cannot fail");
    let serial_mate = serial.assignment().mate;
    let serial_size = serial.match_size();

    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let wal_path = dir.join(format!("salloc-e22-wal-{pid}.log"));
    let base_path = dir.join(format!("salloc-e22-base-{pid}.bin"));

    // ---- the faulted, supervised, logged run -------------------------
    let mut serve = NetServeLoop::new(
        g.clone(),
        ShardedConfig::for_eps(EPS, SHARDS),
        TransportKind::Loopback,
    )
    .expect("networked engine starts within budget");
    serve.set_supervisor(SupervisorConfig {
        max_respawns: 3,
        retry_budget: 1,
    });
    let mut writer = WalWriter::create(&wal_path).expect("fresh log");

    let mut t = Table::new(&["epoch", "epoch-ms", "wal-bytes", "note"]);
    let mut full_bytes = 0u64;
    for (e, chunk) in updates.chunks(events_per_epoch).take(EPOCHS).enumerate() {
        if e + 1 == FAULT_EPOCH {
            serve.inject_fault(1, Fault::FlipBit { bit: 170 });
        }
        let t0 = Instant::now();
        serve
            .run_epoch(chunk, Some(&mut writer))
            .expect("supervisor absorbs the fault and the epoch closes");
        let note = if e + 1 == BASE_EPOCH {
            serve
                .checkpoint(&base_path, Some(&mut writer))
                .expect("base checkpoint");
            full_bytes = std::fs::metadata(&base_path)
                .map(|md| md.len())
                .unwrap_or(0);
            format!("base snapshot ({full_bytes} B)")
        } else if e + 1 == FAULT_EPOCH {
            "fault absorbed".to_string()
        } else {
            String::new()
        };
        t.row(vec![
            (e + 1).to_string(),
            f1(t0.elapsed().as_secs_f64() * 1e3),
            writer.bytes_appended().to_string(),
            note,
        ]);
    }
    t.print();

    let stats = serve.net_stats();
    assert!(stats.respawns >= 1, "the fault must have cost a respawn");
    assert!(
        serve.quarantine_reason().is_none(),
        "the budget must not have exhausted"
    );
    let gathered = serve.gather_assignment().expect("gather after recovery");
    let survived_equal = gathered.mate == serial_mate;
    assert!(survived_equal, "recovered run diverged from serial");
    let wal_total = writer.bytes_appended();
    let respawn_ms = stats.recovery_ns as f64 / 1e6;
    let mut phase_reg = sparse_alloc_obs::Registry::new();
    phase_reg.merge(serve.obs());

    // ---- the crash, and replay from base + tail ----------------------
    drop(serve);
    let t0 = Instant::now();
    let mut recovered = snapshot::load_sharded(&base_path, Some(SHARDS)).expect("base loads");
    let log = wal::read_wal_file(&wal_path).expect("log reads clean");
    let replayed =
        wal::replay(&mut recovered, &log.records[log.tail_start()..]).expect("tail replays");
    let replay_ms = t0.elapsed().as_secs_f64() * 1e3;
    let replay_equal = recovered.assignment().mate == serial_mate;
    assert!(replay_equal, "crash replay diverged from serial");

    let wal_per_update = wal_total as f64 / logged_updates.max(1) as f64;
    println!(
        "  in-band recovery: {} respawn(s), {} transient retries, {} bytes re-scattered, \
         {:.2} ms total",
        stats.respawns, stats.retries, stats.replayed_bytes, respawn_ms
    );
    println!(
        "  crash replay: {} batches / {} updates over {} epochs in {:.2} ms — recovered \
         allocation equals serial: {}",
        replayed.batches,
        replayed.updates,
        replayed.epochs,
        replay_ms,
        if replay_equal { "PASS" } else { "FAIL" }
    );
    println!(
        "  durability cost: {wal_total} WAL bytes for {logged_updates} updates \
         ({wal_per_update:.1} B/update amortized); full snapshot {full_bytes} B"
    );

    let mut fields = vec![("experiment", json_str("e22_recovery"))];
    fields.extend(provenance());
    fields.extend([
        ("n", n.to_string()),
        ("m", m.to_string()),
        ("eps", EPS.to_string()),
        ("shards", SHARDS.to_string()),
        ("epochs", EPOCHS.to_string()),
        ("events_per_epoch", events_per_epoch.to_string()),
        ("fault", json_str("flipbit@2")),
        ("respawns", stats.respawns.to_string()),
        ("retries", stats.retries.to_string()),
        ("replayed_bytes", stats.replayed_bytes.to_string()),
        ("respawn_recovery_ms", f3(respawn_ms)),
        ("replay_ms", f3(replay_ms)),
        ("replayed_batches", replayed.batches.to_string()),
        ("replayed_updates", replayed.updates.to_string()),
        ("wal_bytes", wal_total.to_string()),
        ("wal_bytes_per_update", f3(wal_per_update)),
        ("full_snapshot_bytes", full_bytes.to_string()),
        ("phase_latency_us", phase_latency_json(&phase_reg)),
        ("matched", serial_size.to_string()),
        ("survived_equal_serial", survived_equal.to_string()),
        ("replay_equal_serial", replay_equal.to_string()),
    ]);
    let record = json_object(&fields);
    match std::fs::write("BENCH_recovery.json", format!("{record}\n")) {
        Ok(()) => println!("  wrote BENCH_recovery.json"),
        Err(e) => println!("  could not write BENCH_recovery.json: {e}"),
    }
    let _ = std::fs::remove_file(&wal_path);
    let _ = std::fs::remove_file(&base_path);
}
