//! E23 — peer-to-peer repair waves: worker↔worker traffic vs the star.
//!
//! E21 put the shard workers on a real transport, but kept the repair
//! waves on the coordinator: workers held verified mirrors, and every
//! repair's row changes crossed the spokes twice (commit + mirror).
//! The p2p engine (`NetServeLoop::new_p2p`) ships each wave to the
//! shard worker owning its footprint, runs the bounded walks *there*,
//! and lets walks that cross a shard boundary hand their state directly
//! over worker↔worker links — the coordinator shrinks to scheduling and
//! epoch barriers.
//!
//! This experiment drives the E21 instance through the same churn
//! stream on both meshes over loopback and reports, per epoch, the p2p
//! engine's handoff traffic (worker↔worker bytes and frames, deepest
//! fetch ping-pong) next to the spoke bytes both engines moved. The
//! headline checks, both gated by `ci.sh` via `BENCH_p2p.json`:
//!
//! * **p2p ≡ serial** — the allocation gathered from the worker slices
//!   over the wire equals the uninterrupted serial engine's verbatim;
//! * **coordinator relief** — the coordinator's commit-phase mirror
//!   bytes drop strictly below the star's on the identical workload
//!   (repair state still moves, but worker↔worker, metered under
//!   `net_handoff`).
//!
//! It also records the wave dispatch cost: `p2p_wave_bytes` (gated by
//! `ci.sh` at a quarter of the 162,343,716 bytes waves moved before
//! workers cached footprint topology), the topology rows shipped, and
//! the words the workers' topology caches hold.
//!
//! The handoff columns (`p2p_handoff_bytes`, `p2p_handoff_frames`) vary
//! run to run on one tree: the fetch frontier a plan builds depends on
//! when concurrent workers' flips land. Only the wave bytes and the
//! served allocations are exact across runs and builds.

use std::time::Instant;

use sparse_alloc_dynamic::adapter::{churn_stream, ChurnMix};
use sparse_alloc_dynamic::engine::drive;
use sparse_alloc_dynamic::{NetServeLoop, ServeLoop, ShardedConfig, TransportKind};
use sparse_alloc_graph::generators::union_of_spanning_trees;

use crate::table::{f1, f3, json_object, json_str, provenance, Table};

const EPS: f64 = 0.25;
const EPOCHS: usize = 3;
const CHURN: f64 = 0.005; // events per epoch as a fraction of m
const SHARDS: usize = 4;

/// Run E23 and print its tables.
pub fn run() {
    println!("E23 — peer-to-peer repair waves vs the star mesh");
    let gen = union_of_spanning_trees(65_000, 50_000, 4, 2, 29);
    let g = gen.graph;
    let (n, m) = (g.n(), g.m());
    println!(
        "instance: {} (n = {n}, m = {m}, λ ≤ {}; ε = {EPS}, {SHARDS} workers, \
         {EPOCHS} epochs at {:.1}% churn, loopback)",
        gen.family,
        gen.lambda_upper,
        CHURN * 100.0
    );

    let events_per_epoch = ((m as f64) * CHURN).round().max(1.0) as usize;
    let updates = churn_stream(&g, EPOCHS * events_per_epoch, &ChurnMix::default(), 31);

    // Serial reference under the identical engine config.
    let mut serial = ServeLoop::new(g.clone(), ShardedConfig::for_eps(EPS, SHARDS).dynamic);
    let batches = updates.chunks(events_per_epoch).take(EPOCHS);
    drive(&mut serial, batches).expect("serial serving cannot fail");
    let serial_mate = serial.assignment().mate;

    let mut t = Table::new(&[
        "mesh",
        "epoch",
        "epoch-ms",
        "spoke-bytes",
        "commit-bytes",
        "wave-bytes",
        "handoff-bytes",
        "handoff-frames",
        "max-rounds",
        "topo-rows",
    ]);
    let mut stats = Vec::new(); // (name, final NetStats, total ms, equal)
    for (name, p2p) in [("star", false), ("p2p", true)] {
        let cfg = ShardedConfig::for_eps(EPS, SHARDS);
        let mut serve = if p2p {
            NetServeLoop::new_p2p(g.clone(), cfg, TransportKind::Loopback)
        } else {
            NetServeLoop::new(g.clone(), cfg, TransportKind::Loopback)
        }
        .expect("networked engine starts within budget");
        let mut ms_sum = 0.0f64;
        let mut prev = serve.net_stats();
        for (e, chunk) in updates.chunks(events_per_epoch).take(EPOCHS).enumerate() {
            let t0 = Instant::now();
            serve.apply_batch(chunk).expect("batch within budget");
            serve.end_epoch().expect("epoch within budget");
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            ms_sum += ms;
            let s = serve.net_stats();
            t.row(vec![
                name.into(),
                (e + 1).to_string(),
                f1(ms),
                (s.bytes_sent + s.bytes_received - prev.bytes_sent - prev.bytes_received)
                    .to_string(),
                (s.commit_bytes - prev.commit_bytes).to_string(),
                (s.wave_bytes - prev.wave_bytes).to_string(),
                (s.handoff_bytes - prev.handoff_bytes).to_string(),
                (s.handoff_frames - prev.handoff_frames).to_string(),
                s.max_handoff_rounds.to_string(),
                (s.topology_rows_shipped - prev.topology_rows_shipped).to_string(),
            ]);
            prev = s;
        }
        let gathered = serve
            .gather_assignment()
            .expect("gather over a healthy mesh");
        let equal = gathered.mate == serial_mate;
        assert!(
            equal,
            "{name}: wire-gathered allocation diverged from serial"
        );
        stats.push((name, serve.net_stats(), ms_sum, equal));
    }
    t.print();

    let star = &stats[0].1;
    let p2p = &stats[1].1;
    let commit_reduction = star.commit_bytes as f64 / p2p.commit_bytes.max(1) as f64;
    println!(
        "  correctness: wire-gathered allocations equal serial on both meshes — {}",
        if stats.iter().all(|s| s.3) {
            "PASS"
        } else {
            "FAIL"
        }
    );
    println!(
        "  coordinator relief: commit mirror bytes {} (star) → {} (p2p), {:.2}× less; \
         repair state now moves worker↔worker ({} handoff bytes in {} frames, deepest \
         fetch ping-pong {} rounds — bounded by the walk radius).",
        star.commit_bytes,
        p2p.commit_bytes,
        commit_reduction,
        p2p.handoff_bytes,
        p2p.handoff_frames,
        p2p.max_handoff_rounds
    );
    println!(
        "  shape: the star commits every repair's row changes over the spokes; p2p folds \
         them from wave acks and commits only the structural remainder, so the spokes \
         carry scheduling + barriers while the walks' data dependencies ride the mesh. \
         Workers cache footprint topology across waves, so a wave frame names its rows \
         by id and ships only the rows a worker lacks or holds stale ({} rows shipped, \
         {} words resident on the workers at the last census); each wave is still a \
         lockstep spoke round-trip with per-plan handoff rounds (see ROADMAP).",
        p2p.topology_rows_shipped, p2p.topology_cache_words
    );

    let (star_ms, p2p_ms) = (stats[0].2, stats[1].2);
    println!(
        "  wall: p2p {p2p_ms:.1} ms vs star {star_ms:.1} ms over {EPOCHS} epochs \
         (p2p_over_star {:.2}).",
        p2p_ms / star_ms
    );
    let mut fields = vec![("experiment", json_str("e23_p2p"))];
    fields.extend(provenance());
    fields.extend([
        ("n", n.to_string()),
        ("m", m.to_string()),
        ("eps", EPS.to_string()),
        ("shards", SHARDS.to_string()),
        ("epochs", EPOCHS.to_string()),
        ("events_per_epoch", events_per_epoch.to_string()),
        ("star_commit_bytes", star.commit_bytes.to_string()),
        ("p2p_commit_bytes", p2p.commit_bytes.to_string()),
        ("commit_reduction", f3(commit_reduction)),
        ("p2p_wave_bytes", p2p.wave_bytes.to_string()),
        ("p2p_handoff_bytes", p2p.handoff_bytes.to_string()),
        ("p2p_handoff_frames", p2p.handoff_frames.to_string()),
        ("p2p_max_handoff_rounds", p2p.max_handoff_rounds.to_string()),
        (
            "p2p_topology_rows_shipped",
            p2p.topology_rows_shipped.to_string(),
        ),
        (
            "p2p_topology_cache_words",
            p2p.topology_cache_words.to_string(),
        ),
        ("star_serve_ms", f1(star_ms)),
        ("p2p_serve_ms", f1(p2p_ms)),
        ("p2p_over_star", f3(p2p_ms / star_ms)),
        (
            "commit_bytes_below_star",
            (p2p.commit_bytes < star.commit_bytes).to_string(),
        ),
        (
            "handoffs_nonzero",
            (p2p.handoff_bytes > 0 && p2p.handoff_frames > 0).to_string(),
        ),
        ("p2p_equal_serial", stats.iter().all(|s| s.3).to_string()),
    ]);
    let record = json_object(&fields);
    match std::fs::write("BENCH_p2p.json", format!("{record}\n")) {
        Ok(()) => println!("  wrote BENCH_p2p.json"),
        Err(e) => println!("  could not write BENCH_p2p.json: {e}"),
    }
}
