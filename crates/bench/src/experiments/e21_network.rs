//! E21 — networked serving: measured wire bytes vs simulated words.
//!
//! E18 establishes that the *simulated* sharded engine is equivalent to
//! serial and meters its communication in model words. The networked
//! engine (`sparse_alloc_dynamic::net`) closes the remaining gap to a
//! real deployment: shard workers are actual threads holding their own
//! state slices, and every epoch phase is an exchange of checksummed
//! frames over a real transport — in-process loopback and framed TCP.
//!
//! This experiment drives the E18 instance (`n > 10^5`) through the same
//! churn stream over both transports and reports, per epoch, the
//! **measured** wire bytes next to the ledger's **simulated** words, the
//! resulting bytes-per-word framing overhead, and epoch latency. The
//! headline check is end-to-end correctness on the wire: the final
//! allocation is *gathered from the worker slices over the transport*
//! and must equal the serial engine's mate vector verbatim, on both
//! transports. A `BENCH_network.json` record is emitted, carrying its
//! provenance (`nproc`, `profile`, `git_rev`); `ci.sh` gates on the
//! equivalence line.

use std::time::Instant;

use sparse_alloc_dynamic::adapter::{churn_stream, ChurnMix};
use sparse_alloc_dynamic::engine::drive;
use sparse_alloc_dynamic::{NetServeLoop, ServeLoop, ShardedConfig, TransportKind};
use sparse_alloc_graph::generators::union_of_spanning_trees;
use sparse_alloc_obs::Registry;

use super::phase_latency_json;
use crate::table::{f1, f3, json_object, json_str, provenance, Table};

const EPS: f64 = 0.25;
const EPOCHS: usize = 3;
const CHURN: f64 = 0.005; // events per epoch as a fraction of m
const SHARDS: usize = 4;

/// Run E21 and print its tables.
pub fn run() {
    println!("E21 — networked serving: wire bytes vs simulated words");
    let gen = union_of_spanning_trees(65_000, 50_000, 4, 2, 29);
    let g = gen.graph;
    let (n, m) = (g.n(), g.m());
    println!(
        "instance: {} (n = {n}, m = {m}, λ ≤ {}; ε = {EPS}, {SHARDS} workers, \
         {EPOCHS} epochs at {:.1}% churn)",
        gen.family,
        gen.lambda_upper,
        CHURN * 100.0
    );

    let events_per_epoch = ((m as f64) * CHURN).round().max(1.0) as usize;
    let updates = churn_stream(&g, EPOCHS * events_per_epoch, &ChurnMix::default(), 31);

    // Serial reference under the identical engine config (equivalence is
    // per-config; the sharded default lowers the eager walk budget).
    let mut serial = ServeLoop::new(g.clone(), ShardedConfig::for_eps(EPS, SHARDS).dynamic);
    let batches = updates.chunks(events_per_epoch).take(EPOCHS);
    drive(&mut serial, batches).expect("serial serving cannot fail");
    let serial_mate = serial.assignment().mate;
    let serial_size = serial.match_size();

    let kinds = [
        ("loopback", TransportKind::Loopback),
        ("tcp", TransportKind::Tcp),
    ];
    let mut t = Table::new(&[
        "transport",
        "epoch",
        "epoch-ms",
        "wire-bytes",
        "frames",
        "sim-words",
        "wire-words",
        "bytes/word",
    ]);
    let mut total_bytes = Vec::new();
    let mut total_ms = Vec::new();
    let mut overheads = Vec::new();
    let mut all_equal = true;
    let mut phase_reg = Registry::new();
    let mut peer_lines = Vec::new();
    for (name, kind) in kinds {
        let mut serve = NetServeLoop::new(g.clone(), ShardedConfig::for_eps(EPS, SHARDS), kind)
            .expect("networked engine starts within budget");
        let mut bytes = 0u64;
        let mut ms_sum = 0.0f64;
        let mut sim_before = 0u64;
        for (e, chunk) in updates.chunks(events_per_epoch).take(EPOCHS).enumerate() {
            let t0 = Instant::now();
            serve.apply_batch(chunk).expect("batch within budget");
            let rep = serve.end_epoch().expect("epoch within budget");
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            ms_sum += ms;
            bytes += rep.wire_bytes;
            // Split the shared ledger into the simulator's word phases
            // and the measured net_* wire phases.
            let (mut sim, mut wire) = (0u64, 0u64);
            for r in &serve.ledger().history {
                if r.label.starts_with("net_") {
                    wire += r.words_moved;
                } else {
                    sim += r.words_moved;
                }
            }
            let sim_epoch = sim - sim_before;
            sim_before = sim;
            let _ = wire; // cumulative; the per-epoch figure is rep.wire_bytes
            t.row(vec![
                name.into(),
                (e + 1).to_string(),
                f1(ms),
                rep.wire_bytes.to_string(),
                rep.wire_frames.to_string(),
                sim_epoch.to_string(),
                rep.wire_bytes.div_ceil(8).to_string(),
                f3(rep.wire_bytes as f64 / (8 * sim_epoch.max(1)) as f64),
            ]);
        }
        // The headline: the allocation *on the wire* equals serial.
        let gathered = serve
            .gather_assignment()
            .expect("gather over a healthy mesh");
        let equal = gathered.mate == serial_mate;
        all_equal &= equal;
        assert!(
            equal,
            "{name}: wire-gathered allocation diverged from serial"
        );
        let sim_words: u64 = serve
            .ledger()
            .history
            .iter()
            .filter(|r| !r.label.starts_with("net_"))
            .map(|r| r.words_moved)
            .sum();
        overheads.push(bytes as f64 / (8 * sim_words.max(1)) as f64);
        total_bytes.push(bytes);
        total_ms.push(ms_sum);
        phase_reg.merge(serve.obs());
        for p in &serve.metrics_snapshot().peers {
            peer_lines.push(json_object(&[
                ("transport", json_str(name)),
                ("peer", p.peer.to_string()),
                ("bytes_sent", p.bytes_sent.to_string()),
                ("bytes_received", p.bytes_received.to_string()),
                ("frames_sent", p.frames_sent.to_string()),
                ("frames_received", p.frames_received.to_string()),
            ]));
        }
    }
    t.print();

    // Where the wall time goes on the wire: net_* phases (frame
    // round-trips) next to the simulator phases, merged over transports.
    let mut pt = Table::new(&["phase", "spans", "p50-µs", "p99-µs", "max-µs"]);
    for p in sparse_alloc_obs::Phase::ALL {
        let h = phase_reg.phase(p);
        if h.is_empty() {
            continue;
        }
        pt.row(vec![
            p.label().to_string(),
            h.count().to_string(),
            f1(h.quantile(0.50) as f64 / 1e3),
            f1(h.quantile(0.99) as f64 / 1e3),
            f1(h.max() as f64 / 1e3),
        ]);
    }
    pt.print();

    println!(
        "  correctness: wire-gathered allocations equal serial over both transports — {}",
        if all_equal { "PASS" } else { "FAIL" }
    );
    println!(
        "  shape: simulated words meter the *algorithmic* traffic Theorem 10 bounds; wire \
         bytes add framing (40-byte headers + checksums), full-state init scatter, and \
         per-phase acks — the bytes/word column is that end-to-end overhead, and the \
         loopback/tcp latency gap is the kernel socket cost at identical byte counts."
    );

    let join = |xs: &[String]| format!("[{}]", xs.join(", "));
    let mut fields = vec![("experiment", json_str("e21_network"))];
    fields.extend(provenance());
    fields.extend([
        ("n", n.to_string()),
        ("m", m.to_string()),
        ("eps", EPS.to_string()),
        ("shards", SHARDS.to_string()),
        ("epochs", EPOCHS.to_string()),
        ("events_per_epoch", events_per_epoch.to_string()),
        (
            "transports",
            join(&kinds.iter().map(|(k, _)| json_str(k)).collect::<Vec<_>>()),
        ),
        (
            "wire_bytes",
            join(&total_bytes.iter().map(u64::to_string).collect::<Vec<_>>()),
        ),
        (
            "serve_ms",
            join(&total_ms.iter().map(|x| f1(*x)).collect::<Vec<_>>()),
        ),
        (
            "bytes_per_sim_word",
            join(&overheads.iter().map(|x| f3(*x)).collect::<Vec<_>>()),
        ),
        ("phase_latency_us", phase_latency_json(&phase_reg)),
        ("per_peer_wire", join(&peer_lines)),
        ("matched", serial_size.to_string()),
        ("gathered_equal_serial", all_equal.to_string()),
    ]);
    let record = json_object(&fields);
    match std::fs::write("BENCH_network.json", format!("{record}\n")) {
        Ok(()) => println!("  wrote BENCH_network.json"),
        Err(e) => println!("  could not write BENCH_network.json: {e}"),
    }
}
