//! E18 — distributed serving: sharded vs serial throughput and MPC cost.
//!
//! The sharded serve loop promises two things at once: the maintained
//! allocation is **identical** to the serial engine's for any shard
//! count (the correctness contract `tests/properties.rs` proves on small
//! instances — re-checked here at scale), and the communication it would
//! cost on a real cluster is measured, not guessed: update routing,
//! conflict-free repair waves with cross-shard walk handoffs, and the
//! sweep-commit/census/broadcast phases all run through the strict
//! `mpc::Cluster`, so the ledger's rounds and per-machine space are the
//! quantities Theorem 10 bounds.
//!
//! This experiment drives one λ-sparse instance (`n > 10^5`) through the
//! same churn stream serially and sharded `{2, 4}` ways, and reports
//! per-mode wall time, ledger rounds, handoff traffic, and the peak
//! per-machine storage against the `n^δ`-style budget. Each sharded run's
//! final engine state — the full mate vector and the β-levels, not just
//! `|M|` — is compared with the serial run's and recorded as
//! `state_equal_serial` (`ci.sh` gates on it). A
//! `BENCH_distributed.json` record is emitted.

use std::time::Instant;

use sparse_alloc_dynamic::adapter::{churn_stream, ChurnMix};
use sparse_alloc_dynamic::engine::drive;
use sparse_alloc_dynamic::{ServeLoop, ShardedConfig, ShardedServeLoop};
use sparse_alloc_graph::generators::union_of_spanning_trees;
use sparse_alloc_obs::Registry;

use super::phase_latency_json;
use crate::table::{f1, json_object, json_str, provenance, Table};

const EPS: f64 = 0.25;
const EPOCHS: usize = 3;
const CHURN: f64 = 0.005; // events per epoch as a fraction of m

/// Run E18 and print its tables.
pub fn run() {
    println!("E18 — distributed serving: sharded vs serial under churn");
    let gen = union_of_spanning_trees(65_000, 50_000, 4, 2, 29);
    let g = gen.graph;
    let (n, m) = (g.n(), g.m());
    println!(
        "instance: {} (n = {n}, m = {m}, λ ≤ {}; ε = {EPS}, {EPOCHS} epochs at {:.1}% churn)",
        gen.family,
        gen.lambda_upper,
        CHURN * 100.0
    );

    let events_per_epoch = ((m as f64) * CHURN).round().max(1.0) as usize;
    let updates = churn_stream(&g, EPOCHS * events_per_epoch, &ChurnMix::default(), 31);
    let batches = || updates.chunks(events_per_epoch).take(EPOCHS);

    // Serial baseline — same engine config as the sharded runs (the
    // sharded default lowers the eager walk budget; the equivalence
    // contract is per-config).
    let mut serial = ServeLoop::new(g.clone(), ShardedConfig::for_eps(EPS, 2).dynamic);
    let t0 = Instant::now();
    drive(&mut serial, batches()).expect("serial serving cannot fail");
    let serial_ms = t0.elapsed().as_secs_f64() * 1e3;
    let serial_size = serial.match_size();
    let serial_mate = serial.assignment().mate;

    let shard_counts = [2usize, 4];
    let mut t = Table::new(&[
        "mode", "serve-ms", "matched", "rounds", "handoff", "waves", "peak-wds", "budget",
    ]);
    t.row(vec![
        "serial".into(),
        f1(serial_ms),
        serial_size.to_string(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);

    let mut sharded_ms = Vec::new();
    let mut rounds = Vec::new();
    let mut peaks = Vec::new();
    let mut budgets = Vec::new();
    let mut all_equal = true;
    let mut phase_reg = Registry::new();
    for &shards in &shard_counts {
        let mut serve = ShardedServeLoop::new(g.clone(), ShardedConfig::for_eps(EPS, shards))
            .expect("initial state fits the space budget");
        let t1 = Instant::now();
        let reports = drive(&mut serve, batches()).expect("epochs within budget");
        let ms = t1.elapsed().as_secs_f64() * 1e3;
        let last = reports.last().cloned().unwrap_or_default();
        let (last_peak, last_budget) = (last.peak_shard_words, last.budget);
        let state_equal =
            serve.assignment().mate == serial_mate && serve.serial().levels() == serial.levels();
        all_equal &= state_equal;
        if !state_equal {
            println!("  {shards} shards: final mates or β-levels diverged from serial");
        }
        let l = serve.ledger();
        t.row(vec![
            format!("{shards} shards"),
            f1(ms),
            serve.match_size().to_string(),
            l.rounds.to_string(),
            serve.stats().handoff_words.to_string(),
            serve.stats().waves.to_string(),
            last_peak.to_string(),
            last_budget.to_string(),
        ]);
        sharded_ms.push(ms);
        rounds.push(l.rounds);
        peaks.push(last_peak);
        budgets.push(last_budget);
        phase_reg.merge(serve.obs());
    }
    t.print();

    println!(
        "  correctness: sharded mates and β-levels equal serial for shard counts {shard_counts:?} — {}",
        if all_equal { "PASS" } else { "FAIL" }
    );
    println!(
        "  shape: the simulator executes shards in-process, so sharding buys accounting \
         (rounds, handoff words, per-machine space), not wall-clock speed; the waves/rounds \
         columns are what a real cluster would parallelize and pay."
    );

    let join = |xs: &[String]| format!("[{}]", xs.join(", "));
    let mut fields = vec![("experiment", json_str("e18_distributed"))];
    fields.extend(provenance());
    fields.extend([
        ("phase_latency_us", phase_latency_json(&phase_reg)),
        ("n", n.to_string()),
        ("m", m.to_string()),
        ("eps", EPS.to_string()),
        ("epochs", EPOCHS.to_string()),
        ("events_per_epoch", events_per_epoch.to_string()),
        (
            "shards",
            join(
                &shard_counts
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>(),
            ),
        ),
        ("serial_ms", f1(serial_ms)),
        (
            "sharded_ms",
            join(&sharded_ms.iter().map(|x| f1(*x)).collect::<Vec<_>>()),
        ),
        (
            "ledger_rounds",
            join(&rounds.iter().map(usize::to_string).collect::<Vec<_>>()),
        ),
        (
            "peak_machine_words",
            join(&peaks.iter().map(usize::to_string).collect::<Vec<_>>()),
        ),
        (
            "space_budget_words",
            join(&budgets.iter().map(usize::to_string).collect::<Vec<_>>()),
        ),
        ("matched", serial_size.to_string()),
        ("state_equal_serial", all_equal.to_string()),
    ]);
    let record = json_object(&fields);
    match std::fs::write("BENCH_distributed.json", format!("{record}\n")) {
        Ok(()) => println!("  wrote BENCH_distributed.json"),
        Err(e) => println!("  could not write BENCH_distributed.json: {e}"),
    }
}
