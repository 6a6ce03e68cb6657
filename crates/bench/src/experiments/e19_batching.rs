//! E19 — batching throughput: the sharded dynamic hot path after
//! throughput hardening.
//!
//! The PR-3 e18 record (`BENCH_distributed.json` at that commit) was
//! honest and embarrassing: ~2.2 s of sharded wall time per 3-epoch
//! workload against a 138 ms serial engine, with every one of the 6 900
//! updates escalated to a *global* conflict — one wave per update, the
//! scheduler paying an `O(n + m)` `DeltaGraph` clone per batch and a
//! hash probe per footprint edge. This experiment drives the identical
//! workload (same generator, seeds, churn) through the hardened path —
//! incremental `G⁺` overlay, stamped footprint membership, eager-radius
//! footprints, first-fit waves (every update on its conflict floor, so
//! the wave count is the batch's conflict critical path) — and records
//! wall time *and* wave occupancy (waves, max/mean width, escalations)
//! next to that baseline. `BENCH_batching.json` is the record `ci.sh` gates
//! regressions against.
//!
//! # Cost model (why `one_box_win` reads `false` here)
//!
//! The serial engine's eager repairs early-exit on the count-guarded
//! `DeltaGraph` and cost only a few ms across the whole run, so its
//! epochs are dominated by the epoch-close work both engines share
//! verbatim. The certificate sweep searches only from the few free lefts
//! (64,996 of 65,000 lefts are matched here), so that work is β-level
//! repair: `level_repair` takes ~4–5 ms per epoch on the ~2,000 dirty
//! rights (~2 ms of that is the nested `level_gather`, which copies their
//! live rows and their lefts' into flat arenas for the rounds) against
//! ~0.1 ms for `cert_sweep`. The sharded path pays the same
//! epoch close *plus* its scheduling surplus: footprint growth + one
//! wave pass (`batch_schedule`, ~6 ms per batch), routing (~0.2 ms), and
//! shard-state aggregation (~0.7 ms per epoch). The repair itself is
//! cheap: the waves only price the batch (one `repair_wave` ledger round
//! each, 951 per drive), and the simulator runs the batch through the
//! serial core's `apply` in batch order, as one `repair_wave` span per
//! batch with a p50 of ~0.8–0.9 ms. On a 2-vCPU host (nproc = 2)
//! sharded wall time is ~2–2.5× serial, almost all of the gap being
//! `batch_schedule`. That surplus is
//! fixed, so every saving in the shared epoch close *raises* the ratio.
//! The record says so (`one_box_win: false`), and `overhead_ratio` is
//! the ratcheted quantity (`ci.sh` caps it at 1.6× serial absolute and
//! 1.25× the recorded value relative). Every time in the record is the
//! median of `SAMPLES` interleaved drives (`samples` in the record).
//! Every record carries its provenance (`nproc`, `profile`, `git_rev`).

use std::time::Instant;

use sparse_alloc_dynamic::adapter::{churn_stream, ChurnMix};
use sparse_alloc_dynamic::engine::drive;
use sparse_alloc_dynamic::{ServeLoop, ShardedConfig, ShardedServeLoop};
use sparse_alloc_graph::generators::union_of_spanning_trees;
use sparse_alloc_obs::{Phase, Registry};

use super::phase_latency_json;
use crate::table::{f1, f3, json_object, json_str, provenance, Table};

const EPS: f64 = 0.25;
const EPOCHS: usize = 3;
const CHURN: f64 = 0.005; // events per epoch as a fraction of m
/// Wall-clock samples per timed configuration; each reported time is
/// their median.
const SAMPLES: usize = 5;

/// Sharded wall time of the PR-3 e18 record on this workload (the
/// pre-hardening scheduler: one global wave per update), the baseline the
/// ≥ 3× acceptance bar is measured against.
const E18_PR3_SHARDED_MS: f64 = 2169.0;
/// Serial wall time of the same PR-3 e18 record. The pass criterion
/// normalizes by the serial engine measured in *this* run, so it compares
/// sharded-over-serial overhead ratios — a host-speed-independent
/// quantity — instead of raw milliseconds recorded on another machine.
const E18_PR3_SERIAL_MS: f64 = 138.2;
/// Wave count of the PR-3 e18 record (fully serialized).
const E18_PR3_WAVES: usize = 6900;

/// Run E19 and print its tables.
pub fn run() {
    println!("E19 — batching throughput: hardened sharded hot path vs the e18 baseline");
    let gen = union_of_spanning_trees(65_000, 50_000, 4, 2, 29);
    let g = gen.graph;
    let (n, m) = (g.n(), g.m());
    println!(
        "instance: {} (n = {n}, m = {m}, λ ≤ {}; ε = {EPS}, {EPOCHS} epochs at {:.1}% churn — the e18 workload)",
        gen.family,
        gen.lambda_upper,
        CHURN * 100.0
    );

    let events_per_epoch = ((m as f64) * CHURN).round().max(1.0) as usize;
    let updates = churn_stream(&g, EPOCHS * events_per_epoch, &ChurnMix::default(), 31);
    let batches = || updates.chunks(events_per_epoch).take(EPOCHS);

    // Serial baseline, same engine config as the sharded runs. The box a
    // CI run lands on is noisy (shared with other workloads), so every
    // wall-clock figure here — serial, each shard count, and the metrics
    // A/B below — is the median of `SAMPLES` samples taken interleaved
    // (one of each configuration per sampling round), so a slow spell on
    // the host lands on every configuration alike. The drives are
    // deterministic, so repeating one changes only the clock.
    let serial_drive = || {
        let mut serial = ServeLoop::new(g.clone(), ShardedConfig::for_eps(EPS, 2).dynamic);
        let t0 = Instant::now();
        drive(&mut serial, batches()).expect("serial serving cannot fail");
        (t0.elapsed().as_secs_f64() * 1e3, serial.match_size())
    };
    let sharded_drive = |shards: usize| {
        let mut serve = ShardedServeLoop::new(g.clone(), ShardedConfig::for_eps(EPS, shards))
            .expect("initial state fits the space budget");
        let t1 = Instant::now();
        let reports = drive(&mut serve, batches()).expect("epochs within budget");
        let ms = t1.elapsed().as_secs_f64() * 1e3;
        let last = reports.last().cloned().unwrap_or_default();
        (ms, serve, last.peak_shard_words, last.budget)
    };
    let shard_counts = [2usize, 4];
    let mut serial_samples = Vec::with_capacity(SAMPLES);
    let mut sharded_samples = vec![Vec::with_capacity(SAMPLES); shard_counts.len()];
    let mut serial_size = 0;
    let mut sharded: Vec<_> = shard_counts.iter().map(|_| None).collect();
    for _ in 0..SAMPLES {
        let (ms, size) = serial_drive();
        serial_samples.push(ms);
        serial_size = size;
        for (i, &shards) in shard_counts.iter().enumerate() {
            let (ms, serve, peak, budget) = sharded_drive(shards);
            sharded_samples[i].push(ms);
            sharded[i] = Some((serve, peak, budget));
        }
    }
    let serial_ms = median(serial_samples);

    let mut t = Table::new(&[
        "mode", "serve-ms", "matched", "waves", "max-w", "mean-w", "escal", "handoff", "peak-wds",
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
        "-".into(),
    ]);

    let mut sharded_ms = Vec::new();
    let mut waves = Vec::new();
    let mut widest = Vec::new();
    let mut mean_width = Vec::new();
    let mut escalations = Vec::new();
    let mut peaks = Vec::new();
    let mut budgets = Vec::new();
    let mut all_equal = true;
    let mut phase_reg = Registry::new();
    for ((&shards, samples), last) in shard_counts.iter().zip(sharded_samples).zip(sharded) {
        let (serve, last_peak, last_budget) = last.expect("SAMPLES ≥ 1");
        let ms = median(samples);
        let equal = serve.match_size() == serial_size;
        all_equal &= equal;
        assert!(
            equal,
            "{shards}-shard allocation size {} diverged from serial {serial_size}",
            serve.match_size()
        );
        phase_reg.merge(serve.obs());
        let s = serve.stats();
        let mean = s.routed_updates as f64 / (s.waves.max(1)) as f64;
        t.row(vec![
            format!("{shards} shards"),
            f1(ms),
            serve.match_size().to_string(),
            s.waves.to_string(),
            s.widest_wave.to_string(),
            f1(mean),
            s.escalations.to_string(),
            s.handoff_words.to_string(),
            last_peak.to_string(),
        ]);
        sharded_ms.push(ms);
        waves.push(s.waves);
        widest.push(s.widest_wave);
        mean_width.push(mean);
        escalations.push(s.escalations);
        peaks.push(last_peak);
        budgets.push(last_budget);
    }
    t.print();

    // Where the milliseconds go: per-phase latency percentiles from the
    // engines' metrics registries, merged across the sharded runs.
    let mut pt = Table::new(&["phase", "spans", "p50-µs", "p99-µs", "max-µs"]);
    for p in Phase::ALL {
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

    // The hot-path registry must be ~free when turned off: identical
    // 2-shard drives with metrics disabled vs enabled, interleaved,
    // median of `SAMPLES` each, gated at ≤ 5% overhead by ci.sh. The
    // order alternates (even rounds disabled first, odd rounds enabled
    // first), so a warm-up or drift effect within a round lands on both
    // sides.
    let ab_drive = |enabled: bool| {
        let mut serve = ShardedServeLoop::new(g.clone(), ShardedConfig::for_eps(EPS, 2))
            .expect("initial state fits the space budget");
        serve.obs_mut().set_enabled(enabled);
        let t = Instant::now();
        drive(&mut serve, batches()).expect("epochs within budget");
        t.elapsed().as_secs_f64() * 1e3
    };
    let (mut off, mut on) = (Vec::with_capacity(SAMPLES), Vec::with_capacity(SAMPLES));
    for round in 0..SAMPLES {
        if round % 2 == 0 {
            off.push(ab_drive(false));
            on.push(ab_drive(true));
        } else {
            on.push(ab_drive(true));
            off.push(ab_drive(false));
        }
    }
    let (off_ms, on_ms) = (median(off), median(on));
    let metrics_overhead = on_ms / off_ms.max(1e-9);
    let metrics_pass = metrics_overhead <= 1.05;
    println!(
        "  metrics overhead: disabled {} ms, enabled {} ms, ratio {} (gate ≤ 1.05) — {}",
        f1(off_ms),
        f1(on_ms),
        f3(metrics_overhead),
        if metrics_pass { "PASS" } else { "FAIL" }
    );

    let worst_ms = sharded_ms.iter().copied().fold(0.0f64, f64::max);
    // The one-box-win criterion: sharding pays for itself on a single
    // machine — the slowest sharded config still beats the serial engine
    // on the identical workload. Recorded honestly: the scheduling
    // surplus (see the module docs) makes it unreachable here, and
    // ci.sh falls back to the overhead-ratio cap. Scalar wave-shape fields
    // (worst case over the shard counts) ride along so ci.sh can
    // regression-gate the schedule's shape, not just its wall time.
    let one_box_win = all_equal && worst_ms <= serial_ms;
    let waves_worst = waves.iter().copied().max().unwrap_or(0);
    let max_width_worst = widest.iter().copied().max().unwrap_or(0);
    let mean_width_worst = mean_width.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "  one-box win: slowest sharded {} ms vs serial {} ms — {}",
        f1(worst_ms),
        f1(serial_ms),
        if one_box_win { "PASS" } else { "FAIL" }
    );
    let speedup = E18_PR3_SHARDED_MS / worst_ms.max(1e-9);
    // Host-independent form of the same claim: the baseline ran the
    // sharded path at 15.7× its own serial engine; compare that overhead
    // ratio against this run's.
    let overhead = worst_ms / serial_ms.max(1e-9);
    let baseline_overhead = E18_PR3_SHARDED_MS / E18_PR3_SERIAL_MS;
    let normalized = baseline_overhead / overhead.max(1e-9);
    let pass = all_equal && normalized >= 3.0;
    println!(
        "  before/after: e18 baseline ran {E18_PR3_WAVES} waves (one global escalation per \
         update) in {E18_PR3_SHARDED_MS} ms ({baseline_overhead:.1}× its serial engine); \
         hardened path runs {} waves (max width {}) in {} ms ({overhead:.2}× serial) — \
         {speedup:.1}× faster raw, {normalized:.1}× on serial-normalized overhead",
        waves.first().copied().unwrap_or(0),
        widest.first().copied().unwrap_or(0),
        f1(worst_ms),
    );
    println!(
        "  criterion: sharded ≥ 3× over the e18 baseline (serial-normalized) with sizes \
         equal serial — {}",
        if pass { "PASS" } else { "FAIL" }
    );

    let join = |xs: &[String]| format!("[{}]", xs.join(", "));
    let mut fields = vec![("experiment", json_str("e19_batching"))];
    fields.extend(provenance());
    fields.extend([
        ("n", n.to_string()),
        ("m", m.to_string()),
        ("eps", EPS.to_string()),
        ("epochs", EPOCHS.to_string()),
        ("events_per_epoch", events_per_epoch.to_string()),
        ("samples", SAMPLES.to_string()),
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
        ("sharded_ms_max", f1(worst_ms)),
        ("one_box_win", one_box_win.to_string()),
        // Scalar worst-case wave shape (ci.sh regression-gates these);
        // the *_by_shards arrays carry the per-config detail.
        ("waves", waves_worst.to_string()),
        ("max_width", max_width_worst.to_string()),
        ("mean_width", f1(mean_width_worst)),
        (
            "waves_by_shards",
            join(&waves.iter().map(usize::to_string).collect::<Vec<_>>()),
        ),
        (
            "max_wave_width",
            join(&widest.iter().map(usize::to_string).collect::<Vec<_>>()),
        ),
        (
            "mean_wave_width",
            join(&mean_width.iter().map(|x| f1(*x)).collect::<Vec<_>>()),
        ),
        (
            "global_escalations",
            join(&escalations.iter().map(usize::to_string).collect::<Vec<_>>()),
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
        ("sizes_equal_serial", all_equal.to_string()),
        ("baseline_e18_sharded_ms", E18_PR3_SHARDED_MS.to_string()),
        ("baseline_e18_serial_ms", E18_PR3_SERIAL_MS.to_string()),
        ("speedup_vs_e18", format!("{speedup:.1}")),
        ("overhead_ratio", format!("{overhead:.3}")),
        ("speedup_vs_e18_normalized", format!("{normalized:.1}")),
        ("phase_latency_us", phase_latency_json(&phase_reg)),
        ("metrics_disabled_ms", f1(off_ms)),
        ("metrics_enabled_ms", f1(on_ms)),
        ("metrics_overhead_ratio", f3(metrics_overhead)),
        ("metrics_overhead_pass", metrics_pass.to_string()),
        ("pass", pass.to_string()),
    ]);
    let record = json_object(&fields);
    match std::fs::write("BENCH_batching.json", format!("{record}\n")) {
        Ok(()) => println!("  wrote BENCH_batching.json"),
        Err(e) => println!("  could not write BENCH_batching.json: {e}"),
    }
}

/// The median of a non-empty sample (the upper one of an even count).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}
