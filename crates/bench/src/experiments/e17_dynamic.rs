//! E17 — incremental repair vs full recompute under churn.
//!
//! The dynamic subsystem's bet: a single update perturbs the allocation
//! only inside an `O(τ)`-ball, so repairing locally and certifying the
//! `k/(k+1)` walk-freeness bound per epoch should beat re-running the
//! whole `core::pipeline` by a widening margin as churn drops. This
//! experiment drives a λ-sparse instance with `n ≥ 10^5` through mixed
//! churn (edge recycling, session arrivals/departures, capacity wiggles)
//! at several churn rates and times, per epoch,
//!
//! * **incremental** — apply the epoch's updates through
//!   [`ServeLoop::apply`] + [`ServeLoop::end_epoch`], and
//! * **full** — one `pipeline::solve` on the identical live snapshot
//!   (same ε and walk budget; snapshot construction is *not* charged).
//!
//! The headline criterion (ISSUE 2, recalibrated in ISSUE 6): at ≤ 1%
//! churn per epoch the incremental path must be ≥ `MIN_SPEEDUP`×
//! faster while matching the from-scratch quality. A
//! `BENCH_dynamic.json` record is emitted for the perf trajectory.
//!
//! Why the gate is 4× and not the 5× first recorded: the ratio compares
//! incremental against full recomputes measured on the *same host*, so
//! it moves whenever the host's relative costs move — the PR-4 note in
//! `ROADMAP.md` measured the incremental path itself getting ~1.4×
//! faster on a newer container, which *lowers* the ratio. A fresh
//! baseline on the current reference box (2026-08, 3 epochs × 3 churn
//! rates) measured per-churn-rate speedups of 5.4× / 5.4× / 4.8× with
//! per-epoch samples down to 4.6×; the gate sits at 4.0× to keep a
//! ~17% cross-run margin below the weakest measured rate while still
//! failing loudly if the O(τ)-ball repair ever regresses toward the
//! τ·m full-recompute cost it is supposed to beat.
//!
//! The quality column is gated too: every per-rate
//! `quality_vs_scratch` must be at least `k/(k+1)`, with `k` the
//! engine's walk budget. The bound is sound whatever the level repair
//! truncates: the maintained walk-freeness certificate gives
//! `|M| ≥ k/(k+1)·OPT`, and the from-scratch solution is at most `OPT`.
//! The record carries its provenance (`nproc`, `profile`, `git_rev`).

use std::time::Instant;

use sparse_alloc_core::pipeline::{solve, Booster, PipelineConfig, Rounder};
use sparse_alloc_dynamic::adapter::{churn_stream, ChurnMix};
use sparse_alloc_dynamic::{DynamicConfig, ServeLoop};
use sparse_alloc_graph::generators::union_of_spanning_trees;
use sparse_alloc_obs::Registry;

use super::phase_latency_json;
use crate::table::{f1, f3, json_object, json_str, provenance, Table};

const EPS: f64 = 0.25;
const EPOCHS: usize = 3;

/// Pass gate on the worst per-churn-rate speedup, rebased on a fresh
/// same-box baseline (see the module docs for the measured numbers and
/// the margin rationale).
const MIN_SPEEDUP: f64 = 4.0;

fn full_config(k: usize) -> PipelineConfig {
    PipelineConfig {
        eps: EPS,
        schedule: None, // λ-oblivious, like the serve loop's rebuild
        rounder: Rounder::Greedy,
        booster: Booster::Hk { k },
        seed: 1,
    }
}

/// Run E17 and print its tables.
pub fn run() {
    println!("E17 — dynamic maintenance: incremental repair vs full recompute");
    let gen = union_of_spanning_trees(70_000, 50_000, 4, 2, 17);
    let g = gen.graph;
    let (n, m) = (g.n(), g.m());
    println!(
        "instance: {} (n = {n}, m = {m}, λ ≤ {}; ε = {EPS})",
        gen.family, gen.lambda_upper
    );

    let churn_rates = [0.001f64, 0.005, 0.01];
    let mut t = Table::new(&[
        "churn/epoch",
        "epoch",
        "events",
        "matched",
        "scratch",
        "incr-ms",
        "full-ms",
        "speedup",
    ]);
    let mut incr_totals = Vec::new();
    let mut full_totals = Vec::new();
    let mut quality = Vec::new();
    let mut phase_reg = Registry::new();
    let cfg = DynamicConfig::for_eps(EPS);
    let k = cfg.walk_budget;

    for &rate in &churn_rates {
        let events_per_epoch = ((m as f64) * rate).round().max(1.0) as usize;
        let updates = churn_stream(&g, EPOCHS * events_per_epoch, &ChurnMix::default(), 23);
        let mut serve = ServeLoop::new(g.clone(), cfg.clone());
        let (mut incr_total, mut full_total) = (0.0f64, 0.0f64);
        let mut last_quality = 1.0f64;

        for (e, chunk) in updates.chunks(events_per_epoch).take(EPOCHS).enumerate() {
            let t0 = Instant::now();
            for up in chunk {
                serve.apply(up);
            }
            let report = serve.end_epoch();
            let incr_ms = t0.elapsed().as_secs_f64() * 1e3;
            incr_total += incr_ms;

            // Full recompute on the identical live graph (materialized
            // outside the timer — charging compaction would flatter us).
            let snapshot = serve.snapshot();
            let t1 = Instant::now();
            let scratch = solve(&snapshot, &full_config(k));
            let full_ms = t1.elapsed().as_secs_f64() * 1e3;
            full_total += full_ms;

            last_quality = report.match_size as f64 / scratch.assignment.size().max(1) as f64;
            t.row(vec![
                format!("{:.1}%", rate * 100.0),
                (e + 1).to_string(),
                chunk.len().to_string(),
                report.match_size.to_string(),
                scratch.assignment.size().to_string(),
                f1(incr_ms),
                f1(full_ms),
                format!("{:.1}×", full_ms / incr_ms.max(1e-9)),
            ]);
        }
        incr_totals.push(incr_total);
        full_totals.push(full_total);
        quality.push(last_quality);
        phase_reg.merge(serve.obs());
    }
    t.print();

    let speedups: Vec<f64> = incr_totals
        .iter()
        .zip(&full_totals)
        .map(|(i, f)| f / i.max(1e-9))
        .collect();
    let min_speedup = speedups.iter().cloned().fold(f64::INFINITY, f64::min);
    let min_quality = k as f64 / (k + 1) as f64;
    let quality_ok = quality.iter().all(|&q| q >= min_quality);
    let pass = min_speedup >= MIN_SPEEDUP && quality_ok;
    for ((&rate, &s), &q) in churn_rates.iter().zip(&speedups).zip(&quality) {
        println!(
            "  churn {:>4.1}%: incremental {:.1}× faster over {EPOCHS} epochs, \
             maintained/scratch quality {:.4}",
            rate * 100.0,
            s,
            q
        );
    }
    println!(
        "  criterion: ≥ {MIN_SPEEDUP}× at ≤ 1% churn on n ≥ 10^5 (same-box rebase of the \
         original ≥ 5×; see module docs) and maintained/scratch quality ≥ k/(k+1) = \
         {min_quality:.3} at every rate — {}",
        if pass { "PASS" } else { "FAIL" }
    );
    println!(
        "  shape: the incremental cost scales with the touched balls (plus one O(n) \
         certificate sweep), the full recompute with τ·m — the gap widens as churn drops."
    );

    let mut fields = vec![("experiment", json_str("e17_dynamic"))];
    fields.extend(provenance());
    fields.extend([
        ("phase_latency_us", phase_latency_json(&phase_reg)),
        ("n", n.to_string()),
        ("m", m.to_string()),
        ("eps", EPS.to_string()),
        ("epochs", EPOCHS.to_string()),
        (
            "churn_rates",
            format!(
                "[{}]",
                churn_rates
                    .iter()
                    .map(f64::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        (
            "incr_ms",
            format!(
                "[{}]",
                incr_totals
                    .iter()
                    .map(|x| f1(*x))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        (
            "full_ms",
            format!(
                "[{}]",
                full_totals
                    .iter()
                    .map(|x| f1(*x))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        (
            "speedup",
            format!(
                "[{}]",
                speedups
                    .iter()
                    .map(|x| f1(*x))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        (
            "quality_vs_scratch",
            format!(
                "[{}]",
                quality
                    .iter()
                    .map(|x| f3(*x))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        ("min_speedup", f1(min_speedup)),
        ("criterion_min_speedup", MIN_SPEEDUP.to_string()),
        ("criterion_min_quality", f3(min_quality)),
        ("pass", pass.to_string()),
    ]);
    let record = json_object(&fields);
    match std::fs::write("BENCH_dynamic.json", format!("{record}\n")) {
        Ok(()) => println!("  wrote BENCH_dynamic.json"),
        Err(e) => println!("  could not write BENCH_dynamic.json: {e}"),
    }
}
