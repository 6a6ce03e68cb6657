//! Turning a run's samples into the end-to-end and per-layer metrics.

use crate::workload::{Run, Sample};

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// How a per-layer metric is aggregated from the per-epoch samples.
enum Agg {
    /// Median per-epoch time of the calls named here, over the epochs a
    /// traced run traced, optionally only rebuild (or non-rebuild) ones.
    Ms(&'static [&'static str], Option<bool>),
    /// Total over the run.
    Total(&'static str),
    /// Maximum over the run.
    Max(&'static str),
    /// Median over the run's epochs.
    Median(&'static str),
    /// Sweep augmentations ÷ sweep starts over the run.
    Yield,
    /// The highest epoch-time percentile with at least 10 epochs beyond it.
    Tail,
    /// Traced epochs' median epoch time ÷ untraced epochs'.
    TraceOverhead,
}

/// The per-layer metrics, in `BENCHMARK.json` order. A layer that a
/// workload never calls reads 0 there.
const PER_LAYER: &[(&str, &str, Agg)] = &[
    (
        "core.rebuild_ms",
        "ms",
        Agg::Ms(&["serve.end_epoch", "net.end_epoch"], Some(true)),
    ),
    ("core.rebuilds", "count", Agg::Total("core.rebuilds")),
    ("serve.apply_ms", "ms", Agg::Ms(&["serve.apply"], None)),
    (
        "serve.end_epoch_ms",
        "ms",
        Agg::Ms(&["serve.end_epoch"], Some(false)),
    ),
    (
        "serve.sweep_starts",
        "count",
        Agg::Total("serve.sweep_starts"),
    ),
    (
        "serve.sweep_expansions",
        "count",
        Agg::Total("serve.sweep_expansions"),
    ),
    (
        "serve.sweep_augmentations",
        "count",
        Agg::Total("serve.sweep_augmentations"),
    ),
    ("serve.sweep_yield", "ratio", Agg::Yield),
    (
        "serve.level_ball_rights",
        "count",
        Agg::Total("serve.level_ball_rights"),
    ),
    (
        "serve.walk_expansions",
        "count",
        Agg::Total("serve.walk_expansions"),
    ),
    (
        "serve.search_cap_hits",
        "count",
        Agg::Total("serve.search_cap_hits"),
    ),
    (
        "serve.fractional_ms",
        "ms",
        Agg::Ms(&["serve.fractional"], None),
    ),
    (
        "serve.fractional_full_recomputes",
        "count",
        Agg::Total("serve.fractional_full_recomputes"),
    ),
    (
        "snapshot.checkpoint_ms",
        "ms",
        Agg::Ms(&["snapshot.checkpoint"], None),
    ),
    (
        "snapshot.checkpoint_bytes",
        "B",
        Agg::Median("snapshot.checkpoint_bytes"),
    ),
    ("batch.waves", "count", Agg::Total("batch.waves")),
    (
        "batch.max_wave_width",
        "count",
        Agg::Max("batch.max_wave_width"),
    ),
    (
        "batch.schedule_ms",
        "ms",
        Agg::Ms(&["batch.schedule"], None),
    ),
    (
        "net.apply_batch_ms",
        "ms",
        Agg::Ms(&["net.apply_batch"], None),
    ),
    (
        "net.end_epoch_ms",
        "ms",
        Agg::Ms(&["net.end_epoch"], Some(false)),
    ),
    ("net.cpu_per_wall", "ratio", Agg::Median("net.cpu_per_wall")),
    ("net.wave_bytes", "B", Agg::Total("net.wave_bytes")),
    (
        "net.handoff_frames",
        "count",
        Agg::Median("net.handoff_frames"),
    ),
    ("net.handoff_bytes", "B", Agg::Median("net.handoff_bytes")),
    ("net.spoke_bytes", "B", Agg::Median("net.spoke_bytes")),
    ("net.retries", "count", Agg::Total("net.retries")),
    ("net.respawns", "count", Agg::Total("net.respawns")),
    ("net.gather_ms", "ms", Agg::Ms(&["net.gather"], None)),
    (
        "net.checkpoint_ms",
        "ms",
        Agg::Ms(&["net.checkpoint"], None),
    ),
    ("epoch_ms.tail", "ms", Agg::Tail),
    ("obs.trace_overhead", "ratio", Agg::TraceOverhead),
];

/// The counts (run totals) that must repeat bit for bit across runs of
/// one build on one seed and run length.
const EXACT: &[&str] = &[
    "core.rebuilds",
    "serve.sweep_starts",
    "serve.sweep_expansions",
    "serve.level_ball_rights",
    "batch.waves",
    "net.wave_bytes",
];

pub fn median(xs: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = xs.into_iter().filter(|x| !x.is_nan()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest percentile of `xs` with at least 10 values beyond it, and
/// that percentile (the median when there are fewer than 11 values).
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 11 {
        (median(v), 50.0)
    } else {
        (v[n - 11], 100.0 * (n - 10) as f64 / n as f64)
    }
}

/// A JSON number, or `null` for a value that was not measured.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

pub struct Report {
    pub workload: &'static str,
    pub trace: bool,
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Canonical `name=value` list of the exact counts.
    pub exact: String,
    /// Per-span-name median self time of the traced epochs.
    pub self_ms: Vec<(&'static str, f64)>,
    pub tail_pct: f64,
    /// Per-epoch range of the timing-dependent handoff frame count.
    pub handoff_frames_range: Option<(f64, f64)>,
}

impl Report {
    pub fn new(run: &Run, trace: bool) -> Report {
        let sum = |key: &str| {
            run.samples
                .iter()
                .filter_map(|s| s.vals.get(key))
                .fold(0.0, |a, b| a + b)
        };
        // End-to-end figures come from untraced epochs only.
        let plain: Vec<&Sample> = run.samples.iter().filter(|s| !s.traced).collect();
        let epoch_s: f64 = plain.iter().map(|s| s.epoch_ms / 1e3).sum();
        let updates = plain.len() * run.events_per_epoch;
        let end_to_end = vec![
            Metric {
                name: "setup_s",
                unit: "s",
                value: median(run.setup_s.iter().copied()),
            },
            Metric {
                name: "epoch_ms.p50",
                unit: "ms",
                value: median(plain.iter().map(|s| s.epoch_ms)),
            },
            Metric {
                name: "updates_per_s",
                unit: "1/s",
                value: updates as f64 / epoch_s,
            },
            Metric {
                name: "read_ms.p50",
                unit: "ms",
                value: median(plain.iter().map(|s| s.read_ms)),
            },
            Metric {
                name: "match_ratio",
                unit: "ratio",
                value: run.match_ratio,
            },
        ];

        // Per-layer times come from the traced epochs of a traced run.
        let layer: Vec<&Sample> = run.samples.iter().filter(|s| s.traced || !trace).collect();
        let all_epoch_ms: Vec<f64> = run.samples.iter().map(|s| s.epoch_ms).collect();
        let (tail_ms, tail_pct) = tail(&all_epoch_ms);
        let per_layer = PER_LAYER
            .iter()
            .map(|(name, unit, agg)| {
                let value = match agg {
                    Agg::Ms(keys, rebuilt) => median(
                        layer
                            .iter()
                            .filter(|s| rebuilt.is_none_or(|r| s.rebuilt == r))
                            .filter(|s| keys.iter().any(|k| s.vals.contains_key(k)))
                            .map(|s| keys.iter().filter_map(|k| s.vals.get(k)).sum()),
                    ),
                    Agg::Total(key) => sum(key),
                    Agg::Max(key) => run
                        .samples
                        .iter()
                        .filter_map(|s| s.vals.get(key).copied())
                        .fold(0.0, f64::max),
                    Agg::Median(key) => {
                        median(run.samples.iter().filter_map(|s| s.vals.get(key).copied()))
                    }
                    Agg::Yield => {
                        let starts = sum("serve.sweep_starts");
                        if starts > 0.0 {
                            sum("serve.sweep_augmentations") / starts
                        } else {
                            0.0
                        }
                    }
                    Agg::Tail => tail_ms,
                    Agg::TraceOverhead if trace => {
                        median(run.samples.iter().filter(|s| s.traced).map(|s| s.epoch_ms))
                            / median(plain.iter().map(|s| s.epoch_ms))
                    }
                    Agg::TraceOverhead => f64::NAN,
                };
                // A layer the workload never calls reads 0.
                let value = if value.is_nan() && !matches!(agg, Agg::TraceOverhead) {
                    0.0
                } else {
                    value
                };
                Metric { name, unit, value }
            })
            .collect();

        let mut exact: Vec<String> = EXACT.iter().map(|k| format!("{k}={}", sum(k))).collect();
        exact.push(format!("match_ratio={}", num(run.match_ratio)));
        let frames: Vec<f64> = run
            .samples
            .iter()
            .filter_map(|s| s.vals.get("net.handoff_frames").copied())
            .collect();
        let self_ms = run
            .spans
            .self_ms()
            .into_iter()
            .map(|(name, v)| (name, median(v)))
            .collect();
        Report {
            workload: run.workload.name(),
            trace,
            correct: run.failures.is_empty() && run.match_ratio.is_finite(),
            attempted: run.samples.len() + run.epochs_failed,
            failed: run.epochs_failed,
            failures: run.failures.clone(),
            end_to_end,
            per_layer,
            exact: exact.join(","),
            self_ms,
            tail_pct,
            handoff_frames_range: (!frames.is_empty()).then(|| {
                (
                    frames.iter().copied().fold(f64::INFINITY, f64::min),
                    frames.iter().copied().fold(0.0, f64::max),
                )
            }),
        }
    }

    /// The metrics this run reports: end-to-end untraced, per-layer traced.
    fn reported(&self) -> &[Metric] {
        if self.trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    pub fn print_human(&self, run: &Run) {
        println!(
            "servebench {} — seed {} (graph {}, churn {}): n = {}, m = {}, {} events/epoch, \
             --seconds {} → {} epochs",
            self.workload,
            run.seed,
            run.seed,
            run.churn_seed,
            run.n,
            run.m,
            run.events_per_epoch,
            run.seconds,
            run.workload.epochs(run.seconds)
        );
        for m in self.reported() {
            println!("  {:<34} {:>16} {}", m.name, num(m.value), m.unit);
        }
        if self.trace {
            println!(
                "  epoch_ms.tail is p{:.1} over {} epochs",
                self.tail_pct,
                run.samples.len()
            );
            if let Some((lo, hi)) = self.handoff_frames_range {
                println!("  net.handoff_frames ranged {lo}..{hi} per epoch");
            }
            println!("  self time per epoch (median over traced epochs):");
            for (name, ms) in &self.self_ms {
                println!("    {name:<30} {:>12.3} ms", ms);
            }
        }
        println!("  {:<34} {:>16} count", "epochs", self.attempted);
        println!("  {:<34} {:>16} count", "epochs_failed", self.failed);
        println!("  exact counts: {}", self.exact);
        for f in &self.failures {
            println!("  FAILURE: {f}");
        }
        println!("  gate: {}", if self.correct { "PASS" } else { "FAIL" });
    }

    /// The result line the benchmark contract asks for.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .reported()
            .iter()
            .map(|m| {
                format!(
                    r#""{}":{{"value":{},"unit":"{}"}}"#,
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}
