//! Result files: every run writes a new one, with its provenance, and
//! checks its exact counts against earlier runs of the same build on the
//! same workload and seed.

use std::fmt::Write as _;
use std::fs::{self, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

use sparse_alloc_graph::io::fnv1a64;

use crate::metrics::{num, Metric, Report};
use crate::workload::Run;

const RESULTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/results");

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The commit the benchmark's tree was checked out at, read from `.git`
/// without running git; "none" outside a git checkout.
fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// FNV-1a of this executable: identifies the build whose counts must
/// repeat.
fn build_id() -> String {
    std::env::current_exe()
        .and_then(fs::read)
        .map_or_else(|_| "unknown".into(), |b| format!("{:016x}", fnv1a64(&b)))
}

/// The value of string field `field` in a result file written by
/// [`record`] (one field per line).
fn field<'a>(text: &'a str, field: &str) -> Option<&'a str> {
    let prefix = format!("  \"{field}\": \"");
    text.lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .and_then(|rest| rest.strip_suffix("\","))
}

/// Earlier results of the same build, workload and seed whose exact
/// counts differ from `exact`.
fn drifted(key: &str, exact: &str) -> Vec<String> {
    let Ok(dir) = fs::read_dir(RESULTS) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in dir.flatten() {
        let path = entry.path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        if field(&text, "exact_key") != Some(key) {
            continue;
        }
        if let Some(earlier) = field(&text, "exact").filter(|e| *e != exact) {
            out.push(format!("{} has {earlier}", path.display()));
        }
    }
    out.sort();
    out
}

fn create_new(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut f = OpenOptions::new().write(true).create_new(true).open(path)?;
    f.write_all(bytes)?;
    f.sync_all()
}

fn metrics_json(ms: &[Metric]) -> String {
    let parts: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", parts.join(", "))
}

/// Flag exact-count drift against earlier runs (a drift fails the gate),
/// then write this run's result file, plus its spans when traced. Returns
/// the result file's path.
pub fn record(run: &Run, report: &mut Report) -> Result<PathBuf, String> {
    let build = build_id();
    let key = format!(
        "{}/{}/{}/{build}",
        report.workload,
        run.seed,
        run.samples.len() + run.epochs_failed
    );
    for d in drifted(&key, &report.exact) {
        report.correct = false;
        report.failures.push(format!("exact counts drifted: {d}"));
    }

    fs::create_dir_all(RESULTS).map_err(|e| format!("{RESULTS}: {e}"))?;
    let unix_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let stem = format!(
        "{}-seed{}-trace{}-{unix_ms}-{}",
        report.workload,
        run.seed,
        u8::from(report.trace),
        std::process::id()
    );
    let dir = Path::new(RESULTS);
    let samples: Vec<String> = run
        .samples
        .iter()
        .map(|s| format!("[{}, {}, {}]", num(s.epoch_ms), num(s.read_ms), s.rebuilt))
        .collect();
    let failures: Vec<String> = report.failures.iter().map(|f| json_str(f)).collect();
    let text = format!(
        "{{\n  \"workload\": \"{}\",\n  \"exact_key\": \"{key}\",\n  \"exact\": \"{}\",\n  \
         \"trace\": {},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \
         \"failures\": [{}],\n  \"graph_seed\": {},\n  \"churn_seed\": {},\n  \"n\": {},\n  \
         \"m\": {},\n  \"events_per_epoch\": {},\n  \
         \"seconds\": {},\n  \"epochs_planned\": {},\n  \"gen_s\": {},\n  \"setup_s\": [{}],\n  \"nproc\": {},\n  \
         \"profile\": \"{}\",\n  \"git_rev\": {},\n  \"rustc\": {},\n  \"build\": \"{build}\",\n  \
         \"end_to_end\": {},\n  \"per_layer\": {},\n  \
         \"epochs\": [\"epoch_ms, read_ms, rebuilt\", {}]\n}}\n",
        report.workload,
        report.exact,
        report.trace,
        report.correct,
        report.attempted,
        report.failed,
        failures.join(", "),
        run.seed,
        run.churn_seed,
        run.n,
        run.m,
        run.events_per_epoch,
        run.seconds,
        run.workload.epochs(run.seconds),
        num(run.gen_s),
        run.setup_s.iter().map(|s| num(*s)).collect::<Vec<_>>().join(", "),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        json_str(&git_rev()),
        json_str(&rustc_version()),
        metrics_json(&report.end_to_end),
        metrics_json(&report.per_layer),
        samples.join(", "),
    );
    let path = dir.join(format!("{stem}.json"));
    create_new(&path, text.as_bytes()).map_err(|e| format!("{}: {e}", path.display()))?;
    if report.trace {
        let spans = dir.join(format!("{stem}.spans.jsonl"));
        create_new(&spans, run.spans.to_jsonl(report.workload).as_bytes())
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        let engine = dir.join(format!("{stem}.engine-trace.jsonl"));
        create_new(&engine, &run.engine_trace).map_err(|e| format!("{}: {e}", engine.display()))?;
    }
    Ok(path)
}
