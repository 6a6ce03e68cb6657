//! Benchmark-side spans: one per public call the benchmark makes into a
//! layer, kept in memory and written out when the run ends.
//!
//! Spans nest by call order (an epoch span holds the apply and
//! `end_epoch` spans of that epoch; a reads span holds each read). A
//! span's self time is its duration minus the part its children cover.

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    epoch: u32,
    parent: Option<usize>,
    start_ns: u64,
    dur_ns: u64,
    child_ns: u64,
}

/// In-memory span recorder. While `on` is false it records nothing and
/// [`Spans::time`] only reads the clock.
pub struct Spans {
    origin: Instant,
    pub on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            on: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`; returns its result and its
    /// wall time in milliseconds (measured whether or not spans are on).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        epoch: u32,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, f64) {
        let id = self.on.then(|| {
            let id = self.spans.len();
            self.spans.push(Span {
                name,
                epoch,
                parent: self.open.last().copied(),
                start_ns: self.origin.elapsed().as_nanos() as u64,
                dur_ns: 0,
                child_ns: 0,
            });
            self.open.push(id);
            id
        });
        let t0 = Instant::now();
        let out = f(self);
        let dur = t0.elapsed();
        if let Some(id) = id {
            self.open.pop();
            let dur_ns = dur.as_nanos() as u64;
            self.spans[id].dur_ns = dur_ns;
            if let Some(p) = self.spans[id].parent {
                self.spans[p].child_ns += dur_ns;
            }
        }
        (out, dur.as_secs_f64() * 1e3)
    }

    /// Per-epoch self time of every span name, in milliseconds:
    /// `(name, epoch) → Σ self time`, in name order.
    pub fn self_ms(&self) -> std::collections::BTreeMap<&'static str, Vec<f64>> {
        let mut per_epoch = std::collections::BTreeMap::<(&'static str, u32), f64>::new();
        for s in &self.spans {
            *per_epoch.entry((s.name, s.epoch)).or_default() +=
                s.dur_ns.saturating_sub(s.child_ns) as f64 / 1e6;
        }
        let mut out = std::collections::BTreeMap::<&'static str, Vec<f64>>::new();
        for ((name, _), ms) in per_epoch {
            out.entry(name).or_default().push(ms);
        }
        out
    }

    /// The spans as JSON lines, tagged with the workload.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"workload":"{workload}","id":{id},"parent":{parent},"name":"{}","epoch":{},"start_ns":{},"dur_ns":{},"self_ns":{}}}"#,
                s.name,
                s.epoch,
                s.start_ns,
                s.dur_ns,
                s.dur_ns.saturating_sub(s.child_ns)
            );
        }
        out
    }
}
