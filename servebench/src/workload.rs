//! The workloads and the closed loop that drives them.
//!
//! All three serve the same instance family, `union_of_spanning_trees(
//! 65_000, 50_000, 4, cap, seed)` (n = 115k, m ≈ 460k, λ ≤ 4), under
//! `churn_stream(…, ChurnMix::default(), seed + 2)` at 0.5 % of m per
//! epoch. The engines receive only these generated inputs.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use sparse_alloc_dynamic::adapter::{churn_stream, ChurnMix};
use sparse_alloc_dynamic::snapshot::write_serial;
use sparse_alloc_dynamic::{
    DynamicConfig, EpochReport, NetServeLoop, ServeLoop, ShardedConfig, TransportKind, Update,
};
use sparse_alloc_graph::generators::union_of_spanning_trees;
use sparse_alloc_graph::{Assignment, Bipartite};
use sparse_alloc_obs::{Counter, Phase, Tracer};

use crate::gate::check_allocation;
use crate::spans::Spans;

/// The named default seed: graph seed 29, churn seed 31.
pub const DEFAULT_SEED: u64 = 29;
const EPS: f64 = 0.25;
/// Churn events per epoch, as a fraction of m.
const CHURN: f64 = 0.005;
const SHARDS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SerialPlentiful,
    SerialScarce,
    P2pLoopback,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SerialPlentiful,
        Workload::SerialScarce,
        Workload::P2pLoopback,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SerialPlentiful => "serial-plentiful",
            Workload::SerialScarce => "serial-scarce",
            Workload::P2pLoopback => "p2p-loopback",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Right capacity: 2 leaves only a handful of lefts free, 1 leaves
    /// ~14k of 65k lefts free at all times.
    fn cap(self) -> u64 {
        match self {
            Workload::SerialScarce => 1,
            _ => 2,
        }
    }

    /// Epochs one run measures: `seconds` × the workload's nominal epoch
    /// rate (epochs per second, reads and checks included) on the 2-core
    /// box the benchmark was defined on. The count is fixed, not timed,
    /// so every run of a seed serves the same epochs: per-epoch costs
    /// drift as the overlay grows between rebuilds, and a time-bounded
    /// run would compare different epochs across builds.
    pub fn epochs(self, seconds: u64) -> usize {
        let per_second = match self {
            Workload::SerialPlentiful => 10.0,
            Workload::SerialScarce => 1.0,
            Workload::P2pLoopback => 0.15,
        };
        ((seconds as f64 * per_second).round() as usize).max(2)
    }

    /// Engine constructions per run; `setup_s` is their median.
    fn setups(self) -> usize {
        match self {
            Workload::P2pLoopback => 7,
            _ => 9,
        }
    }
}

/// What one epoch measured. Times are milliseconds; `vals` maps a span
/// name to its time in this epoch and a counter name to its delta.
#[derive(Default)]
pub struct Sample {
    pub epoch_ms: f64,
    pub read_ms: f64,
    pub rebuilt: bool,
    pub traced: bool,
    pub vals: BTreeMap<&'static str, f64>,
}

/// A workload run: provenance of its inputs, every per-epoch sample, the
/// spans of a traced run, and the gate's verdicts.
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub churn_seed: u64,
    pub seconds: u64,
    pub n: usize,
    pub m: usize,
    pub events_per_epoch: usize,
    pub gen_s: f64,
    pub setup_s: Vec<f64>,
    pub samples: Vec<Sample>,
    /// `|M| / OPT` after the last epoch.
    pub match_ratio: f64,
    /// Epoch failures and gate failures, with their reasons.
    pub failures: Vec<String>,
    pub epochs_failed: usize,
    pub spans: Spans,
    /// The engine's own phase trace, from the traced epochs.
    pub engine_trace: Vec<u8>,
}

/// Handle into the current epoch's sample for an engine's calls.
pub struct Probe<'a> {
    spans: &'a mut Spans,
    epoch: u32,
    sample: &'a mut Sample,
}

impl Probe<'_> {
    /// Time one public call under a span named `name`.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, ms) = self.spans.time(name, self.epoch, |_| f());
        *self.sample.vals.entry(name).or_default() += ms;
        out
    }

    fn set(&mut self, name: &'static str, v: f64) {
        self.sample.vals.insert(name, v);
    }
}

/// The public surface of an engine the loop drives.
trait Engine {
    fn apply(&mut self, batch: &[Update], p: &mut Probe) -> Result<(), String>;
    fn end_epoch(&mut self, p: &mut Probe) -> Result<EpochReport, String>;
    /// The operator reads: the served allocation, the fractional
    /// allocation and an in-memory checkpoint.
    fn read(&mut self, p: &mut Probe) -> Result<(), String>;
    fn validate(&self) -> Result<(), String>;
    fn set_tracer(&mut self, tracer: Tracer);
    /// Lifetime counters, whose per-epoch deltas the loop records.
    fn totals(&self) -> Vec<(&'static str, f64)>;
    /// The live instance and the served allocation, for the gate.
    fn served(&mut self) -> Result<(Bipartite, Assignment), String>;
}

struct Serial(ServeLoop);

impl Engine for Serial {
    fn apply(&mut self, batch: &[Update], p: &mut Probe) -> Result<(), String> {
        p.time("serve.apply", || {
            for up in batch {
                black_box(self.0.apply(up));
            }
        });
        Ok(())
    }

    fn end_epoch(&mut self, p: &mut Probe) -> Result<EpochReport, String> {
        Ok(p.time("serve.end_epoch", || self.0.end_epoch()))
    }

    fn read(&mut self, p: &mut Probe) -> Result<(), String> {
        black_box(p.time("serve.assignment", || self.0.assignment()));
        black_box(p.time("serve.fractional", || self.0.fractional()));
        let bytes = p.time("snapshot.checkpoint", || {
            let mut bytes = Vec::new();
            write_serial(&self.0, &mut bytes).map(|()| bytes)
        });
        let bytes = bytes.map_err(|e| format!("checkpoint: {e:?}"))?;
        p.set("snapshot.checkpoint_bytes", bytes.len() as f64);
        Ok(())
    }

    fn validate(&self) -> Result<(), String> {
        self.0.validate()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.0.set_tracer(tracer);
    }

    fn totals(&self) -> Vec<(&'static str, f64)> {
        serve_totals(&self.0, self.0.obs())
    }

    fn served(&mut self) -> Result<(Bipartite, Assignment), String> {
        Ok((self.0.snapshot(), self.0.assignment()))
    }
}

fn serve_totals(serve: &ServeLoop, obs: &sparse_alloc_obs::Registry) -> Vec<(&'static str, f64)> {
    vec![
        (
            "serve.walk_expansions",
            obs.counter(Counter::WalkExpansions) as f64,
        ),
        (
            "serve.search_cap_hits",
            obs.counter(Counter::SearchCapHits) as f64,
        ),
        (
            "serve.fractional_full_recomputes",
            serve.fractional_cache_counters().0 as f64,
        ),
    ]
}

/// Process CPU time (user + system, all threads) in seconds, from
/// `/proc/self/stat` in clock ticks of 1/100 s.
fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15.
    let after = stat.rfind(')').map_or("", |i| &stat[i + 1..]);
    let f: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => f64::NAN,
    }
}

struct P2p {
    net: NetServeLoop,
    /// CPU seconds and instant at the start of the current epoch.
    epoch_start: (f64, Instant),
}

impl Engine for P2p {
    fn apply(&mut self, batch: &[Update], p: &mut Probe) -> Result<(), String> {
        self.epoch_start = (cpu_seconds(), Instant::now());
        let rep = p
            .time("net.apply_batch", || self.net.apply_batch(batch))
            .map_err(|e| format!("apply_batch: {e}"))?;
        p.set("batch.waves", rep.waves as f64);
        p.set("batch.max_wave_width", rep.widest_wave as f64);
        Ok(())
    }

    fn end_epoch(&mut self, p: &mut Probe) -> Result<EpochReport, String> {
        let rep = p
            .time("net.end_epoch", || self.net.end_epoch())
            .map_err(|e| format!("end_epoch: {e}"))?;
        let (cpu0, t0) = self.epoch_start;
        p.set(
            "net.cpu_per_wall",
            (cpu_seconds() - cpu0) / t0.elapsed().as_secs_f64(),
        );
        Ok(rep.inner.serial)
    }

    fn read(&mut self, p: &mut Probe) -> Result<(), String> {
        let gathered = p.time("net.gather", || self.net.gather_assignment());
        black_box(gathered.map_err(|e| format!("gather: {e}"))?);
        black_box(p.time("serve.fractional", || self.net.serial().fractional()));
        let bytes = p.time("net.checkpoint", || self.net.checkpoint_bytes());
        black_box(bytes.map_err(|e| format!("checkpoint: {e}"))?);
        Ok(())
    }

    fn validate(&self) -> Result<(), String> {
        self.net.validate()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.net.set_tracer(tracer);
    }

    fn totals(&self) -> Vec<(&'static str, f64)> {
        let s = self.net.net_stats();
        let obs = self.net.obs();
        let mut t = serve_totals(self.net.serial(), obs);
        t.extend([
            (
                "batch.schedule",
                obs.phase(Phase::BatchSchedule).sum() as f64 / 1e6,
            ),
            ("net.wave_bytes", s.wave_bytes as f64),
            ("net.handoff_frames", s.handoff_frames as f64),
            ("net.handoff_bytes", s.handoff_bytes as f64),
            ("net.spoke_bytes", (s.bytes_sent + s.bytes_received) as f64),
            ("net.retries", s.retries as f64),
            ("net.respawns", s.respawns as f64),
        ]);
        t
    }

    fn served(&mut self) -> Result<(Bipartite, Assignment), String> {
        let a = self
            .net
            .gather_assignment()
            .map_err(|e| format!("gather: {e}"))?;
        Ok((self.net.serial().snapshot(), a))
    }
}

/// The p2p engine's configuration: the library's sharded default (eager
/// budget 1). The serial workloads' config, what `salloc dynamic` runs,
/// exceeds the p2p space regime on this instance (see the README).
fn sharded() -> ShardedConfig {
    ShardedConfig::for_eps(EPS, SHARDS)
}

fn config(w: Workload) -> DynamicConfig {
    match w {
        Workload::P2pLoopback => sharded().dynamic,
        _ => DynamicConfig::for_eps(EPS),
    }
}

fn build(w: Workload, g: Bipartite) -> Result<Box<dyn Engine>, String> {
    Ok(match w {
        Workload::P2pLoopback => Box::new(P2p {
            net: NetServeLoop::new_p2p(g, sharded(), TransportKind::Loopback)
                .map_err(|e| format!("new_p2p: {e}"))?,
            epoch_start: (0.0, Instant::now()),
        }),
        _ => Box::new(Serial(ServeLoop::new(g, config(w)))),
    })
}

/// Run workload `w` on the inputs generated from `seed`, for
/// [`Workload::epochs`]`(seconds)` epochs.
pub fn run(w: Workload, seed: u64, seconds: u64, trace: bool) -> Run {
    let t_gen = Instant::now();
    let churn_seed = seed.wrapping_add(2);
    let g = union_of_spanning_trees(65_000, 50_000, 4, w.cap(), seed).graph;
    let events_per_epoch = ((g.m() as f64) * CHURN).round().max(1.0) as usize;
    let epochs = w.epochs(seconds);
    // A re-arrival expands into one update per edge, so the stream of
    // `epochs × events` events holds more updates than the run serves.
    let mut stream = churn_stream(
        &g,
        epochs * events_per_epoch,
        &ChurnMix::default(),
        churn_seed,
    );
    stream.truncate(epochs * events_per_epoch);
    let mut run = Run {
        workload: w,
        seed,
        churn_seed,
        seconds,
        n: g.n(),
        m: g.m(),
        events_per_epoch,
        gen_s: t_gen.elapsed().as_secs_f64(),
        setup_s: Vec::new(),
        samples: Vec::new(),
        match_ratio: f64::NAN,
        failures: Vec::new(),
        epochs_failed: 0,
        spans: Spans::new(),
        engine_trace: Vec::new(),
    };

    let mut engine = None;
    for _ in 0..w.setups() {
        let base = g.clone();
        let t0 = Instant::now();
        let built = build(w, base);
        run.setup_s.push(t0.elapsed().as_secs_f64());
        match built {
            Ok(e) => engine = Some(e),
            Err(e) => {
                run.failures.push(format!("setup: {e}"));
                run.epochs_failed = 1;
                return run;
            }
        }
    }
    let mut engine = engine.expect("at least one setup");

    let (tracer, trace_buf) = Tracer::in_memory();
    for (e, batch) in stream.chunks_exact(events_per_epoch).enumerate() {
        // A traced run alternates traced and untraced epochs, so the
        // tracing overhead is measured on the same engine and inputs.
        let traced = trace && e % 2 == 1;
        run.spans.on = traced;
        engine.set_tracer(if traced {
            tracer.clone()
        } else {
            Tracer::disabled()
        });
        let before = engine.totals();
        let mut sample = Sample {
            traced,
            ..Sample::default()
        };
        let epoch = e as u32;
        let (report, epoch_ms) = run.spans.time("epoch", epoch, |spans| {
            let mut p = Probe {
                spans,
                epoch,
                sample: &mut sample,
            };
            engine.apply(batch, &mut p)?;
            engine.end_epoch(&mut p)
        });
        let read = report.and_then(|report| {
            let (read, read_ms) = run.spans.time("reads", epoch, |spans| {
                engine.read(&mut Probe {
                    spans,
                    epoch,
                    sample: &mut sample,
                })
            });
            sample.read_ms = read_ms;
            read.map(|()| report)
        });
        let checked = read.and_then(|report| engine.validate().map(|()| report));
        let report = match checked {
            Ok(r) => r,
            Err(err) => {
                run.failures.push(format!("epoch {e}: {err}"));
                run.epochs_failed += 1;
                break;
            }
        };
        sample.epoch_ms = epoch_ms;
        sample.rebuilt = report.rebuilt;
        for (name, v) in [
            ("core.rebuilds", report.rebuilt as u64 as f64),
            ("serve.sweep_starts", report.sweep_starts as f64),
            ("serve.sweep_expansions", report.sweep_expansions as f64),
            (
                "serve.sweep_augmentations",
                report.sweep_augmentations as f64,
            ),
            ("serve.level_ball_rights", report.ball_rights as f64),
        ] {
            sample.vals.insert(name, v);
        }
        for ((name, after), (_, before)) in engine.totals().into_iter().zip(before) {
            sample.vals.insert(name, after - before);
        }
        run.samples.push(sample);
    }
    engine.set_tracer(Tracer::disabled());
    run.engine_trace = std::mem::take(&mut *trace_buf.lock().expect("tracer buffer lock"));

    if run.epochs_failed > 0 {
        return run;
    }
    if let Err(err) = gate(&mut run, engine.as_mut(), &g, &stream) {
        run.failures.push(format!("gate: {err}"));
    }
    run
}

/// The end-of-run gate: the served allocation is feasible on the live
/// instance and within the certificate's bound of OPT; on p2p it also
/// equals a serial `ServeLoop` replay of the same stream under the same
/// config. Sets `run.match_ratio`.
fn gate(
    run: &mut Run,
    engine: &mut dyn Engine,
    base: &Bipartite,
    stream: &[Update],
) -> Result<(), String> {
    let w = run.workload;
    let (live, served) = engine.served()?;
    run.match_ratio = check_allocation(&live, &served, config(w).walk_budget)?;
    if w == Workload::P2pLoopback {
        let mut serial = ServeLoop::new(base.clone(), config(w));
        for batch in stream.chunks(run.events_per_epoch) {
            for up in batch {
                serial.apply(up);
            }
            serial.end_epoch();
        }
        if serial.assignment().mate != served.mate {
            return Err("the p2p allocation differs from the serial replay".into());
        }
    }
    Ok(())
}
