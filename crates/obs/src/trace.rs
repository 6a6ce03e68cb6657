//! Phase tracing: monotonic-clock spans emitted as checksummed JSONL.
//!
//! # Trace file format
//!
//! One JSON object per line. Every line ends in a `"ck"` field holding
//! the FNV-1a-64 checksum (16 hex digits) of everything before the
//! `,"ck"` suffix — the same hash the wire frames use — so a truncated
//! or bit-flipped trace is detected line-exactly by [`read_trace`].
//!
//! Event kinds (`"ev"`):
//!
//! * `meta` — stream header: `{"ev":"meta","version":1,...}`
//! * `span` — one completed phase:
//!   `{"ev":"span","phase":"route_updates","epoch":3,"seq":17,"depth":1,
//!   "start_ns":…,"dur_ns":…,"words":…}`. `phase` is a ledger label
//!   ([`Phase::label`]), `start_ns` is monotonic time since the tracer
//!   was created, `words` the simulated words the bridged
//!   `mpc::Ledger` recorded for the same work (0 where the ledger has
//!   no row), `depth` the span-nesting depth at open, `seq` the global
//!   emission index (file order).
//! * `hist` — a serialized [`Histogram`]:
//!   `{"ev":"hist","name":"wave_width","count":…,"sum":…,"min":…,
//!   "max":…,"buckets":[[lo,hi,count],…]}`
//! * `counter` — `{"ev":"counter","name":"escalations","value":…}`
//! * `peer` — per-peer wire totals from a [`MetricsSnapshot`]:
//!   `{"ev":"peer","peer":0,"bytes_sent":…,"bytes_received":…,
//!   "frames_sent":…,"frames_received":…}`
//!
//! # Disabled path
//!
//! [`Tracer::disabled`] carries no writer, no buffer, and no shared
//! state; [`Tracer::span`] on it builds a stack-only [`Span`] and
//! [`Span::close`] only reads the clock and feeds the registry. Zero
//! events, zero heap allocations — the property the disabled-path test
//! pins down.

use std::io::Write;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sparse_alloc_graph::io::fnv1a64;

use crate::hist::Histogram;
use crate::registry::{Counter, Dist, MetricsSnapshot, Phase, Registry};

struct Out {
    w: Box<dyn Write + Send>,
    seq: u64,
}

struct Inner {
    origin: Instant,
    depth: AtomicU32,
    events: AtomicU64,
    out: Mutex<Out>,
}

/// Handle to a JSONL trace stream (cheap to clone; all clones feed the
/// same stream). The disabled handle is an empty shell.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

/// `Write` adapter sharing a byte buffer with the test that reads it.
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Tracer {
    /// The no-op tracer: emits nothing, allocates nothing.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// Trace to a writer (takes ownership; lines are written eagerly).
    pub fn to_writer(w: Box<dyn Write + Send>) -> Tracer {
        let t = Tracer {
            inner: Some(Arc::new(Inner {
                origin: Instant::now(),
                depth: AtomicU32::new(0),
                events: AtomicU64::new(0),
                out: Mutex::new(Out { w, seq: 0 }),
            })),
        };
        t.emit_line(|_| r#"{"ev":"meta","version":1"#.to_string());
        t
    }

    /// Trace to a freshly created (truncated) file, buffered.
    pub fn to_file(path: &str) -> std::io::Result<Tracer> {
        let f = std::fs::File::create(path)?;
        Ok(Tracer::to_writer(Box::new(std::io::BufWriter::new(f))))
    }

    /// Trace into a shared in-memory buffer (for tests).
    pub fn in_memory() -> (Tracer, Arc<Mutex<Vec<u8>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let t = Tracer::to_writer(Box::new(SharedBuf(buf.clone())));
        (t, buf)
    }

    /// Whether this handle writes events.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Number of events emitted so far (always 0 when disabled).
    pub fn events(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.events.load(Ordering::Relaxed))
    }

    /// Open a phase span. Always measures ([`Span::close`] feeds the
    /// registry even when tracing is off); emits only if enabled.
    pub fn span(&self, phase: Phase, epoch: u64) -> Span {
        let (start_ns, depth) = match &self.inner {
            Some(i) => (
                i.origin.elapsed().as_nanos() as u64,
                i.depth.fetch_add(1, Ordering::Relaxed),
            ),
            None => (0, 0),
        };
        Span {
            inner: self.inner.clone(),
            phase,
            epoch,
            start: Instant::now(),
            start_ns,
            depth,
            words: 0,
        }
    }

    /// Serialize one histogram under `name`.
    pub fn emit_hist(&self, name: &str, h: &Histogram) {
        if self.inner.is_none() || h.is_empty() {
            return;
        }
        let mut buckets = String::from("[");
        for (i, (lo, hi, c)) in h.nonzero_buckets().enumerate() {
            if i > 0 {
                buckets.push(',');
            }
            buckets.push_str(&format!("[{lo},{hi},{c}]"));
        }
        buckets.push(']');
        let (count, sum, min, max) = (h.count(), h.sum(), h.min(), h.max());
        self.emit_line(|_| {
            format!(
                r#"{{"ev":"hist","name":"{name}","count":{count},"sum":{sum},"min":{min},"max":{max},"buckets":{buckets}"#
            )
        });
    }

    /// Serialize one counter value.
    pub fn emit_counter(&self, name: &str, value: u64) {
        if self.inner.is_none() {
            return;
        }
        self.emit_line(|_| format!(r#"{{"ev":"counter","name":"{name}","value":{value}"#));
    }

    /// Serialize a registry: every non-zero counter and non-empty
    /// distribution (phase latency lives in the span events).
    pub fn emit_registry(&self, reg: &Registry) {
        if self.inner.is_none() {
            return;
        }
        for c in Counter::ALL {
            if reg.counter(c) > 0 {
                self.emit_counter(c.name(), reg.counter(c));
            }
        }
        for d in Dist::ALL {
            self.emit_hist(d.name(), reg.dist(d));
        }
    }

    /// Serialize per-peer wire totals.
    pub fn emit_snapshot(&self, snap: &MetricsSnapshot) {
        if self.inner.is_none() {
            return;
        }
        for p in &snap.peers {
            let (peer, bs, br, fs, fr) = (
                p.peer,
                p.bytes_sent,
                p.bytes_received,
                p.frames_sent,
                p.frames_received,
            );
            self.emit_line(|_| {
                format!(
                    r#"{{"ev":"peer","peer":{peer},"bytes_sent":{bs},"bytes_received":{br},"frames_sent":{fs},"frames_received":{fr}"#
                )
            });
        }
    }

    /// Flush the underlying writer.
    pub fn flush(&self) {
        if let Some(i) = &self.inner {
            let _ = i.out.lock().unwrap().w.flush();
        }
    }

    /// Append one checksummed line. `make_body` receives the emission
    /// sequence number and returns the JSON object *without* its closing
    /// brace; the `ck` field and brace are appended here.
    fn emit_line(&self, make_body: impl FnOnce(u64) -> String) {
        let Some(i) = &self.inner else { return };
        let mut out = i.out.lock().unwrap();
        let seq = out.seq;
        out.seq += 1;
        let body = make_body(seq);
        let ck = fnv1a64(body.as_bytes());
        let _ = writeln!(out.w, "{body},\"ck\":\"{ck:016x}\"}}");
        i.events.fetch_add(1, Ordering::Relaxed);
    }
}

/// An open phase span; emits one `span` event when closed (or dropped).
pub struct Span {
    inner: Option<Arc<Inner>>,
    phase: Phase,
    epoch: u64,
    start: Instant,
    start_ns: u64,
    depth: u32,
    words: u64,
}

impl Span {
    /// Attach the simulated words the ledger recorded for this phase.
    pub fn set_words(&mut self, words: u64) {
        self.words = words;
    }

    /// Close the span and record its measured duration as the phase's
    /// latency in `reg` (measured on the disabled-tracer path too, so
    /// the registry sees every phase whether or not a trace is written).
    pub fn close(mut self, reg: &mut Registry) {
        let ns = self.finish();
        reg.phase_ns(self.phase, ns);
    }

    fn finish(&mut self) -> u64 {
        let dur_ns = self.start.elapsed().as_nanos() as u64;
        if let Some(i) = self.inner.take() {
            i.depth.fetch_sub(1, Ordering::Relaxed);
            let (phase, epoch, depth, start_ns, words) = (
                self.phase.label(),
                self.epoch,
                self.depth,
                self.start_ns,
                self.words,
            );
            Tracer { inner: Some(i) }.emit_line(|seq| {
                format!(
                    r#"{{"ev":"span","phase":"{phase}","epoch":{epoch},"seq":{seq},"depth":{depth},"start_ns":{start_ns},"dur_ns":{dur_ns},"words":{words}"#
                )
            });
        }
        dur_ns
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.inner.is_some() {
            self.finish();
        }
    }
}

// ---------------------------------------------------------------- reader

/// One parsed trace event (see the module docs for the format).
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// Stream header.
    Meta {
        /// Format version.
        version: u64,
    },
    /// A completed phase span.
    Span {
        /// Ledger label of the phase.
        phase: String,
        /// Serving epoch the span belongs to.
        epoch: u64,
        /// Global emission index.
        seq: u64,
        /// Nesting depth at open.
        depth: u64,
        /// Monotonic start, ns since the tracer was created.
        start_ns: u64,
        /// Measured duration in ns.
        dur_ns: u64,
        /// Simulated words from the bridged ledger row.
        words: u64,
    },
    /// A serialized histogram.
    Hist {
        /// Metric name.
        name: String,
        /// Observation count.
        count: u64,
        /// Sum of observations.
        sum: u64,
        /// Minimum observation.
        min: u64,
        /// Maximum observation.
        max: u64,
        /// `(lo, hi, count)` bucket triples.
        buckets: Vec<(u64, u64, u64)>,
    },
    /// A counter value.
    Counter {
        /// Counter name.
        name: String,
        /// Final value.
        value: u64,
    },
    /// Per-peer wire totals.
    Peer {
        /// Worker id.
        peer: u64,
        /// Bytes sent to the worker.
        bytes_sent: u64,
        /// Bytes received from the worker.
        bytes_received: u64,
        /// Frames sent to the worker.
        frames_sent: u64,
        /// Frames received from the worker.
        frames_received: u64,
    },
}

fn u64_field(line: &str, key: &str, lno: usize) -> Result<u64, String> {
    let pat = format!("\"{key}\":");
    let at = line
        .find(&pat)
        .ok_or_else(|| format!("line {lno}: missing field '{key}'"))?;
    let rest = &line[at + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end]
        .parse::<u64>()
        .map_err(|_| format!("line {lno}: field '{key}' is not a number"))
}

fn str_field(line: &str, key: &str, lno: usize) -> Result<String, String> {
    let pat = format!("\"{key}\":\"");
    let at = line
        .find(&pat)
        .ok_or_else(|| format!("line {lno}: missing field '{key}'"))?;
    let rest = &line[at + pat.len()..];
    let end = rest
        .find('"')
        .ok_or_else(|| format!("line {lno}: unterminated string '{key}'"))?;
    Ok(rest[..end].to_string())
}

fn buckets_field(line: &str, lno: usize) -> Result<Vec<(u64, u64, u64)>, String> {
    let pat = "\"buckets\":[";
    let at = line
        .find(pat)
        .ok_or_else(|| format!("line {lno}: missing field 'buckets'"))?;
    let rest = &line[at + pat.len()..];
    let end = rest
        .find("]]")
        .map(|i| i + 1)
        .or_else(|| if rest.starts_with(']') { Some(0) } else { None })
        .ok_or_else(|| format!("line {lno}: unterminated buckets array"))?;
    let mut triples = Vec::new();
    for part in rest[..end].split("],") {
        let nums: Vec<&str> = part
            .trim_matches(|c| c == '[' || c == ']')
            .split(',')
            .filter(|s| !s.is_empty())
            .collect();
        if nums.is_empty() {
            continue;
        }
        if nums.len() != 3 {
            return Err(format!(
                "line {lno}: bucket triple has {} fields",
                nums.len()
            ));
        }
        let parse = |s: &str| {
            s.parse::<u64>()
                .map_err(|_| format!("line {lno}: bad bucket number '{s}'"))
        };
        triples.push((parse(nums[0])?, parse(nums[1])?, parse(nums[2])?));
    }
    Ok(triples)
}

/// Parse and checksum-verify a trace stream. Any malformed line — bad
/// checksum, missing field, unknown event — is a hard error naming the
/// line, so a corrupted trace never silently yields a partial report.
pub fn read_trace(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let lno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let at = line
            .rfind(",\"ck\":\"")
            .ok_or_else(|| format!("line {lno}: missing checksum"))?;
        let body = &line[..at];
        let tail = &line[at + ",\"ck\":\"".len()..];
        let hex = tail
            .strip_suffix("\"}")
            .ok_or_else(|| format!("line {lno}: malformed checksum suffix"))?;
        let want =
            u64::from_str_radix(hex, 16).map_err(|_| format!("line {lno}: checksum is not hex"))?;
        let got = fnv1a64(body.as_bytes());
        if want != got {
            return Err(format!(
                "line {lno}: checksum mismatch (recorded {want:016x}, computed {got:016x}) — trace is corrupt"
            ));
        }
        let ev = str_field(body, "ev", lno)?;
        events.push(match ev.as_str() {
            "meta" => TraceEvent::Meta {
                version: u64_field(body, "version", lno)?,
            },
            "span" => TraceEvent::Span {
                phase: str_field(body, "phase", lno)?,
                epoch: u64_field(body, "epoch", lno)?,
                seq: u64_field(body, "seq", lno)?,
                depth: u64_field(body, "depth", lno)?,
                start_ns: u64_field(body, "start_ns", lno)?,
                dur_ns: u64_field(body, "dur_ns", lno)?,
                words: u64_field(body, "words", lno)?,
            },
            "hist" => TraceEvent::Hist {
                name: str_field(body, "name", lno)?,
                count: u64_field(body, "count", lno)?,
                sum: u64_field(body, "sum", lno)?,
                min: u64_field(body, "min", lno)?,
                max: u64_field(body, "max", lno)?,
                buckets: buckets_field(body, lno)?,
            },
            "counter" => TraceEvent::Counter {
                name: str_field(body, "name", lno)?,
                value: u64_field(body, "value", lno)?,
            },
            "peer" => TraceEvent::Peer {
                peer: u64_field(body, "peer", lno)?,
                bytes_sent: u64_field(body, "bytes_sent", lno)?,
                bytes_received: u64_field(body, "bytes_received", lno)?,
                frames_sent: u64_field(body, "frames_sent", lno)?,
                frames_received: u64_field(body, "frames_received", lno)?,
            },
            other => return Err(format!("line {lno}: unknown event kind '{other}'")),
        });
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::PeerWire;

    fn text(buf: &Arc<Mutex<Vec<u8>>>) -> String {
        String::from_utf8(buf.lock().unwrap().clone()).unwrap()
    }

    #[test]
    fn spans_nest_and_order_in_the_stream() {
        let (t, buf) = Tracer::in_memory();
        let mut reg = Registry::new();
        let outer = t.span(Phase::RouteUpdates, 1);
        let mut inner = t.span(Phase::RepairWave, 1);
        inner.set_words(42);
        inner.close(&mut reg);
        outer.close(&mut reg);
        let (inner_ns, outer_ns) = (
            reg.phase(Phase::RepairWave).max(),
            reg.phase(Phase::RouteUpdates).max(),
        );
        assert!(outer_ns >= inner_ns);
        let after = t.span(Phase::CertSweep, 1);
        drop(after); // drop without close still emits, but records no latency
        assert!(reg.phase(Phase::CertSweep).is_empty());
        t.flush();

        let evs = read_trace(&text(&buf)).expect("clean stream parses");
        assert!(matches!(evs[0], TraceEvent::Meta { version: 1 }));
        let spans: Vec<_> = evs
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Span {
                    phase,
                    depth,
                    start_ns,
                    dur_ns,
                    words,
                    seq,
                    ..
                } => Some((phase.clone(), *depth, *start_ns, *dur_ns, *words, *seq)),
                _ => None,
            })
            .collect();
        // Emission order = close order: inner, outer, after.
        assert_eq!(spans[0].0, "repair_wave");
        assert_eq!(spans[1].0, "route_updates");
        assert_eq!(spans[2].0, "cert_sweep");
        // Nesting: inner opened one level below outer and within its window.
        assert_eq!(spans[1].1, 0);
        assert_eq!(spans[0].1, 1);
        assert!(spans[0].2 >= spans[1].2, "inner starts after outer");
        assert!(
            spans[0].2 + spans[0].3 <= spans[1].2 + spans[1].3,
            "inner ends before outer"
        );
        // The sequential span re-opens at depth 0, later in time.
        assert_eq!(spans[2].1, 0);
        assert!(spans[2].2 >= spans[1].2 + spans[1].3);
        // Words bridged from the ledger ride on the span.
        assert_eq!(spans[0].4, 42);
        // seq is strictly increasing in file order.
        assert!(spans.windows(2).all(|w| w[0].5 < w[1].5));
        assert_eq!(t.events(), 4);
    }

    #[test]
    fn corruption_is_detected_line_exactly() {
        let (t, buf) = Tracer::in_memory();
        t.span(Phase::NetRoute, 0).close(&mut Registry::new());
        t.flush();
        let mut bytes = buf.lock().unwrap().clone();
        // Flip one bit inside the second line's body.
        let second = bytes.iter().position(|&b| b == b'\n').unwrap() + 5;
        bytes[second] ^= 1;
        let err = read_trace(std::str::from_utf8(&bytes).unwrap()).unwrap_err();
        assert!(err.contains("line 2"), "wrong line blamed: {err}");
        assert!(err.contains("checksum") || err.contains("missing"), "{err}");
    }

    #[test]
    fn hist_counter_and_peer_events_round_trip() {
        let (t, buf) = Tracer::in_memory();
        let mut reg = Registry::new();
        reg.inc(Counter::Escalations, 3);
        reg.observe(Dist::WaveWidth, 7);
        reg.observe(Dist::WaveWidth, 54);
        t.emit_registry(&reg);
        t.emit_snapshot(&MetricsSnapshot {
            peers: vec![PeerWire {
                peer: 2,
                bytes_sent: 100,
                bytes_received: 50,
                frames_sent: 4,
                frames_received: 3,
            }],
        });
        t.flush();
        let evs = read_trace(&text(&buf)).unwrap();
        assert!(evs.contains(&TraceEvent::Counter {
            name: "escalations".into(),
            value: 3
        }));
        let hist = evs
            .iter()
            .find_map(|e| match e {
                TraceEvent::Hist {
                    name,
                    count,
                    sum,
                    min,
                    max,
                    buckets,
                } if name == "wave_width" => Some((*count, *sum, *min, *max, buckets.clone())),
                _ => None,
            })
            .expect("wave_width histogram present");
        assert_eq!(hist.0, 2);
        assert_eq!(hist.1, 61);
        assert_eq!((hist.2, hist.3), (7, 54));
        let back = Histogram::from_parts(&hist.4, hist.1, hist.2, hist.3);
        assert_eq!(back.count(), 2);
        assert!(evs.contains(&TraceEvent::Peer {
            peer: 2,
            bytes_sent: 100,
            bytes_received: 50,
            frames_sent: 4,
            frames_received: 3
        }));
    }

    #[test]
    fn disabled_tracer_emits_zero_events_and_holds_no_state() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        let mut reg = Registry::new();
        let mut sp = t.span(Phase::RepairWave, 9);
        sp.set_words(1000);
        sp.close(&mut reg);
        // The latency is still measured and recorded.
        assert_eq!(reg.phase(Phase::RepairWave).count(), 1);
        t.emit_counter("escalations", 5);
        t.emit_hist("wave_width", &{
            let mut h = Histogram::new();
            h.record(3);
            h
        });
        t.flush();
        // Zero events; the handle carries no Arc, no buffer, no writer —
        // the span above lived entirely on the stack.
        assert_eq!(t.events(), 0);
        assert!(std::mem::size_of::<Tracer>() <= std::mem::size_of::<usize>() * 2);
    }
}
