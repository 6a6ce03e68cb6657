//! Workspace observability: one metrics vocabulary, phase tracing, and a
//! post-mortem flight recorder.
//!
//! The `mpc::Ledger` meters exactly the quantities the paper's theorems
//! bound — simulated rounds, words, and space. This crate adds the
//! *system* side of the picture without replacing that cost model:
//!
//! * [`Histogram`] — a fixed-size, log₂-bucketed histogram; recording is
//!   a few integer ops, no allocation ever.
//! * [`Registry`] — the workspace metrics vocabulary: named counters
//!   ([`Counter`]), distributions ([`Dist`]), and per-phase latency
//!   histograms keyed by [`Phase`]. Backed by fixed arrays, so the hot
//!   path never allocates (the same discipline as `dynamic::stamp`'s
//!   epoch-stamped scratch).
//! * [`Phase`] — the phase vocabulary. A phase's label is both its
//!   ledger label and its trace name, so a trace and the simulated cost
//!   model speak the same names.
//! * [`Tracer`] / [`Span`] — monotonic-clock phase spans emitted as a
//!   checksummed JSONL stream ([`trace`] documents the format); closing
//!   a span records its latency in the [`Registry`]. A disabled tracer
//!   emits zero events and allocates nothing.
//! * [`FlightRecorder`] — a fixed-size ring of recent protocol events
//!   and frame headers, kept per peer by the transport and dumped on
//!   any wire fault for post-mortem.
//! * [`RoundMetrics`] — LOCAL-model round/message accounting (what
//!   `sparse_alloc_local`'s engine reports per run).
//! * [`MetricsSnapshot`] — per-peer wire counters exported by the
//!   transport mesh, the single source for e21 and `salloc report`.

#![warn(missing_docs)]

pub mod flight;
pub mod hist;
pub mod registry;
pub mod rounds;
pub mod trace;

pub use flight::{FlightEvent, FlightKind, FlightRecorder};
pub use hist::Histogram;
pub use registry::{Counter, Dist, MetricsSnapshot, PeerWire, Phase, Registry};
pub use rounds::RoundMetrics;
pub use trace::{read_trace, Span, TraceEvent, Tracer};
