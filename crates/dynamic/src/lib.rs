//! Dynamic allocation: incremental `(1+ε)`-maintenance under updates.
//!
//! Every other path through this workspace recomputes the allocation from
//! scratch. The paper's machinery is exactly what makes *incremental*
//! maintenance cheap: the locally adjustable `β_v` multipliers and level
//! sets confine a single update's influence on the proportional dynamics
//! to an `O(τ)`-hop ball, and the Appendix-B bounded-length
//! augmenting-walk argument makes the integral `k/(k+1)` certificate
//! locally repairable. This crate turns that observation into a serving
//! subsystem:
//!
//! | piece | module |
//! |---|---|
//! | update vocabulary (arrive/depart/insert/delete/capacity) | [`update`] |
//! | bounded augmenting-walk repair of the integral allocation | [`walks`] |
//! | `O(τ)`-ball repair of the β-levels | [`repair`] |
//! | the serving façade; its churn budget folds the overlay | [`serve`] |
//! | epoch-stamped sets/maps for the scheduling hot path | [`stamp`] |
//! | conflict batching of update balls into parallel waves | [`batch`] |
//! | sharded serving across the MPC simulator | [`distributed`] |
//! | shard workers on a real transport (loopback / TCP) | [`net`] |
//! | the one interface all three engines implement | [`engine`] |
//! | checkpoint/restore snapshots for warm restarts | [`snapshot`] |
//! | write-ahead log + crash recovery by replay | [`wal`] |
//! | adapters from `sparse-alloc-online` streams, churn generator | [`adapter`] |
//!
//! The graph side lives in `sparse_alloc_graph::delta`: the frozen
//! [`Bipartite`](sparse_alloc_graph::Bipartite) snapshot stays immutable
//! while a [`DeltaGraph`](sparse_alloc_graph::DeltaGraph) overlay absorbs
//! mutations and periodically compacts.
//!
//! # Guarantees
//!
//! After every [`ServeLoop::end_epoch`], the maintained integral
//! allocation has **no augmenting walk of length `≤ 2k−1`** on the live
//! graph (`k` = [`DynamicConfig::walk_budget`]), hence size
//! `≥ k/(k+1) · OPT` — the same certificate the static pipeline's
//! boosting stage produces, maintained incrementally. The fractional
//! β-levels are repaired on the dirty ball only. Once the churn since
//! the last fold exceeds the `O(ε)` budget, the overlay folds into a
//! fresh snapshot; the fold keeps the matching and re-solves the levels
//! only if their fractional weight has fallen below `(1 − ε/2)·|M|`.
//!
//! # Distributed serving
//!
//! [`ShardedServeLoop`] runs the same engine sharded across an
//! [`mpc`](sparse_alloc_mpc) cluster: state is hash-partitioned by vertex
//! ownership, each update batch is routed to the shards owning its balls
//! and repaired in conflict-free parallel waves ([`batch`]), and the
//! per-epoch certificate sweep is a ledger-accounted MPC phase (sorted
//! free-left census, cross-shard migration commit, aggregated census,
//! broadcast summary) whose per-machine space is asserted against an
//! `n^δ`-style budget every epoch. For any update sequence and any shard
//! count, the maintained allocation is identical to the serial
//! [`ServeLoop`]'s — `tests/properties.rs` holds that contract.
//!
//! [`NetServeLoop`] takes the sharded engine onto a *real* wire: each
//! shard is a worker thread owning its slice of the matching and levels,
//! and every epoch phase is an exchange of checksummed frames over
//! deterministic in-process loopback or framed TCP
//! ([`net::TransportKind`]). The same equivalence contract holds over
//! both transports, and every injected transport fault (dropped peer,
//! truncated frame, flipped bit, reordering) surfaces as a typed
//! [`net::NetError`] — never a panic, never a silently wrong matching
//! (`tests/transport.rs`).
//!
//! # Warm restarts
//!
//! Both engines checkpoint to a versioned, checksummed binary snapshot
//! ([`snapshot`]) and restore **warm**: the restored engine is
//! observably identical to one that never stopped — same mate vector,
//! same `k/(k+1)` certificate, same churn budget and epoch counters —
//! and a sharded snapshot can be restored onto a *different* shard count
//! (`tests/persistence.rs` proves both). The CLI exposes the path as
//! `salloc dynamic --checkpoint/--restore`.
//!
//! Between snapshots, a write-ahead log ([`wal`]) records every update
//! batch and epoch boundary in checksummed frames; crash recovery is
//! `last base snapshot + log tail replay`, with torn tails repaired and
//! every corruption mode surfacing as a typed [`wal::WalError`].
//!
//! # Example
//!
//! ```
//! use sparse_alloc_dynamic::{DynamicConfig, ServeLoop, Update};
//! use sparse_alloc_graph::generators::union_of_spanning_trees;
//!
//! let g = union_of_spanning_trees(200, 150, 3, 2, 7).graph;
//! let mut serve = ServeLoop::new(g, DynamicConfig::for_eps(0.25));
//!
//! // A client departs; a new one arrives wanting servers 3 or 4.
//! serve.apply(&Update::Depart { u: 17 });
//! let id = serve.apply(&Update::Arrive { neighbors: vec![3, 4] }).unwrap();
//! serve.end_epoch();
//!
//! assert!(serve.query(17).is_none());
//! let _ = serve.query(id); // Some(server) if capacity allowed
//! serve.validate().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapter;
pub mod batch;
pub mod distributed;
pub mod engine;
pub mod net;
pub mod repair;
pub mod serve;
pub mod snapshot;
pub mod stamp;
pub mod update;
pub mod wal;
pub mod walks;

pub use distributed::{ShardedConfig, ShardedServeLoop};
pub use engine::{Engine, EngineError};
pub use net::{NetEpochReport, NetError, NetServeLoop, NetStats, SupervisorConfig, TransportKind};
pub use serve::{DynamicConfig, EpochReport, ServeLoop, ServeStats};
pub use snapshot::SnapshotError;
pub use update::Update;
pub use wal::{WalError, WalRecord, WalWriter};
pub use walks::Matching;
