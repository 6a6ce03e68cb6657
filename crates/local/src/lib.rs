//! LOCAL-model runtime: synchronous vertex programs on bipartite graphs.
//!
//! The LOCAL model (paper §2.2) places a processor at every vertex;
//! computation proceeds in synchronous rounds, and in each round a vertex
//! may send one message along each incident edge. Messages sent in round
//! `r` are delivered at the beginning of round `r + 1`.
//!
//! This crate provides:
//!
//! * [`LocalProgram`] — the vertex-program trait (state + message types,
//!   an `init` and a `round` callback),
//! * [`LocalEngine`] — the executor: double-buffered per-edge mailboxes,
//!   rayon-parallel vertex execution, deterministic regardless of thread
//!   count, with round/message [`RoundMetrics`](sparse_alloc_obs::RoundMetrics),
//! * [`programs`] — reference programs (BFS, degree aggregation) used for
//!   engine validation and as examples.
//!
//! The paper's Algorithm 1 has a hand-optimized implementation in
//! `sparse-alloc-core`; the engine-based version in
//! [`programs::proportional`] is cross-validated against it in that
//! crate's tests, which is the evidence that the engine faithfully
//! implements LOCAL-model semantics.
//!
//! # Example
//!
//! ```
//! use sparse_alloc_local::{LocalEngine, programs::BfsProgram};
//! use sparse_alloc_graph::generators::grid;
//!
//! let g = grid(8, 8, 1).graph;
//! let mut left_sources = vec![false; g.n_left()];
//! left_sources[0] = true;
//! let program = BfsProgram { left_sources, right_sources: vec![false; g.n_right()] };
//!
//! let result = LocalEngine::new(&g).run(&program, 100);
//! assert!(result.metrics.halted);
//! // Every vertex of the connected grid was reached.
//! assert!(result.left_states.iter().all(|s| s.dist.is_some()));
//! assert!(result.right_states.iter().all(|s| s.dist.is_some()));
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod program;
pub mod programs;
mod sync_slice;

pub use engine::LocalEngine;
pub use program::{LocalProgram, VertexCtx};
