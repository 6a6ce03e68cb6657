//! Bipartite-graph substrate for the `sparse-alloc` workspace.
//!
//! This crate provides everything the allocation algorithms of
//! Łącki–Mitrović–Ramachandran–Sheu (SPAA 2025) need from a graph library:
//!
//! * [`Bipartite`] — an immutable, doubly-indexed CSR representation of a
//!   bipartite graph `G = (L ∪ R, E)` with integer capacities on `R`.
//! * [`BipartiteBuilder`] — a mutable edge-list builder with validation and
//!   deduplication.
//! * [`DeltaGraph`] — a mutation overlay over a frozen snapshot (edge
//!   inserts/deletes, left arrivals/departures, capacity changes) with
//!   periodic compaction, for the dynamic-allocation engine.
//! * [`LeftRows`] — the left-row view both implement, so an aggregation
//!   over the left rows reads a live graph without compacting it.
//! * [`generators`] — graph families with *controllable arboricity*
//!   (union-of-random-spanning-trees, stars, random bipartite, power-law
//!   ad-workloads, grids, adversarial layered instances).
//! * [`capacities`] — capacity models for the `R` side.
//! * [`sparsity`] — the uniform-sparsity toolkit: degeneracy via bucket
//!   peeling and Nash–Williams density lower bounds, which bracket the
//!   arboricity `λ` from both sides.
//! * [`reduction`] — the vertex-split reduction from allocation to plain
//!   matching, used to reproduce the paper's Remark 1 (the reduction can
//!   blow up arboricity from `Θ(1)` to `Θ(n)`).
//! * [`io`] — JSON (serde) and plain edge-list serialization.
//!
//! # Conventions
//!
//! Vertices on each side are dense `u32` indices: `u ∈ 0..n_left()` and
//! `v ∈ 0..n_right()`. Every edge has a dense *edge id* equal to its position
//! in the left-side CSR; per-edge data (e.g. fractional allocation values)
//! is stored in `Vec`s indexed by edge id.

//! # Example
//!
//! ```
//! use sparse_alloc_graph::BipartiteBuilder;
//! use sparse_alloc_graph::sparsity::arboricity_bracket;
//!
//! // Two clients, one server with 2 slots.
//! let mut b = BipartiteBuilder::new(2, 1);
//! b.add_edge(0, 0);
//! b.add_edge(1, 0);
//! let g = b.build(vec![2]).unwrap();
//!
//! assert_eq!(g.m(), 2);
//! assert_eq!(g.right_degree(0), 2);
//! assert_eq!(g.capacity(0), 2);
//!
//! // A path is a forest: arboricity exactly 1.
//! let bracket = arboricity_bracket(&g);
//! assert_eq!((bracket.lower, bracket.upper), (1, 1));
//! ```

#![warn(missing_docs)]

pub mod assignment;
pub mod bipartite;
pub mod builder;
pub mod capacities;
pub mod delta;
pub mod generators;
pub mod io;
pub mod reduction;
pub mod sparsity;
pub mod stats;

pub use assignment::Assignment;
pub use bipartite::{Bipartite, EdgeId, LeftId, LeftRows, RightId, Side};
pub use builder::BipartiteBuilder;
pub use capacities::CapacityModel;
pub use delta::{DeltaGraph, InsertOverlay};
