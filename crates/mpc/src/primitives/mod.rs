//! Standard MPC primitives (paper §5: "standard primitives such as graph
//! exponentiation and sorting, which are by now standard in the MPC
//! literature").
//!
//! Each primitive charges its true communication cost to the cluster's
//! [`crate::Ledger`]:
//!
//! | primitive | rounds |
//! |---|---|
//! | [`sort::sort_by_key`] | 2 + broadcast (sample sort) |
//! | [`aggregate::aggregate_by_key`] | 1 (with local combining) |
//! | [`broadcast::broadcast_value`] | `⌈log_f N⌉` for fan-out `f = S / |v|` |
//! | [`ball::grow_balls`] | `2⌈log₂ r⌉` (graph exponentiation) |
//! | [`prefix::prefix_sums`] | 2 (reduce + scatter) |
//! | [`dedup::dedup_by_key`] | sort + 2 boundary rounds |

pub mod aggregate;
pub mod ball;
pub mod broadcast;
pub mod dedup;
pub mod prefix;
pub mod sort;

pub use aggregate::aggregate_by_key;
pub use ball::{grow_balls, Ball, BallInput};
pub use broadcast::{broadcast_value, broadcast_value_labeled};
pub use dedup::{count_distinct, dedup_by_key};
pub use prefix::{global_sum, prefix_sums};
pub use sort::sort_by_key;
