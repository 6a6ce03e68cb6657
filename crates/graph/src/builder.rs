//! Mutable edge-list builder producing frozen [`Bipartite`] graphs.

use crate::bipartite::{Bipartite, LeftId, RightId};

/// Errors raised while freezing a [`BipartiteBuilder`] into a [`Bipartite`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// An edge references a left vertex `≥ n_left`.
    LeftOutOfRange {
        /// The offending left endpoint.
        u: LeftId,
        /// Number of left vertices the builder was created with.
        n_left: usize,
    },
    /// An edge references a right vertex `≥ n_right`.
    RightOutOfRange {
        /// The offending right endpoint.
        v: RightId,
        /// Number of right vertices the builder was created with.
        n_right: usize,
    },
    /// The capacity vector has the wrong length or contains a zero.
    BadCapacities(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::LeftOutOfRange { u, n_left } => {
                write!(f, "left vertex {u} out of range (n_left = {n_left})")
            }
            BuildError::RightOutOfRange { v, n_right } => {
                write!(f, "right vertex {v} out of range (n_right = {n_right})")
            }
            BuildError::BadCapacities(msg) => write!(f, "bad capacities: {msg}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Accumulates edges of a bipartite graph and freezes them into CSR form.
///
/// Duplicate edges are removed during [`BipartiteBuilder::build`] (the
/// allocation problem is defined on simple graphs). Edge insertion order does
/// not affect the result: edges are sorted by `(u, v)` before freezing, so
/// two builders with the same edge *set* produce identical graphs — a
/// property the deterministic-replay tests rely on.
#[derive(Debug, Clone)]
pub struct BipartiteBuilder {
    n_left: usize,
    n_right: usize,
    edges: Vec<(LeftId, RightId)>,
}

impl BipartiteBuilder {
    /// Create a builder for a graph with `n_left` and `n_right` vertices.
    pub fn new(n_left: usize, n_right: usize) -> Self {
        BipartiteBuilder {
            n_left,
            n_right,
            edges: Vec::new(),
        }
    }

    /// Create a builder with pre-reserved edge capacity.
    pub fn with_edge_capacity(n_left: usize, n_right: usize, m: usize) -> Self {
        BipartiteBuilder {
            n_left,
            n_right,
            edges: Vec::with_capacity(m),
        }
    }

    /// Number of left vertices this builder was created with.
    pub fn n_left(&self) -> usize {
        self.n_left
    }

    /// Number of right vertices this builder was created with.
    pub fn n_right(&self) -> usize {
        self.n_right
    }

    /// Number of edges added so far (*before* deduplication).
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Append edge `(u, v)`. Range checking is deferred to [`Self::build`].
    #[inline]
    pub fn add_edge(&mut self, u: LeftId, v: RightId) {
        self.edges.push((u, v));
    }

    /// Append many edges at once.
    pub fn extend_edges(&mut self, it: impl IntoIterator<Item = (LeftId, RightId)>) {
        self.edges.extend(it);
    }

    /// Freeze into a [`Bipartite`] with the given capacity vector.
    pub fn build(mut self, capacities: Vec<u64>) -> Result<Bipartite, BuildError> {
        if capacities.len() != self.n_right {
            return Err(BuildError::BadCapacities(format!(
                "expected {} capacities, got {}",
                self.n_right,
                capacities.len()
            )));
        }
        if let Some(i) = capacities.iter().position(|&c| c == 0) {
            return Err(BuildError::BadCapacities(format!(
                "capacity of right vertex {i} is zero"
            )));
        }
        for &(u, v) in &self.edges {
            if (u as usize) >= self.n_left {
                return Err(BuildError::LeftOutOfRange {
                    u,
                    n_left: self.n_left,
                });
            }
            if (v as usize) >= self.n_right {
                return Err(BuildError::RightOutOfRange {
                    v,
                    n_right: self.n_right,
                });
            }
        }

        self.edges.sort_unstable();
        self.edges.dedup();

        // Left CSR (edges already sorted by (u, v)); the right CSR follows.
        let mut left_offsets = vec![0usize; self.n_left + 1];
        for &(u, _) in &self.edges {
            left_offsets[u as usize + 1] += 1;
        }
        for i in 0..self.n_left {
            left_offsets[i + 1] += left_offsets[i];
        }
        let left_adj: Vec<RightId> = self.edges.iter().map(|&(_, v)| v).collect();
        Ok(Bipartite::from_left_csr(left_offsets, left_adj, capacities))
    }

    /// Freeze with every right vertex given capacity `c`.
    pub fn build_with_uniform_capacity(self, c: u64) -> Result<Bipartite, BuildError> {
        let n_right = self.n_right;
        self.build(vec![c; n_right])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_sort() {
        let mut b = BipartiteBuilder::new(2, 2);
        b.add_edge(1, 1);
        b.add_edge(0, 0);
        b.add_edge(1, 1); // duplicate
        b.add_edge(0, 1);
        let g = b.build_with_uniform_capacity(1).unwrap();
        assert_eq!(g.m(), 3);
        assert_eq!(g.left_neighbors(0), &[0, 1]);
        assert_eq!(g.left_neighbors(1), &[1]);
        g.validate().unwrap();
    }

    #[test]
    fn insertion_order_irrelevant() {
        let edges = [(0u32, 2u32), (1, 0), (2, 1), (0, 0), (2, 2)];
        let mut b1 = BipartiteBuilder::new(3, 3);
        let mut b2 = BipartiteBuilder::new(3, 3);
        for &(u, v) in &edges {
            b1.add_edge(u, v);
        }
        for &(u, v) in edges.iter().rev() {
            b2.add_edge(u, v);
        }
        let g1 = b1.build_with_uniform_capacity(1).unwrap();
        let g2 = b2.build_with_uniform_capacity(1).unwrap();
        assert_eq!(g1.left_adj, g2.left_adj);
        assert_eq!(g1.left_offsets, g2.left_offsets);
        assert_eq!(g1.right_adj, g2.right_adj);
        assert_eq!(g1.right_edge_ids, g2.right_edge_ids);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut b = BipartiteBuilder::new(2, 2);
        b.add_edge(2, 0);
        assert!(matches!(
            b.build_with_uniform_capacity(1),
            Err(BuildError::LeftOutOfRange { u: 2, n_left: 2 })
        ));

        let mut b = BipartiteBuilder::new(2, 2);
        b.add_edge(0, 5);
        assert!(matches!(
            b.build_with_uniform_capacity(1),
            Err(BuildError::RightOutOfRange { v: 5, n_right: 2 })
        ));
    }

    #[test]
    fn capacity_validation() {
        let b = BipartiteBuilder::new(1, 2);
        assert!(matches!(
            b.clone().build(vec![1]),
            Err(BuildError::BadCapacities(_))
        ));
        assert!(matches!(
            b.build(vec![1, 0]),
            Err(BuildError::BadCapacities(_))
        ));
    }

    #[test]
    fn zero_sided_graphs_are_valid() {
        // No right vertices: empty capacity vector, no edges possible.
        let g = BipartiteBuilder::new(3, 0).build(vec![]).unwrap();
        assert_eq!(g.n_left(), 3);
        assert_eq!(g.n_right(), 0);
        assert_eq!(g.m(), 0);
        g.validate().unwrap();

        // No left vertices.
        let g = BipartiteBuilder::new(0, 2).build(vec![1, 1]).unwrap();
        assert_eq!(g.n_left(), 0);
        assert_eq!(g.m(), 0);
        g.validate().unwrap();

        // An edge into an empty side is rejected.
        let mut b = BipartiteBuilder::new(3, 0);
        b.add_edge(0, 0);
        assert!(b.build(vec![]).is_err());
    }

    #[test]
    fn extend_edges_works() {
        let mut b = BipartiteBuilder::with_edge_capacity(3, 3, 4);
        b.extend_edges([(0, 0), (1, 1), (2, 2)]);
        assert_eq!(b.n_edges(), 3);
        let g = b.build_with_uniform_capacity(2).unwrap();
        assert_eq!(g.m(), 3);
    }
}
