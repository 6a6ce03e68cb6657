//! A mutable overlay over an immutable [`Bipartite`] snapshot.
//!
//! [`Bipartite`] is frozen CSR by design — every solver in the workspace
//! relies on that. The dynamic-allocation engine
//! (`sparse-alloc-dynamic`) nevertheless has to absorb a live stream of
//! edge inserts/deletes, left-vertex arrivals/departures, and capacity
//! changes. [`DeltaGraph`] reconciles the two: the base snapshot stays
//! immutable, mutations accumulate in small overlay structures, and
//! [`DeltaGraph::compact`] periodically folds the overlay back into a
//! fresh CSR snapshot.
//!
//! Adjacency queries see the *live* graph (base minus removed edges plus
//! overlay edges); their cost is the base CSR scan plus an `O(1)` hash
//! probe per base edge and an `O(deg_overlay)` tail. Left vertices keep
//! stable ids across every mutation and across compaction: departures
//! leave a degree-0 slot behind, arrivals append at the end. The right
//! vertex set is fixed (capacity changes are in-place), matching the
//! paper's serving setting where servers are long-lived and clients churn.

use std::collections::{HashMap, HashSet};

use crate::bipartite::{Bipartite, LeftId, RightId};
use crate::io::{self, ByteReader, ByteWriter, IoError};

/// A live bipartite graph: an immutable base snapshot plus a mutation
/// overlay.
///
/// Construction starts from a snapshot ([`DeltaGraph::new`]); mutations
/// go through [`insert_edge`](DeltaGraph::insert_edge),
/// [`delete_edge`](DeltaGraph::delete_edge),
/// [`arrive`](DeltaGraph::arrive), [`depart`](DeltaGraph::depart) and
/// [`set_capacity`](DeltaGraph::set_capacity). When
/// [`overlay_edges`](DeltaGraph::overlay_edges) grows past the caller's
/// budget, [`compact`](DeltaGraph::compact) produces a fresh snapshot
/// with identical vertex ids.
#[derive(Debug, Clone)]
pub struct DeltaGraph {
    base: Bipartite,
    /// Adjacency of arrived left vertices (ids `base.n_left()..`).
    extra_adj: Vec<Vec<RightId>>,
    /// Overlay edges attached to *base* left vertices.
    added: HashMap<LeftId, Vec<RightId>>,
    /// Deleted base edges (overlay edges are deleted in place instead).
    removed: HashSet<(LeftId, RightId)>,
    /// Per-vertex counts of removed base edges: the adjacency iterators
    /// skip the hash probe entirely for the (at low churn, vast) majority
    /// of vertices with no deletions.
    removed_left: Vec<u32>,
    removed_right: Vec<u32>,
    /// Reverse index of all overlay edges, per right vertex.
    added_right: HashMap<RightId, Vec<LeftId>>,
    /// Per-vertex counts of overlay edges, the additive mirror of
    /// `removed_left`/`removed_right`: adjacency scans hash into
    /// `added`/`added_right` only for vertices that actually carry staged
    /// edges. (`added_left_n` covers base lefts; arrivals live in
    /// `extra_adj` and never hash.)
    added_left_n: Vec<u32>,
    added_right_n: Vec<u32>,
    /// Live capacities (base capacities with in-place overrides).
    caps: Vec<u64>,
    /// Live edge count.
    m_live: usize,
}

impl DeltaGraph {
    /// Wrap a frozen snapshot with an empty overlay.
    pub fn new(base: Bipartite) -> Self {
        let caps = base.capacities().to_vec();
        let m_live = base.m();
        let removed_left = vec![0; base.n_left()];
        let removed_right = vec![0; base.n_right()];
        let added_left_n = vec![0; base.n_left()];
        let added_right_n = vec![0; base.n_right()];
        DeltaGraph {
            base,
            extra_adj: Vec::new(),
            added: HashMap::new(),
            removed: HashSet::new(),
            removed_left,
            removed_right,
            added_right: HashMap::new(),
            added_left_n,
            added_right_n,
            caps,
            m_live,
        }
    }

    /// The underlying frozen snapshot (pre-overlay).
    pub fn base(&self) -> &Bipartite {
        &self.base
    }

    /// Number of left vertices, including arrivals and departed slots.
    #[inline]
    pub fn n_left(&self) -> usize {
        self.base.n_left() + self.extra_adj.len()
    }

    /// Number of right vertices (fixed for the lifetime of the overlay).
    #[inline]
    pub fn n_right(&self) -> usize {
        self.base.n_right()
    }

    /// Live number of edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.m_live
    }

    /// Live capacity of right vertex `v`.
    #[inline]
    pub fn capacity(&self, v: RightId) -> u64 {
        self.caps[v as usize]
    }

    /// The live capacity vector.
    #[inline]
    pub fn capacities(&self) -> &[u64] {
        &self.caps
    }

    /// Number of edges living in the overlay (deleted base edges count:
    /// they are consulted on every base scan until compaction).
    pub fn overlay_edges(&self) -> usize {
        let added: usize = self.added.values().map(Vec::len).sum();
        let extra: usize = self.extra_adj.iter().map(Vec::len).sum();
        self.removed.len() + added + extra
    }

    /// Does the live graph contain edge `(u, v)`?
    pub fn has_edge(&self, u: LeftId, v: RightId) -> bool {
        if (u as usize) < self.base.n_left() {
            let in_base = self.base.left_neighbors(u).binary_search(&v).is_ok()
                && (self.removed_left[u as usize] == 0 || !self.removed.contains(&(u, v)));
            in_base
                || (self.added_left_n[u as usize] != 0
                    && self.added.get(&u).is_some_and(|a| a.contains(&v)))
        } else {
            self.extra_adj
                .get(u as usize - self.base.n_left())
                .is_some_and(|a| a.contains(&v))
        }
    }

    /// Live neighbors of left vertex `u`.
    pub fn left_neighbors_iter(&self, u: LeftId) -> impl Iterator<Item = RightId> + Clone + '_ {
        static EMPTY: [RightId; 0] = [];
        let (base_slice, overlay): (&[RightId], &[RightId]) = if (u as usize) < self.base.n_left() {
            (
                self.base.left_neighbors(u),
                if self.added_left_n[u as usize] == 0 {
                    &EMPTY[..]
                } else {
                    self.added.get(&u).map_or(&EMPTY[..], Vec::as_slice)
                },
            )
        } else {
            (
                &EMPTY[..],
                self.extra_adj[u as usize - self.base.n_left()].as_slice(),
            )
        };
        let untouched = (u as usize) >= self.base.n_left() || self.removed_left[u as usize] == 0;
        base_slice
            .iter()
            .copied()
            .filter(move |&v| untouched || !self.removed.contains(&(u, v)))
            .chain(overlay.iter().copied())
    }

    /// Live neighbors of right vertex `v`.
    pub fn right_neighbors_iter(&self, v: RightId) -> impl Iterator<Item = LeftId> + Clone + '_ {
        static EMPTY: [LeftId; 0] = [];
        let untouched = self.removed_right[v as usize] == 0;
        self.base
            .right_neighbors(v)
            .iter()
            .copied()
            .filter(move |&u| untouched || !self.removed.contains(&(u, v)))
            .chain(
                if self.added_right_n[v as usize] == 0 {
                    &EMPTY[..]
                } else {
                    self.added_right.get(&v).map_or(&EMPTY[..], Vec::as_slice)
                }
                .iter()
                .copied(),
            )
    }

    /// Visit every live neighbor of left vertex `u` — the closure-based
    /// mirror of [`DeltaGraph::left_neighbors_iter`], same edges in the
    /// same order. On hot paths (the conflict scheduler's ball growth
    /// calls this once per scanned vertex) the visitor form beats the
    /// chained iterator: the deleted-edge branch and the overlay hash
    /// probe are hoisted out of the per-edge loop, which runs over plain
    /// slices.
    #[inline]
    pub fn for_each_left_neighbor(&self, u: LeftId, mut f: impl FnMut(RightId)) {
        if (u as usize) < self.base.n_left() {
            let base = self.base.left_neighbors(u);
            if self.removed_left[u as usize] == 0 {
                for &v in base {
                    f(v);
                }
            } else {
                for &v in base {
                    if !self.removed.contains(&(u, v)) {
                        f(v);
                    }
                }
            }
            if self.added_left_n[u as usize] != 0 {
                if let Some(extra) = self.added.get(&u) {
                    for &v in extra {
                        f(v);
                    }
                }
            }
        } else if let Some(extra) = self.extra_adj.get(u as usize - self.base.n_left()) {
            for &v in extra {
                f(v);
            }
        }
    }

    /// Visit every live neighbor of right vertex `v` — the closure-based
    /// mirror of [`DeltaGraph::right_neighbors_iter`] (see
    /// [`DeltaGraph::for_each_left_neighbor`] for why it exists).
    #[inline]
    pub fn for_each_right_neighbor(&self, v: RightId, mut f: impl FnMut(LeftId)) {
        let base = self.base.right_neighbors(v);
        if self.removed_right[v as usize] == 0 {
            for &u in base {
                f(u);
            }
        } else {
            for &u in base {
                if !self.removed.contains(&(u, v)) {
                    f(u);
                }
            }
        }
        if self.added_right_n[v as usize] != 0 {
            if let Some(extra) = self.added_right.get(&v) {
                for &u in extra {
                    f(u);
                }
            }
        }
    }

    /// Live degree of left vertex `u` (0 after departure).
    pub fn left_degree(&self, u: LeftId) -> usize {
        self.left_neighbors_iter(u).count()
    }

    /// Live degree of right vertex `v`.
    pub fn right_degree(&self, v: RightId) -> usize {
        self.right_neighbors_iter(v).count()
    }

    /// Insert edge `(u, v)`. Returns `false` (and changes nothing) if the
    /// edge already exists.
    ///
    /// # Panics
    /// Panics if `u ≥ n_left()` or `v ≥ n_right()` — grow the left side
    /// with [`arrive`](DeltaGraph::arrive) first.
    pub fn insert_edge(&mut self, u: LeftId, v: RightId) -> bool {
        assert!((u as usize) < self.n_left(), "left vertex {u} out of range");
        assert!(
            (v as usize) < self.n_right(),
            "right vertex {v} out of range"
        );
        if self.has_edge(u, v) {
            return false;
        }
        // Re-inserting a deleted base edge just un-deletes it; the base CSR
        // already stores it in both directions.
        if (u as usize) < self.base.n_left() && self.removed.remove(&(u, v)) {
            self.removed_left[u as usize] -= 1;
            self.removed_right[v as usize] -= 1;
            self.m_live += 1;
            return true;
        }
        if (u as usize) < self.base.n_left() {
            self.added.entry(u).or_default().push(v);
            self.added_left_n[u as usize] += 1;
        } else {
            self.extra_adj[u as usize - self.base.n_left()].push(v);
        }
        self.added_right.entry(v).or_default().push(u);
        self.added_right_n[v as usize] += 1;
        self.m_live += 1;
        true
    }

    /// Delete edge `(u, v)`. Returns `false` if the edge is not live.
    pub fn delete_edge(&mut self, u: LeftId, v: RightId) -> bool {
        if !self.has_edge(u, v) {
            return false;
        }
        let base_edge = (u as usize) < self.base.n_left()
            && self.base.left_neighbors(u).binary_search(&v).is_ok()
            && !self.removed.contains(&(u, v));
        if base_edge {
            self.removed.insert((u, v));
            self.removed_left[u as usize] += 1;
            self.removed_right[v as usize] += 1;
        } else {
            if (u as usize) < self.base.n_left() {
                self.added
                    .get_mut(&u)
                    .expect("overlay edge")
                    .retain(|&w| w != v);
                self.added_left_n[u as usize] -= 1;
            } else {
                self.extra_adj[u as usize - self.base.n_left()].retain(|&w| w != v);
            }
            self.added_right
                .get_mut(&v)
                .expect("reverse overlay edge")
                .retain(|&w| w != u);
            self.added_right_n[v as usize] -= 1;
        }
        self.m_live -= 1;
        true
    }

    /// A new left vertex arrives with the given neighbor set (deduplicated)
    /// and receives the next free id, which is returned.
    ///
    /// # Panics
    /// Panics if any neighbor is out of range.
    pub fn arrive(&mut self, neighbors: &[RightId]) -> LeftId {
        let u = self.n_left() as LeftId;
        self.arrive_at(u, neighbors);
        u
    }

    /// A new left vertex arrives under a *caller-assigned* id `u` — the id
    /// the serial engine would have handed out in batch order. The wave
    /// scheduler precomputes those ids, which lets commuting (footprint-
    /// disjoint) arrivals execute out of batch order: if a later-id arrival
    /// runs first, the id space grows with edge-free placeholder slots that
    /// stay invisible to every traversal (degree 0, unmatched) until their
    /// own arrival fills them. Within one batch every scheduled arrival
    /// executes, so no placeholder outlives the batch.
    ///
    /// # Panics
    /// Panics if `u` addresses a base (pre-overlay) vertex, if the slot is
    /// already occupied by an arrival with edges, or if any neighbor is out
    /// of range.
    pub fn arrive_at(&mut self, u: LeftId, neighbors: &[RightId]) {
        let base = self.base.n_left();
        assert!(
            (u as usize) >= base,
            "arrive_at({u}) addresses a base vertex"
        );
        let slot = u as usize - base;
        if slot >= self.extra_adj.len() {
            self.extra_adj.resize_with(slot + 1, Vec::new);
        }
        assert!(
            self.extra_adj[slot].is_empty(),
            "arrive_at({u}) would overwrite an occupied slot"
        );
        let mut adj: Vec<RightId> = neighbors.to_vec();
        adj.sort_unstable();
        adj.dedup();
        for &v in &adj {
            assert!(
                (v as usize) < self.n_right(),
                "right vertex {v} out of range"
            );
            self.added_right.entry(v).or_default().push(u);
            self.added_right_n[v as usize] += 1;
        }
        self.m_live += adj.len();
        self.extra_adj[slot] = adj;
    }

    /// Left vertex `u` departs: all its incident edges are removed. Its id
    /// stays allocated (degree 0), so per-left arrays never shift. Returns
    /// the neighbors it had at departure.
    pub fn depart(&mut self, u: LeftId) -> Vec<RightId> {
        let neighbors: Vec<RightId> = self.left_neighbors_iter(u).collect();
        for &v in &neighbors {
            self.delete_edge(u, v);
        }
        neighbors
    }

    /// Change the capacity of right vertex `v`.
    ///
    /// # Panics
    /// Panics if `cap == 0` (the allocation problem requires `C_v ≥ 1`).
    pub fn set_capacity(&mut self, v: RightId, cap: u64) {
        assert!(cap >= 1, "capacities must be ≥ 1");
        self.caps[v as usize] = cap;
    }

    /// Split the live graph into per-shard snapshots by right-vertex
    /// ownership: shard `s` receives exactly the live edges whose right
    /// endpoint `v` has `owner(v) == s`. Every shard keeps the full vertex
    /// id space (ids are stable across shards and across compactions) and
    /// the full live capacity vector, so per-shard solvers index the same
    /// arrays the global engine does. `O(n·shards + m)`, plus the sort of
    /// each row that carries overlay edges.
    ///
    /// This is the distributed serve loop's "per-shard compaction": each
    /// machine folds only its owned slice of the overlay, and the union of
    /// the shards' edge sets is the live edge set, each edge appearing on
    /// exactly one shard. Each shard is [`compact`](DeltaGraph::compact)'s
    /// row filter: the sorted live rows restricted to its rights.
    ///
    /// # Panics
    /// Panics if `shards == 0` or `owner` returns an id `≥ shards`.
    pub fn partition_by_right<F>(&self, shards: usize, owner: F) -> Vec<Bipartite>
    where
        F: Fn(RightId) -> usize,
    {
        assert!(shards >= 1, "partition needs at least one shard");
        let mut csrs: Vec<(Vec<usize>, Vec<RightId>)> = (0..shards)
            .map(|_| {
                let mut offsets = Vec::with_capacity(self.n_left() + 1);
                offsets.push(0);
                (offsets, Vec::new())
            })
            .collect();
        let mut row: Vec<RightId> = Vec::new();
        for u in 0..self.n_left() as u32 {
            row.clear();
            self.push_live_row(u, &mut row);
            for &v in &row {
                let s = owner(v);
                assert!(s < shards, "owner({v}) = {s} out of range");
                csrs[s].1.push(v);
            }
            for (offsets, adj) in &mut csrs {
                offsets.push(adj.len());
            }
        }
        csrs.into_iter()
            .map(|(offsets, adj)| Bipartite::from_left_csr(offsets, adj, self.caps.clone()))
            .collect()
    }

    /// Append the live neighbours of `u` to `out`, sorted. Base rows are
    /// sorted already and lose only deleted edges; a row that carries
    /// overlay edges (staged inserts, or any arrival — inserts onto an
    /// arrival append unsorted) is sorted in place. Live rows are
    /// duplicate-free ([`insert_edge`](DeltaGraph::insert_edge) refuses
    /// live edges and revives deleted base edges in place, and
    /// [`arrive_at`](DeltaGraph::arrive_at) dedups), so no dedup pass.
    fn push_live_row(&self, u: LeftId, out: &mut Vec<RightId>) {
        let start = out.len();
        self.for_each_left_neighbor(u, |v| out.push(v));
        let base = (u as usize) < self.base.n_left();
        if !base || self.added_left_n[u as usize] != 0 {
            out[start..].sort_unstable();
        }
    }

    /// Start a thin insert-only overlay view over the live graph — the
    /// union graph `G⁺` of a scheduling batch. See [`InsertOverlay`].
    pub fn insert_overlay(&self) -> InsertOverlay<'_> {
        InsertOverlay::new(self)
    }

    /// Serialize the *full* overlay state — base snapshot, staged edges,
    /// arrivals, deletions, reverse index, live capacities — into the
    /// binary snapshot encoding.
    ///
    /// Why not just [`compact`](DeltaGraph::compact) and serialize the
    /// CSR? Because adjacency *iteration order* is observable: the
    /// dynamic engine's bounded augmenting-walk searches traverse
    /// [`left_neighbors_iter`](DeltaGraph::left_neighbors_iter) /
    /// [`right_neighbors_iter`](DeltaGraph::right_neighbors_iter) in
    /// base-then-overlay order, and a warm restart that silently
    /// compacted would explore walks in CSR order instead — same live
    /// graph, different repairs, diverging state. Persisting the overlay
    /// verbatim (per-vertex list order included) is what makes a restored
    /// engine bit-identical to the uninterrupted one. Hash-map sections
    /// are written in sorted key order, so identical overlays produce
    /// identical bytes.
    pub fn encode(&self, w: &mut ByteWriter) {
        io::write_bipartite(&self.base, w);
        w.put_vec_u64(&self.caps);
        w.put_u64(self.extra_adj.len() as u64);
        for adj in &self.extra_adj {
            w.put_vec_u32(adj);
        }
        let mut added: Vec<(LeftId, &Vec<RightId>)> =
            self.added.iter().map(|(&u, vs)| (u, vs)).collect();
        added.sort_unstable_by_key(|&(u, _)| u);
        w.put_u64(added.len() as u64);
        for (u, vs) in added {
            w.put_u32(u);
            w.put_vec_u32(vs);
        }
        let mut removed: Vec<(LeftId, RightId)> = self.removed.iter().copied().collect();
        removed.sort_unstable();
        w.put_u64(removed.len() as u64);
        for (u, v) in removed {
            w.put_u32(u);
            w.put_u32(v);
        }
        let mut added_right: Vec<(RightId, &Vec<LeftId>)> =
            self.added_right.iter().map(|(&v, us)| (v, us)).collect();
        added_right.sort_unstable_by_key(|&(v, _)| v);
        w.put_u64(added_right.len() as u64);
        for (v, us) in added_right {
            w.put_u32(v);
            w.put_vec_u32(us);
        }
    }

    /// Parse the overlay state written by [`encode`](DeltaGraph::encode),
    /// re-validating every structural invariant (the payload is an
    /// external input): index ranges, deletions that name real base
    /// edges, duplicate-free staged adjacency, and a reverse index that
    /// is exactly the forward overlay transposed. Derived fields (live
    /// edge count, per-vertex deletion counters) are recomputed rather
    /// than trusted.
    pub fn decode(r: &mut ByteReader) -> Result<DeltaGraph, IoError> {
        let bad = |msg: String| IoError::Parse(format!("delta overlay: {msg}"));
        let base = io::read_bipartite(r)?;
        let caps = r.take_vec_u64()?;
        if caps.len() != base.n_right() {
            return Err(bad(format!(
                "{} live capacities for {} right vertices",
                caps.len(),
                base.n_right()
            )));
        }
        if caps.contains(&0) {
            return Err(bad("live capacity 0 (capacities must be ≥ 1)".into()));
        }
        let n_right = base.n_right();
        let check_right = |v: u32| (v as usize) < n_right;
        let n_extra = r.take_len(8)?;
        let mut extra_adj: Vec<Vec<RightId>> = Vec::with_capacity(n_extra);
        for _ in 0..n_extra {
            let adj = r.take_vec_u32()?;
            let mut sorted = adj.clone();
            sorted.sort_unstable();
            sorted.dedup();
            if sorted.len() != adj.len() {
                return Err(bad("duplicate edge in an arrival's adjacency".into()));
            }
            if adj.iter().any(|&v| !check_right(v)) {
                return Err(bad("arrival neighbor out of range".into()));
            }
            extra_adj.push(adj);
        }
        let n_left_total = base.n_left() + extra_adj.len();

        let n_added = r.take_len(12)?;
        let mut added: HashMap<LeftId, Vec<RightId>> = HashMap::with_capacity(n_added);
        for _ in 0..n_added {
            let u = r.take_u32()?;
            let vs = r.take_vec_u32()?;
            if (u as usize) >= base.n_left() {
                return Err(bad(format!("overlay edges staged on non-base left {u}")));
            }
            let mut sorted = vs.clone();
            sorted.sort_unstable();
            sorted.dedup();
            if sorted.len() != vs.len() {
                return Err(bad(format!("duplicate overlay edge at left {u}")));
            }
            for &v in &vs {
                if !check_right(v) {
                    return Err(bad(format!("overlay edge ({u}, {v}) out of range")));
                }
                if base.left_neighbors(u).binary_search(&v).is_ok() {
                    return Err(bad(format!("overlay edge ({u}, {v}) duplicates the base")));
                }
            }
            if added.insert(u, vs).is_some() {
                return Err(bad(format!("left {u} listed twice in the overlay")));
            }
        }

        let n_removed = r.take_len(8)?;
        let mut removed: HashSet<(LeftId, RightId)> = HashSet::with_capacity(n_removed);
        let mut removed_left = vec![0u32; base.n_left()];
        let mut removed_right = vec![0u32; base.n_right()];
        for _ in 0..n_removed {
            let u = r.take_u32()?;
            let v = r.take_u32()?;
            if (u as usize) >= base.n_left() || base.left_neighbors(u).binary_search(&v).is_err() {
                return Err(bad(format!("deleted edge ({u}, {v}) is not a base edge")));
            }
            if !removed.insert((u, v)) {
                return Err(bad(format!("edge ({u}, {v}) deleted twice")));
            }
            removed_left[u as usize] += 1;
            removed_right[v as usize] += 1;
        }

        // The reverse index must be exactly the forward overlay
        // transposed — count every staged edge in both directions.
        let mut pending: HashMap<(LeftId, RightId), i64> = HashMap::new();
        for (&u, vs) in &added {
            for &v in vs {
                *pending.entry((u, v)).or_insert(0) += 1;
            }
        }
        for (i, adj) in extra_adj.iter().enumerate() {
            let u = (base.n_left() + i) as u32;
            for &v in adj {
                *pending.entry((u, v)).or_insert(0) += 1;
            }
        }
        let n_ar = r.take_len(12)?;
        let mut added_right: HashMap<RightId, Vec<LeftId>> = HashMap::with_capacity(n_ar);
        for _ in 0..n_ar {
            let v = r.take_u32()?;
            let us = r.take_vec_u32()?;
            if !check_right(v) {
                return Err(bad(format!("reverse index right {v} out of range")));
            }
            for &u in &us {
                if (u as usize) >= n_left_total {
                    return Err(bad(format!("reverse index left {u} out of range")));
                }
                *pending.entry((u, v)).or_insert(0) -= 1;
            }
            if added_right.insert(v, us).is_some() {
                return Err(bad(format!("right {v} listed twice in the reverse index")));
            }
        }
        if pending.values().any(|&c| c != 0) {
            return Err(bad(
                "reverse index disagrees with the staged adjacency".into()
            ));
        }

        let staged: usize = added.values().map(Vec::len).sum::<usize>()
            + extra_adj.iter().map(Vec::len).sum::<usize>();
        let m_live = base.m() - removed.len() + staged;
        let mut added_left_n = vec![0u32; base.n_left()];
        for (&u, vs) in &added {
            added_left_n[u as usize] = vs.len() as u32;
        }
        let mut added_right_n = vec![0u32; base.n_right()];
        for (&v, us) in &added_right {
            added_right_n[v as usize] = us.len() as u32;
        }
        Ok(DeltaGraph {
            base,
            extra_adj,
            added,
            removed,
            removed_left,
            removed_right,
            added_right,
            added_left_n,
            added_right_n,
            caps,
            m_live,
        })
    }

    /// Fold the overlay into a fresh frozen snapshot with identical vertex
    /// ids (departed left slots persist with degree 0). Equal, array for
    /// array and edge id for edge id, to a [`crate::BipartiteBuilder`]
    /// build of the live edges, without its global sort: the live rows
    /// are copied in left order (base rows are sorted already and live
    /// rows duplicate-free, so only rows with overlay edges are sorted)
    /// and the right CSR follows by counting sort. `O(n + m)` plus
    /// `O(d log d)` per overlay row of degree `d`.
    pub fn compact(&self) -> Bipartite {
        let mut left_offsets = Vec::with_capacity(self.n_left() + 1);
        left_offsets.push(0);
        let mut left_adj: Vec<RightId> = Vec::with_capacity(self.m());
        for u in 0..self.n_left() as u32 {
            self.push_live_row(u, &mut left_adj);
            left_offsets.push(left_adj.len());
        }
        Bipartite::from_left_csr(left_offsets, left_adj, self.caps.clone())
    }
}

/// Sentinel for "no further overlay edge" in [`InsertOverlay`]'s links.
const NO_LINK: u32 = u32::MAX;

/// A thin insert-only view over a [`DeltaGraph`]: the live graph plus a
/// batch of pending edge inserts and left-vertex arrivals, **without
/// copying the base**.
///
/// The conflict scheduler of the dynamic subsystem computes update
/// footprints on the batch's union graph `G⁺` (live edges plus every edge
/// any update in the batch inserts — deletions are ignored, they only
/// shrink reachability). Cloning the whole `DeltaGraph` per batch costs
/// `O(n + m)` with hashing; this view costs `O(n)` dense index arrays at
/// construction plus `O(1)` per staged insert, and adjacency queries pay
/// the underlying live scan plus an `O(deg⁺)` linked-list tail — no
/// hashing on the per-edge path.
///
/// The view is *additive only*: staged inserts cannot be deleted, and the
/// underlying graph stays untouched (scheduling "reverts" by dropping the
/// view). Staged adjacency is set-equal to applying the same inserts to a
/// clone; iteration *order* of overlay tails may differ for re-inserted
/// deleted base edges (the clone would revive them in CSR position), which
/// is immaterial to ball/reachability computations.
#[derive(Debug)]
pub struct InsertOverlay<'a> {
    dg: &'a DeltaGraph,
    base_n_left: usize,
    /// Adjacency of staged arrivals (ids `dg.n_left()..`), including any
    /// staged inserts that target them.
    extra: Vec<Vec<RightId>>,
    /// Per base-left first/last staged edge (index into `left_links`).
    left_head: Vec<u32>,
    left_tail: Vec<u32>,
    /// `(right endpoint, next link)` chains of staged base-left edges.
    left_links: Vec<(RightId, u32)>,
    /// Per right vertex first/last staged edge (index into `right_links`).
    right_head: Vec<u32>,
    right_tail: Vec<u32>,
    /// `(left endpoint, next link)` chains of staged right-side edges.
    right_links: Vec<(LeftId, u32)>,
}

impl<'a> InsertOverlay<'a> {
    /// An empty overlay view of `dg`. `O(n_left + n_right)`.
    pub fn new(dg: &'a DeltaGraph) -> Self {
        InsertOverlay {
            dg,
            base_n_left: dg.n_left(),
            extra: Vec::new(),
            left_head: vec![NO_LINK; dg.n_left()],
            left_tail: vec![NO_LINK; dg.n_left()],
            left_links: Vec::new(),
            right_head: vec![NO_LINK; dg.n_right()],
            right_tail: vec![NO_LINK; dg.n_right()],
            right_links: Vec::new(),
        }
    }

    /// Number of left vertices, including staged arrivals.
    #[inline]
    pub fn n_left(&self) -> usize {
        self.base_n_left + self.extra.len()
    }

    /// Number of right vertices (fixed).
    #[inline]
    pub fn n_right(&self) -> usize {
        self.dg.n_right()
    }

    /// Stage a left-vertex arrival with the given neighbor set
    /// (deduplicated), mirroring [`DeltaGraph::arrive`]. Returns the id
    /// the real arrival will be assigned.
    ///
    /// # Panics
    /// Panics if any neighbor is out of range.
    pub fn arrive(&mut self, neighbors: &[RightId]) -> LeftId {
        let u = self.n_left() as LeftId;
        let mut adj: Vec<RightId> = neighbors.to_vec();
        adj.sort_unstable();
        adj.dedup();
        for &v in &adj {
            assert!(
                (v as usize) < self.n_right(),
                "right vertex {v} out of range"
            );
            self.link_right(v, u);
        }
        self.extra.push(adj);
        u
    }

    /// Stage edge `(u, v)`. Returns `false` (and stages nothing) if the
    /// edge is already live or already staged.
    ///
    /// # Panics
    /// Panics if `u ≥ n_left()` (staged arrivals included) or
    /// `v ≥ n_right()`.
    pub fn insert(&mut self, u: LeftId, v: RightId) -> bool {
        assert!((u as usize) < self.n_left(), "left vertex {u} out of range");
        assert!(
            (v as usize) < self.n_right(),
            "right vertex {v} out of range"
        );
        if self.has_edge(u, v) {
            return false;
        }
        if (u as usize) < self.base_n_left {
            let link = self.left_links.len() as u32;
            self.left_links.push((v, NO_LINK));
            match self.left_tail[u as usize] {
                NO_LINK => self.left_head[u as usize] = link,
                tail => self.left_links[tail as usize].1 = link,
            }
            self.left_tail[u as usize] = link;
        } else {
            self.extra[u as usize - self.base_n_left].push(v);
        }
        self.link_right(v, u);
        true
    }

    fn link_right(&mut self, v: RightId, u: LeftId) {
        let link = self.right_links.len() as u32;
        self.right_links.push((u, NO_LINK));
        match self.right_tail[v as usize] {
            NO_LINK => self.right_head[v as usize] = link,
            tail => self.right_links[tail as usize].1 = link,
        }
        self.right_tail[v as usize] = link;
    }

    /// Does the union graph contain edge `(u, v)`?
    pub fn has_edge(&self, u: LeftId, v: RightId) -> bool {
        if (u as usize) >= self.base_n_left {
            return self
                .extra
                .get(u as usize - self.base_n_left)
                .is_some_and(|a| a.contains(&v));
        }
        if self.dg.has_edge(u, v) {
            return true;
        }
        let mut at = self.left_head[u as usize];
        while at != NO_LINK {
            let (w, next) = self.left_links[at as usize];
            if w == v {
                return true;
            }
            at = next;
        }
        false
    }

    /// Union-graph neighbors of left vertex `u` (live edges, then staged).
    pub fn left_neighbors_iter(&self, u: LeftId) -> impl Iterator<Item = RightId> + '_ {
        let (live, head, extra): (bool, u32, &[RightId]) = if (u as usize) < self.base_n_left {
            (true, self.left_head[u as usize], &[])
        } else {
            (
                false,
                NO_LINK,
                self.extra[u as usize - self.base_n_left].as_slice(),
            )
        };
        let base = live
            .then(|| self.dg.left_neighbors_iter(u))
            .into_iter()
            .flatten();
        base.chain(LinkIter {
            links: &self.left_links,
            at: head,
        })
        .chain(extra.iter().copied())
    }

    /// Union-graph neighbors of right vertex `v` (live edges, then staged).
    pub fn right_neighbors_iter(&self, v: RightId) -> impl Iterator<Item = LeftId> + '_ {
        self.dg.right_neighbors_iter(v).chain(LinkIter {
            links: &self.right_links,
            at: self.right_head[v as usize],
        })
    }

    /// Visit every union-graph neighbor of left vertex `u` — the
    /// closure-based mirror of [`InsertOverlay::left_neighbors_iter`],
    /// same edges in the same order. The scheduler's ball growth calls
    /// this once per scanned vertex; the visitor form skips the chained
    /// iterator state machine and runs the base slice, the link chain,
    /// and the arrival slice as three plain loops.
    #[inline]
    pub fn for_each_left_neighbor(&self, u: LeftId, mut f: impl FnMut(RightId)) {
        if (u as usize) < self.base_n_left {
            self.dg.for_each_left_neighbor(u, &mut f);
            let mut at = self.left_head[u as usize];
            while at != NO_LINK {
                let (v, next) = self.left_links[at as usize];
                f(v);
                at = next;
            }
        } else {
            for &v in &self.extra[u as usize - self.base_n_left] {
                f(v);
            }
        }
    }

    /// Visit every union-graph neighbor of right vertex `v` — the
    /// closure-based mirror of [`InsertOverlay::right_neighbors_iter`].
    #[inline]
    pub fn for_each_right_neighbor(&self, v: RightId, mut f: impl FnMut(LeftId)) {
        self.dg.for_each_right_neighbor(v, &mut f);
        let mut at = self.right_head[v as usize];
        while at != NO_LINK {
            let (u, next) = self.right_links[at as usize];
            f(u);
            at = next;
        }
    }
}

/// Iterator over one vertex's staged-edge chain.
struct LinkIter<'a> {
    links: &'a [(u32, u32)],
    at: u32,
}

impl Iterator for LinkIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.at == NO_LINK {
            return None;
        }
        let (v, next) = self.links[self.at as usize];
        self.at = next;
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BipartiteBuilder;
    use proptest::prelude::*;

    fn base() -> Bipartite {
        // L = {0,1,2}, R = {0,1}; edges (0,0) (0,1) (1,0) (2,1), caps [2, 3].
        let mut b = BipartiteBuilder::new(3, 2);
        for (u, v) in [(0u32, 0u32), (0, 1), (1, 0), (2, 1)] {
            b.add_edge(u, v);
        }
        b.build(vec![2, 3]).unwrap()
    }

    #[test]
    fn fresh_overlay_mirrors_base() {
        let g = base();
        let d = DeltaGraph::new(g.clone());
        assert_eq!(d.n_left(), 3);
        assert_eq!(d.n_right(), 2);
        assert_eq!(d.m(), 4);
        assert_eq!(d.overlay_edges(), 0);
        for u in 0..3u32 {
            let live: Vec<u32> = d.left_neighbors_iter(u).collect();
            assert_eq!(live, g.left_neighbors(u));
        }
        for v in 0..2u32 {
            let live: Vec<u32> = d.right_neighbors_iter(v).collect();
            assert_eq!(live, g.right_neighbors(v));
        }
    }

    #[test]
    fn insert_and_delete_edges() {
        let mut d = DeltaGraph::new(base());
        assert!(d.insert_edge(1, 1));
        assert!(!d.insert_edge(1, 1), "duplicate insert is a no-op");
        assert_eq!(d.m(), 5);
        assert!(d.has_edge(1, 1));
        assert_eq!(d.right_neighbors_iter(1).collect::<Vec<_>>(), [0, 2, 1]);

        assert!(d.delete_edge(0, 0), "delete a base edge");
        assert!(!d.has_edge(0, 0));
        assert!(!d.delete_edge(0, 0), "double delete is a no-op");
        assert!(d.delete_edge(1, 1), "delete an overlay edge");
        assert_eq!(d.m(), 3);
        assert_eq!(d.right_neighbors_iter(0).collect::<Vec<_>>(), [1]);
    }

    #[test]
    fn deleted_base_edge_can_be_restored() {
        let mut d = DeltaGraph::new(base());
        assert!(d.delete_edge(0, 1));
        assert!(!d.has_edge(0, 1));
        assert!(d.insert_edge(0, 1), "re-insert restores the base edge");
        assert!(d.has_edge(0, 1));
        assert_eq!(d.m(), 4);
        assert_eq!(d.overlay_edges(), 0, "restore leaves no overlay residue");
    }

    #[test]
    fn arrivals_and_departures() {
        let mut d = DeltaGraph::new(base());
        let u = d.arrive(&[1, 0, 1]); // dup deduplicated
        assert_eq!(u, 3);
        assert_eq!(d.n_left(), 4);
        assert_eq!(d.left_neighbors_iter(u).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(d.m(), 6);

        let gone = d.depart(0);
        assert_eq!(gone, vec![0, 1]);
        assert_eq!(d.left_degree(0), 0);
        assert_eq!(d.n_left(), 4, "departed slot keeps its id");
        assert_eq!(d.m(), 4);
        // Departed arrivals clean up the reverse index too.
        d.depart(u);
        assert_eq!(d.right_neighbors_iter(0).collect::<Vec<_>>(), [1]);
        assert_eq!(d.right_neighbors_iter(1).collect::<Vec<_>>(), [2]);
    }

    #[test]
    fn out_of_order_arrivals_converge_to_batch_order() {
        // Serial: arrive([0]) = id 3, arrive([1]) = id 4. Out-of-order
        // execution of the commuting pair must land on the same state.
        let mut serial = DeltaGraph::new(base());
        serial.arrive(&[0]);
        serial.arrive(&[1]);

        let mut d = DeltaGraph::new(base());
        d.arrive_at(4, &[1]); // later id first: slot 3 becomes a placeholder
        assert_eq!(d.n_left(), 5);
        assert_eq!(d.left_degree(3), 0, "placeholder is edge-free");
        assert_eq!(d.right_neighbors_iter(1).collect::<Vec<_>>(), [0, 2, 4]);
        d.arrive_at(3, &[0]); // its own arrival fills the placeholder
        assert_eq!(d.n_left(), serial.n_left());
        assert_eq!(d.m(), serial.m());
        for u in 0..d.n_left() as u32 {
            assert_eq!(
                d.left_neighbors_iter(u).collect::<Vec<_>>(),
                serial.left_neighbors_iter(u).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    #[should_panic(expected = "would overwrite an occupied slot")]
    fn arrive_at_rejects_double_fill() {
        let mut d = DeltaGraph::new(base());
        d.arrive_at(3, &[0]);
        d.arrive_at(3, &[1]);
    }

    #[test]
    #[should_panic(expected = "addresses a base vertex")]
    fn arrive_at_rejects_base_ids() {
        let mut d = DeltaGraph::new(base());
        d.arrive_at(1, &[0]);
    }

    #[test]
    fn capacity_overrides() {
        let mut d = DeltaGraph::new(base());
        assert_eq!(d.capacity(0), 2);
        d.set_capacity(0, 7);
        assert_eq!(d.capacity(0), 7);
        assert_eq!(d.capacities(), &[7, 3]);
    }

    #[test]
    #[should_panic(expected = "capacities must be ≥ 1")]
    fn zero_capacity_rejected() {
        let mut d = DeltaGraph::new(base());
        d.set_capacity(0, 0);
    }

    #[test]
    fn compact_roundtrips_the_live_graph() {
        let mut d = DeltaGraph::new(base());
        d.delete_edge(0, 0);
        d.insert_edge(1, 1);
        let u = d.arrive(&[0]);
        d.depart(2);
        d.set_capacity(1, 9);

        let g = d.compact();
        g.validate().unwrap();
        assert_eq!(g.n_left(), d.n_left());
        assert_eq!(g.m(), d.m());
        assert_eq!(g.capacities(), d.capacities());
        for w in 0..d.n_left() as u32 {
            let mut live: Vec<u32> = d.left_neighbors_iter(w).collect();
            live.sort_unstable();
            assert_eq!(live, g.left_neighbors(w), "left {w}");
        }
        assert_eq!(g.left_neighbors(u), &[0]);
        assert_eq!(g.left_degree(2), 0);

        // Compacting twice is stable.
        let d2 = DeltaGraph::new(g.clone());
        let g2 = d2.compact();
        assert_eq!(g2.m(), g.m());
        assert_eq!(g2.edge_right_endpoints(), g.edge_right_endpoints());
    }

    #[test]
    fn compact_with_pending_insert_and_delete_of_the_same_edge() {
        // Overlay insert followed by delete of the same edge must leave no
        // residue; delete of a base edge followed by re-insert likewise.
        // Both pairs pending at compaction time must fold to the original
        // live edge set.
        let mut d = DeltaGraph::new(base());
        assert!(d.insert_edge(1, 1)); // overlay insert …
        assert!(d.delete_edge(1, 1)); // … cancelled before compaction
        assert!(d.delete_edge(0, 0)); // base delete …
        assert!(d.insert_edge(0, 0)); // … cancelled by re-insert
        assert_eq!(d.m(), 4);
        assert_eq!(d.overlay_edges(), 0, "cancelling pairs leave no residue");
        let g = d.compact();
        g.validate().unwrap();
        assert_eq!(g.m(), 4);
        let orig = base();
        for u in 0..3u32 {
            assert_eq!(g.left_neighbors(u), orig.left_neighbors(u), "left {u}");
        }
    }

    #[test]
    fn compact_preserves_capacity_lowered_below_live_degree() {
        // Lowering a capacity below the number of live neighbors is legal
        // at the graph layer (feasibility is the matching's concern); the
        // compacted snapshot must carry the low capacity verbatim, and so
        // must every further compaction.
        let mut d = DeltaGraph::new(base());
        assert_eq!(d.right_degree(0), 2);
        d.set_capacity(0, 1); // below the live degree of v0
        let g = d.compact();
        g.validate().unwrap();
        assert_eq!(g.capacity(0), 1);
        assert_eq!(g.right_degree(0), 2, "edges survive a capacity cut");
        let g2 = DeltaGraph::new(g).compact();
        assert_eq!(g2.capacity(0), 1);
    }

    #[test]
    fn vertex_ids_are_stable_across_repeated_compactions() {
        // Arrivals and departures interleaved with compactions: ids
        // assigned before a compaction must address the same vertices
        // after any number of further compactions.
        let mut d = DeltaGraph::new(base());
        let a = d.arrive(&[0, 1]);
        d.depart(1);
        let g1 = DeltaGraph::new(d.compact());
        let mut d2 = g1.clone();
        let b = d2.arrive(&[1]);
        assert_eq!(b, a + 1, "fresh ids continue after the departed slots");
        d2.depart(a);
        let g2 = DeltaGraph::new(d2.compact());
        let mut d3 = g2.clone();
        assert_eq!(d3.n_left(), 5);
        assert_eq!(d3.left_degree(1), 0, "slot of departed base vertex");
        assert_eq!(d3.left_degree(a), 0, "slot of departed arrival");
        assert_eq!(d3.left_neighbors_iter(b).collect::<Vec<_>>(), [1]);
        // A departed slot can be revived by edge inserts under its old id.
        assert!(d3.insert_edge(1, 0));
        assert_eq!(d3.left_neighbors_iter(1).collect::<Vec<_>>(), [0]);
        let g3 = d3.compact();
        assert_eq!(g3.left_neighbors(1), &[0]);
        assert_eq!(g3.n_left(), 5);
    }

    #[test]
    fn partition_by_right_covers_each_live_edge_once() {
        let mut d = DeltaGraph::new(base());
        d.delete_edge(0, 0);
        d.insert_edge(1, 1);
        let u = d.arrive(&[0, 1]);
        d.set_capacity(1, 9);
        let parts = d.partition_by_right(3, |v| (v as usize + 1) % 3);
        assert_eq!(parts.len(), 3);
        let total: usize = parts.iter().map(Bipartite::m).sum();
        assert_eq!(total, d.m(), "edges are covered exactly once");
        for (s, p) in parts.iter().enumerate() {
            p.validate().unwrap();
            assert_eq!(p.n_left(), d.n_left());
            assert_eq!(p.n_right(), d.n_right());
            assert_eq!(p.capacities(), d.capacities(), "full caps on shard {s}");
            for v in 0..d.n_right() as u32 {
                let deg = p.right_degree(v);
                if (v as usize + 1) % 3 == s {
                    assert_eq!(deg, d.right_degree(v), "owned right {v}");
                } else {
                    assert_eq!(deg, 0, "foreign right {v} on shard {s}");
                }
            }
        }
        // The arrival's edges land on the shards owning its neighbors.
        let on = |s: usize| parts[s].left_degree(u);
        assert_eq!(on(0) + on(1) + on(2), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn partition_rejects_bad_owners() {
        let d = DeltaGraph::new(base());
        let _ = d.partition_by_right(2, |_| 5);
    }

    #[test]
    fn insert_overlay_stages_without_touching_the_base() {
        let mut d = DeltaGraph::new(base());
        d.delete_edge(0, 0); // removed base edge: re-staging must revive it
        let mut g = d.insert_overlay();
        assert_eq!(g.n_left(), 3);
        assert!(!g.has_edge(0, 0), "deleted base edge is not live");
        assert!(g.insert(0, 0), "staging revives the deleted base edge");
        assert!(!g.insert(0, 0), "duplicate stage is a no-op");
        assert!(!g.insert(0, 1), "live edges cannot be staged again");
        assert!(g.insert(1, 1));
        let a = g.arrive(&[1, 0, 1]); // dup deduplicated, mirroring arrive()
        assert_eq!(a, 3);
        assert!(!g.insert(a, 1), "arrival edge already staged");
        assert!(g.insert(2, 0));

        // The union adjacency is set-equal to cloning + applying.
        let mut clone = d.clone();
        clone.insert_edge(0, 0);
        clone.insert_edge(1, 1);
        clone.arrive(&[1, 0, 1]);
        clone.insert_edge(2, 0);
        for u in 0..g.n_left() as u32 {
            let mut mine: Vec<u32> = g.left_neighbors_iter(u).collect();
            let mut theirs: Vec<u32> = clone.left_neighbors_iter(u).collect();
            mine.sort_unstable();
            theirs.sort_unstable();
            assert_eq!(mine, theirs, "left {u}");
        }
        for v in 0..g.n_right() as u32 {
            let mut mine: Vec<u32> = g.right_neighbors_iter(v).collect();
            let mut theirs: Vec<u32> = clone.right_neighbors_iter(v).collect();
            mine.sort_unstable();
            theirs.sort_unstable();
            assert_eq!(mine, theirs, "right {v}");
        }

        // Dropping the view reverts the batch: the base never moved.
        drop(g);
        assert_eq!(d.m(), 3);
        assert!(!d.has_edge(0, 0));
        assert_eq!(d.n_left(), 3);
    }

    #[test]
    fn insert_overlay_chains_preserve_per_vertex_order() {
        let d = DeltaGraph::new(base());
        let mut g = d.insert_overlay();
        // Interleave inserts of two lefts: each chain must come back in
        // insertion order despite sharing the links arena.
        assert!(g.insert(2, 0));
        assert!(g.insert(1, 1));
        assert!(!g.insert(2, 1), "(2,1) is a live base edge");
        let l2: Vec<u32> = g.left_neighbors_iter(2).collect();
        assert_eq!(l2, vec![1, 0], "base edge first, staged tail after");
        let r0: Vec<u32> = g.right_neighbors_iter(0).collect();
        assert_eq!(r0, vec![0, 1, 2], "base scan then staged tail");
    }

    #[test]
    fn encode_decode_roundtrips_the_overlay_verbatim() {
        // Exercise every overlay structure: deletions, overlay inserts,
        // arrivals (with later edge churn on them), revived base edges,
        // capacity overrides — then check the decoded graph is
        // *behaviorally* identical, iteration order included.
        let mut d = DeltaGraph::new(base());
        d.delete_edge(0, 0);
        d.insert_edge(2, 0);
        let a = d.arrive(&[1, 0]);
        let b = d.arrive(&[1]);
        d.insert_edge(b, 0); // appended after the sorted arrival adjacency
        d.depart(a);
        d.delete_edge(0, 1);
        d.insert_edge(0, 1); // revive: no overlay residue
        d.set_capacity(1, 9);

        let mut w = ByteWriter::new();
        d.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let d2 = DeltaGraph::decode(&mut r).unwrap();
        r.expect_end().unwrap();

        assert_eq!(d2.n_left(), d.n_left());
        assert_eq!(d2.n_right(), d.n_right());
        assert_eq!(d2.m(), d.m());
        assert_eq!(d2.capacities(), d.capacities());
        assert_eq!(d2.overlay_edges(), d.overlay_edges());
        for u in 0..d.n_left() as u32 {
            assert_eq!(
                d2.left_neighbors_iter(u).collect::<Vec<_>>(),
                d.left_neighbors_iter(u).collect::<Vec<_>>(),
                "left {u} adjacency (order matters)"
            );
        }
        for v in 0..d.n_right() as u32 {
            assert_eq!(
                d2.right_neighbors_iter(v).collect::<Vec<_>>(),
                d.right_neighbors_iter(v).collect::<Vec<_>>(),
                "right {v} adjacency (order matters)"
            );
        }
        // Determinism: encoding the decoded graph reproduces the bytes.
        let mut w2 = ByteWriter::new();
        d2.encode(&mut w2);
        assert_eq!(bytes, w2.into_bytes());
    }

    #[test]
    fn decode_rejects_inconsistent_overlays() {
        let mut d = DeltaGraph::new(base());
        d.delete_edge(0, 0);
        d.insert_edge(2, 0);
        d.arrive(&[1]);
        let mut w = ByteWriter::new();
        d.encode(&mut w);
        let bytes = w.into_bytes();
        // Every strict prefix is a typed parse error, never a panic.
        for cut in [0, 9, 40, bytes.len() - 1] {
            let mut r = ByteReader::new(&bytes[..cut.min(bytes.len())]);
            assert!(DeltaGraph::decode(&mut r).is_err(), "prefix {cut}");
        }
        // A deletion naming a non-edge is rejected: re-encode with a bad
        // removed pair by mutating a fresh graph's encode input.
        let clean = DeltaGraph::new(base());
        let mut w = ByteWriter::new();
        clean.encode(&mut w);
        let mut bytes = w.into_bytes();
        // The final three u64 section counts are empty (no overlay): the
        // removed count sits 16 bytes before the trailing added_right
        // count. Bump it to 1 without providing the pair.
        let at = bytes.len() - 16;
        bytes[at] = 1;
        let mut r = ByteReader::new(&bytes);
        assert!(DeltaGraph::decode(&mut r).is_err());
    }

    #[test]
    fn overlay_edge_count_tracks_mutations() {
        let mut d = DeltaGraph::new(base());
        assert_eq!(d.overlay_edges(), 0);
        d.delete_edge(0, 0); // removed base edge lives in the overlay
        d.insert_edge(2, 0);
        d.arrive(&[1]);
        assert_eq!(d.overlay_edges(), 3);
    }

    #[test]
    fn visitors_agree_with_iterators_across_every_overlay_shape() {
        // A graph exercising all adjacency sources at once: removed base
        // edges, added edges on both sides, a departed vertex, a live
        // arrival, and on top of it an overlay with staged inserts plus
        // a staged arrival.
        let mut d = DeltaGraph::new(base());
        d.delete_edge(0, 0); // removed base edge
        d.insert_edge(2, 0); // delta-added edge
        d.depart(1); // all of 1's edges removed
        let a = d.arrive(&[0, 1]); // live arrival (id 3, extra_adj)
        let mut ov = d.insert_overlay();
        ov.insert(0, 0); // staged re-insert of a deleted base edge
        ov.insert(2, 0); // no-op: already live, must stage nothing
        ov.insert(a, 1); // no-op: arrival already has it
        let s = ov.arrive(&[0, 1]); // staged arrival (id 4)
        ov.insert(s, 1); // no-op: staged arrival already has it

        for u in 0..d.n_left() as LeftId {
            let mut seen = Vec::new();
            d.for_each_left_neighbor(u, |v| seen.push(v));
            assert_eq!(
                seen,
                d.left_neighbors_iter(u).collect::<Vec<_>>(),
                "DeltaGraph left {u}"
            );
        }
        for v in 0..d.n_right() as RightId {
            let mut seen = Vec::new();
            d.for_each_right_neighbor(v, |u| seen.push(u));
            assert_eq!(
                seen,
                d.right_neighbors_iter(v).collect::<Vec<_>>(),
                "DeltaGraph right {v}"
            );
        }
        for u in 0..ov.n_left() as LeftId {
            let mut seen = Vec::new();
            ov.for_each_left_neighbor(u, |v| seen.push(v));
            assert_eq!(
                seen,
                ov.left_neighbors_iter(u).collect::<Vec<_>>(),
                "overlay left {u}"
            );
        }
        for v in 0..ov.n_right() as RightId {
            let mut seen = Vec::new();
            ov.for_each_right_neighbor(v, |u| seen.push(u));
            assert_eq!(
                seen,
                ov.right_neighbors_iter(v).collect::<Vec<_>>(),
                "overlay right {v}"
            );
        }
    }

    /// Every CSR array, every edge id and the capacities of `got` equal
    /// those of `want`, and `got` passes `validate()`.
    fn assert_same_graph(got: &Bipartite, want: &Bipartite, what: &str) {
        got.validate()
            .unwrap_or_else(|e| panic!("{what}: invalid graph: {e}"));
        assert_eq!(got.left_offsets, want.left_offsets, "{what}: left offsets");
        assert_eq!(got.left_adj, want.left_adj, "{what}: left adjacency");
        assert_eq!(
            got.right_offsets, want.right_offsets,
            "{what}: right offsets"
        );
        assert_eq!(got.right_adj, want.right_adj, "{what}: right adjacency");
        assert_eq!(got.right_edge_ids, want.right_edge_ids, "{what}: edge ids");
        assert_eq!(got.capacities, want.capacities, "{what}: capacities");
    }

    /// The builder path over the live edges whose right endpoint passes
    /// `keep`: the reference `compact` and each shard of
    /// `partition_by_right` must reproduce exactly.
    fn builder_snapshot(d: &DeltaGraph, keep: impl Fn(RightId) -> bool) -> Bipartite {
        let mut b = BipartiteBuilder::new(d.n_left(), d.n_right());
        for u in 0..d.n_left() as LeftId {
            b.extend_edges(
                d.left_neighbors_iter(u)
                    .filter(|&v| keep(v))
                    .map(|v| (u, v)),
            );
        }
        b.build(d.capacities().to_vec()).unwrap()
    }

    fn small_base() -> impl Strategy<Value = Bipartite> {
        (0usize..8, 1usize..6).prop_flat_map(|(nl, nr)| {
            let edges = proptest::collection::vec((0..nl.max(1) as u32, 0..nr as u32), 0..24);
            let caps = proptest::collection::vec(1u64..=3, nr);
            (Just(nl), Just(nr), edges, caps).prop_map(|(nl, nr, edges, caps)| {
                let mut b = BipartiteBuilder::new(nl, nr);
                b.extend_edges(edges.into_iter().filter(|&(u, _)| (u as usize) < nl));
                b.build(caps).unwrap()
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn compact_matches_builder(
            g in small_base(),
            ops in proptest::collection::vec((0u8..7, 0u32..1_000, 0u32..1_000, 1u64..=4), 0..40),
            shards in 1usize..4,
        ) {
            let owner = |v: RightId| (v as usize * 7 + 3) % shards;
            let mut d = DeltaGraph::new(g);
            let mut deleted: Vec<(LeftId, RightId)> = Vec::new();
            for (step, &(kind, a, b, cap)) in ops.iter().enumerate() {
                let (nl, nr) = (d.n_left() as u32, d.n_right() as u32);
                match kind {
                    // An arrival whose neighbour list repeats a right.
                    0 => {
                        d.arrive(&[a % nr, b % nr, a % nr]);
                    }
                    1 if nl > 0 => {
                        for v in d.depart(a % nl) {
                            deleted.push((a % nl, v));
                        }
                    }
                    // Inserts land on base lefts and arrivals alike; on an
                    // arrival they append out of order.
                    2 if nl > 0 => {
                        d.insert_edge(a % nl, b % nr);
                    }
                    // Delete a live edge of `u` — a base or an overlay edge.
                    3 if nl > 0 => {
                        let u = a % nl;
                        let row: Vec<RightId> = d.left_neighbors_iter(u).collect();
                        if !row.is_empty() {
                            let v = row[b as usize % row.len()];
                            prop_assert!(d.delete_edge(u, v));
                            deleted.push((u, v));
                        }
                    }
                    // Re-insert a deleted edge (revives deleted base edges).
                    4 if !deleted.is_empty() => {
                        let (u, v) = deleted.swap_remove(a as usize % deleted.len());
                        d.insert_edge(u, v);
                    }
                    5 => d.set_capacity(a % nr, cap),
                    6 => d = DeltaGraph::new(d.compact()),
                    _ => {}
                }
                let what = format!("step {step} (op {kind})");
                assert_same_graph(&d.compact(), &builder_snapshot(&d, |_| true), &what);
                let parts = d.partition_by_right(shards, owner);
                prop_assert_eq!(parts.len(), shards);
                for (s, part) in parts.iter().enumerate() {
                    let want = builder_snapshot(&d, |v| owner(v) == s);
                    assert_same_graph(part, &want, &format!("{what}, shard {s}"));
                }
            }
        }
    }
}
