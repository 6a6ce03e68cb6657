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
//! overlay edges); their cost is the base CSR scan plus one bit test per
//! base edge (skipped for vertices with no deletions) and an
//! `O(deg_overlay)` tail. Deleted base edges are a bitmap over base edge
//! ids (the left-CSR slot, [`Bipartite::left_edge_range`]), so no
//! adjacency scan hashes a pair: left scans test bit
//! `left_edge_range(u).start + i`, right scans the bit of
//! [`Bipartite::right_edge_ids`]`(v)[j]`. Overlay edges are stored once,
//! in one arena of rows: every vertex has a 4-byte row slot into it (an
//! arrival's whole adjacency, a base left's staged edges, a right's
//! reverse index), so the overlay part of a scan of a vertex without
//! overlay edges is one load. Left vertices keep
//! stable ids across every mutation and across compaction: departures
//! leave a degree-0 slot behind, arrivals append at the end. The right
//! vertex set is fixed (capacity changes are in-place), matching the
//! paper's serving setting where servers are long-lived and clients churn.

use crate::bipartite::{Bipartite, LeftId, LeftRows, RightId};
use crate::io::{self, ByteReader, ByteWriter, IoError};

/// Row slot of a vertex without an overlay row.
const NO_ROW: u32 = u32::MAX;

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
///
/// Overlay edges live in `rows`, reached through one row slot per
/// vertex. A slot is handed out on the vertex's first overlay edge, or
/// at its arrival, and outlives its row's last edge until the next fold:
/// the snapshot encoding lists every vertex that has held an overlay
/// edge since the base was built, emptied rows included, so a slot that
/// was given back would change the bytes.
#[derive(Debug, Clone)]
pub struct DeltaGraph {
    base: Bipartite,
    /// Per left vertex, arrivals included (its length is `n_left`): the
    /// slot in `rows` of the vertex's overlay edges, or [`NO_ROW`]. An
    /// arrival's row is its whole adjacency, a base left's its staged
    /// edges.
    left_row: Vec<u32>,
    /// Per right vertex: the slot in `rows` of the left endpoints of its
    /// overlay edges (the reverse index), or [`NO_ROW`].
    right_row: Vec<u32>,
    /// The overlay rows, left and right ones alike, by slot.
    rows: Vec<Vec<u32>>,
    /// Deleted base edges, one bit per base edge id (overlay edges are
    /// deleted in place instead).
    removed: Vec<u64>,
    /// Number of set bits in `removed`.
    n_removed: usize,
    /// Per-vertex counts of removed base edges: the adjacency scans skip
    /// the bit tests entirely for the (at low churn, vast) majority of
    /// vertices with no deletions.
    removed_left: Vec<u32>,
    removed_right: Vec<u32>,
    /// Live capacities (base capacities with in-place overrides).
    caps: Vec<u64>,
    /// Live edge count.
    m_live: usize,
}

impl DeltaGraph {
    /// Wrap a frozen snapshot with an empty overlay.
    pub fn new(base: Bipartite) -> Self {
        DeltaGraph {
            left_row: vec![NO_ROW; base.n_left()],
            right_row: vec![NO_ROW; base.n_right()],
            rows: Vec::new(),
            removed: vec![0; base.m().div_ceil(64)],
            n_removed: 0,
            removed_left: vec![0; base.n_left()],
            removed_right: vec![0; base.n_right()],
            caps: base.capacities().to_vec(),
            m_live: base.m(),
            base,
        }
    }

    /// The underlying frozen snapshot (pre-overlay).
    pub fn base(&self) -> &Bipartite {
        &self.base
    }

    /// Number of left vertices, including arrivals and departed slots.
    #[inline]
    pub fn n_left(&self) -> usize {
        self.left_row.len()
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
        // The live edges are the undeleted base edges plus the staged ones.
        let staged = self.m_live - (self.base.m() - self.n_removed);
        self.n_removed + staged
    }

    /// The overlay row of left `u`: all of an arrival's edges, a base
    /// left's staged ones. Empty past `n_left`.
    #[inline]
    fn staged_left(&self, u: LeftId) -> &[RightId] {
        row_of(&self.rows, &self.left_row, u)
    }

    /// The overlay row of right `v`: the left endpoints of its overlay
    /// edges.
    #[inline]
    fn staged_right(&self, v: RightId) -> &[LeftId] {
        row_of(&self.rows, &self.right_row, v)
    }

    /// Left `u`'s base row, the base edge id of its first entry, and
    /// whether no edge of it is deleted. Empty for an arrival.
    #[inline]
    fn base_row(&self, u: LeftId) -> (&[RightId], usize, bool) {
        match self.removed_left.get(u as usize) {
            Some(&r) => (
                self.base.left_neighbors(u),
                self.base.left_edge_range(u).start,
                r == 0,
            ),
            None => (&[], 0, true),
        }
    }

    /// Does the live graph contain edge `(u, v)`?
    pub fn has_edge(&self, u: LeftId, v: RightId) -> bool {
        base_edge_id(&self.base, u, v)
            .is_some_and(|e| self.removed_left[u as usize] == 0 || !bit(&self.removed, e))
            || self.staged_left(u).contains(&v)
    }

    /// Live neighbors of left vertex `u`.
    pub fn left_neighbors_iter(&self, u: LeftId) -> impl Iterator<Item = RightId> + Clone + '_ {
        let (base, first, untouched) = self.base_row(u);
        let removed = &self.removed;
        base.iter()
            .enumerate()
            .filter(move |&(i, _)| untouched || !bit(removed, first + i))
            .map(|(_, &v)| v)
            .chain(self.staged_left(u).iter().copied())
    }

    /// Live neighbors of right vertex `v`.
    pub fn right_neighbors_iter(&self, v: RightId) -> impl Iterator<Item = LeftId> + Clone + '_ {
        let untouched = self.removed_right[v as usize] == 0;
        let (removed, ids) = (&self.removed, self.base.right_edge_ids(v));
        self.base
            .right_neighbors(v)
            .iter()
            .enumerate()
            .filter(move |&(j, _)| untouched || !bit(removed, ids[j] as usize))
            .map(|(_, &u)| u)
            .chain(self.staged_right(v).iter().copied())
    }

    /// Visit every live neighbor of left vertex `u` — the closure-based
    /// mirror of [`DeltaGraph::left_neighbors_iter`], same edges in the
    /// same order. On hot paths (the conflict scheduler's ball growth
    /// calls this once per scanned vertex) the visitor form beats the
    /// chained iterator: the deleted-edge branch and the overlay row
    /// lookup are hoisted out of the per-edge loop, which runs over plain
    /// slices.
    #[inline]
    pub fn for_each_left_neighbor(&self, u: LeftId, mut f: impl FnMut(RightId)) {
        let (base, first, untouched) = self.base_row(u);
        if untouched {
            for &v in base {
                f(v);
            }
        } else {
            for (i, &v) in base.iter().enumerate() {
                if !bit(&self.removed, first + i) {
                    f(v);
                }
            }
        }
        for &v in self.staged_left(u) {
            f(v);
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
            for (&u, &e) in base.iter().zip(self.base.right_edge_ids(v)) {
                if !bit(&self.removed, e as usize) {
                    f(u);
                }
            }
        }
        for &u in self.staged_right(v) {
            f(u);
        }
    }

    /// Live degree of left vertex `u` (0 after departure). `O(1)`: the
    /// base degree less its deletions, plus the overlay row's length.
    pub fn left_degree(&self, u: LeftId) -> usize {
        let removed = self.removed_left.get(u as usize).map_or(0, |&r| r as usize);
        self.base_row(u).0.len() - removed + self.staged_left(u).len()
    }

    /// Live degree of right vertex `v`. `O(1)`, like
    /// [`left_degree`](DeltaGraph::left_degree).
    pub fn right_degree(&self, v: RightId) -> usize {
        self.base.right_degree(v) - self.removed_right[v as usize] as usize
            + self.staged_right(v).len()
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
        // already stores it in both directions. (The edge is not live, so
        // a base edge here is a deleted one.)
        if let Some(e) = base_edge_id(&self.base, u, v) {
            set_bit(&mut self.removed, e, false);
            self.n_removed -= 1;
            self.removed_left[u as usize] -= 1;
            self.removed_right[v as usize] -= 1;
        } else {
            row_mut(&mut self.rows, &mut self.left_row, u).push(v);
            row_mut(&mut self.rows, &mut self.right_row, v).push(u);
        }
        self.m_live += 1;
        true
    }

    /// Delete edge `(u, v)`. Returns `false` if the edge is not live.
    pub fn delete_edge(&mut self, u: LeftId, v: RightId) -> bool {
        if !self.has_edge(u, v) {
            return false;
        }
        // The edge is live, so a base edge here is an undeleted one.
        if let Some(e) = base_edge_id(&self.base, u, v) {
            set_bit(&mut self.removed, e, true);
            self.n_removed += 1;
            self.removed_left[u as usize] += 1;
            self.removed_right[v as usize] += 1;
        } else {
            row_mut(&mut self.rows, &mut self.left_row, u).retain(|&w| w != v);
            row_mut(&mut self.rows, &mut self.right_row, v).retain(|&w| w != u);
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
        assert!(
            (u as usize) >= self.base.n_left(),
            "arrive_at({u}) addresses a base vertex"
        );
        if (u as usize) >= self.n_left() {
            self.left_row.resize(u as usize + 1, NO_ROW);
        }
        assert!(
            self.staged_left(u).is_empty(),
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
            row_mut(&mut self.rows, &mut self.right_row, v).push(u);
        }
        self.m_live += adj.len();
        *row_mut(&mut self.rows, &mut self.left_row, u) = adj;
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
        if !self.staged_left(u).is_empty() {
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
    /// engine bit-identical to the uninterrupted one. The staged and
    /// reverse sections list every base left and right holding a row
    /// slot, in id order, and deletions are `(u, v)` pairs in edge-id
    /// order (which is sorted pair order), so identical overlays produce
    /// identical bytes.
    pub fn encode(&self, w: &mut ByteWriter) {
        io::write_bipartite(&self.base, w);
        w.put_vec_u64(&self.caps);
        let base_n = self.base.n_left();
        w.put_u64((self.n_left() - base_n) as u64);
        for u in base_n..self.n_left() {
            w.put_vec_u32(self.staged_left(u as LeftId));
        }
        put_keyed_rows(&self.rows, &self.left_row[..base_n], w);
        w.put_u64(self.n_removed as u64);
        for u in 0..base_n as LeftId {
            if self.removed_left[u as usize] == 0 {
                continue;
            }
            let first = self.base.left_edge_range(u).start;
            for (i, &v) in self.base.left_neighbors(u).iter().enumerate() {
                if bit(&self.removed, first + i) {
                    w.put_u32(u);
                    w.put_u32(v);
                }
            }
        }
        put_keyed_rows(&self.rows, &self.right_row, w);
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
        let mut rows: Vec<Vec<u32>> = Vec::new();
        let mut left_row = vec![NO_ROW; base.n_left()];
        let n_extra = r.take_len(8)?;
        for _ in 0..n_extra {
            let adj = r.take_vec_u32()?;
            if !is_set(&adj) {
                return Err(bad("duplicate edge in an arrival's adjacency".into()));
            }
            if adj.iter().any(|&v| !check_right(v)) {
                return Err(bad("arrival neighbor out of range".into()));
            }
            left_row.push(rows.len() as u32);
            rows.push(adj);
        }
        let n_left_total = left_row.len();

        let n_added = r.take_len(12)?;
        for _ in 0..n_added {
            let u = r.take_u32()?;
            let vs = r.take_vec_u32()?;
            if (u as usize) >= base.n_left() {
                return Err(bad(format!("overlay edges staged on non-base left {u}")));
            }
            if !is_set(&vs) {
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
            if left_row[u as usize] != NO_ROW {
                return Err(bad(format!("left {u} listed twice in the overlay")));
            }
            *row_mut(&mut rows, &mut left_row, u) = vs;
        }

        let n_removed = r.take_len(8)?;
        let mut removed = vec![0u64; base.m().div_ceil(64)];
        let mut removed_left = vec![0u32; base.n_left()];
        let mut removed_right = vec![0u32; base.n_right()];
        for _ in 0..n_removed {
            let u = r.take_u32()?;
            let v = r.take_u32()?;
            let Some(e) = base_edge_id(&base, u, v) else {
                return Err(bad(format!("deleted edge ({u}, {v}) is not a base edge")));
            };
            if bit(&removed, e) {
                return Err(bad(format!("edge ({u}, {v}) deleted twice")));
            }
            set_bit(&mut removed, e, true);
            removed_left[u as usize] += 1;
            removed_right[v as usize] += 1;
        }

        let n_ar = r.take_len(12)?;
        let mut right_row = vec![NO_ROW; n_right];
        for _ in 0..n_ar {
            let v = r.take_u32()?;
            let us = r.take_vec_u32()?;
            if !check_right(v) {
                return Err(bad(format!("reverse index right {v} out of range")));
            }
            if let Some(u) = us.iter().find(|&&u| (u as usize) >= n_left_total) {
                return Err(bad(format!("reverse index left {u} out of range")));
            }
            if right_row[v as usize] != NO_ROW {
                return Err(bad(format!("right {v} listed twice in the reverse index")));
            }
            *row_mut(&mut rows, &mut right_row, v) = us;
        }
        // The reverse index must be exactly the forward overlay
        // transposed: per right, its sorted row lists the lefts whose
        // rows hold it. Both sides as `(right, left)` pairs, sorted.
        let pairs = |slots: &[u32], flip: bool| {
            let mut pairs: Vec<(u32, u32)> = (0..slots.len() as u32)
                .flat_map(|x| {
                    row_of(&rows, slots, x)
                        .iter()
                        .map(move |&y| if flip { (y, x) } else { (x, y) })
                })
                .collect();
            pairs.sort_unstable();
            pairs
        };
        let forward = pairs(&left_row, true);
        if forward != pairs(&right_row, false) {
            return Err(bad(
                "reverse index disagrees with the staged adjacency".into()
            ));
        }

        let m_live = base.m() - n_removed + forward.len();
        Ok(DeltaGraph {
            base,
            left_row,
            right_row,
            rows,
            removed,
            n_removed,
            removed_left,
            removed_right,
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

/// The live rows, as [`compact`](DeltaGraph::compact) lays them out: a
/// base row with no deletion and no staged edge is handed over as the base
/// slice itself, any other row is rebuilt by `push_live_row` in one reused
/// buffer. `O(n + m)` plus the sorts of the rows with overlay edges, and
/// no snapshot.
impl LeftRows for DeltaGraph {
    fn n_right(&self) -> usize {
        DeltaGraph::n_right(self)
    }

    fn m(&self) -> usize {
        self.m_live
    }

    fn capacities(&self) -> &[u64] {
        &self.caps
    }

    fn for_each_left_row(&self, mut f: impl FnMut(&[RightId])) {
        let mut row = Vec::new();
        for u in 0..self.n_left() as LeftId {
            let (base, _, untouched) = self.base_row(u);
            if untouched && self.staged_left(u).is_empty() {
                f(base);
            } else {
                row.clear();
                self.push_live_row(u, &mut row);
                f(&row);
            }
        }
    }
}

/// The overlay row of vertex `x` under `slots`: empty for [`NO_ROW`] and
/// for ids past the end.
#[inline]
fn row_of<'a>(rows: &'a [Vec<u32>], slots: &[u32], x: u32) -> &'a [u32] {
    match slots.get(x as usize) {
        Some(&s) if s != NO_ROW => &rows[s as usize],
        _ => &[],
    }
}

/// The overlay row of vertex `x` under `slots`, handing out its slot on
/// first use.
fn row_mut<'a>(rows: &'a mut Vec<Vec<u32>>, slots: &mut [u32], x: u32) -> &'a mut Vec<u32> {
    let s = &mut slots[x as usize];
    if *s == NO_ROW {
        *s = rows.len() as u32;
        rows.push(Vec::new());
    }
    &mut rows[*s as usize]
}

/// Write the vertices of `slots` that hold a row slot, in id order, each
/// with its (possibly empty) row.
fn put_keyed_rows(rows: &[Vec<u32>], slots: &[u32], w: &mut ByteWriter) {
    let held = || slots.iter().enumerate().filter(|&(_, &s)| s != NO_ROW);
    w.put_u64(held().count() as u64);
    for (x, &s) in held() {
        w.put_u32(x as u32);
        w.put_vec_u32(&rows[s as usize]);
    }
}

/// Are the entries of `row` pairwise distinct?
fn is_set(row: &[u32]) -> bool {
    let mut sorted = row.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len() == row.len()
}

/// The id of edge `(u, v)` in `base` (deleted from a live graph over it
/// or not), if `u` is one of its lefts and it holds the edge.
fn base_edge_id(base: &Bipartite, u: LeftId, v: RightId) -> Option<usize> {
    if (u as usize) >= base.n_left() {
        return None;
    }
    let at = base.left_neighbors(u).binary_search(&v).ok()?;
    Some(base.left_edge_range(u).start + at)
}

/// Is bit `e` of the bitmap set?
#[inline]
fn bit(bits: &[u64], e: usize) -> bool {
    bits[e / 64] >> (e % 64) & 1 != 0
}

/// Set (`on`) or clear bit `e` of the bitmap.
#[inline]
fn set_bit(bits: &mut [u64], e: usize, on: bool) {
    let mask = 1u64 << (e % 64);
    if on {
        bits[e / 64] |= mask;
    } else {
        bits[e / 64] &= !mask;
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
/// `O(n + m)`; this view costs `O(n)` dense index arrays at
/// construction plus `O(1)` per staged insert, and adjacency queries pay
/// the underlying live scan plus an `O(deg⁺)` linked-list tail. A staged
/// arrival is one more left whose chain starts with its sorted neighbour
/// set; the live graph's scans answer "no edges" for it.
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
    /// Staged right endpoints per left vertex, staged arrivals included
    /// (one chain per left, so its length is `n_left`).
    left: Chains,
    /// Staged left endpoints per right vertex.
    right: Chains,
}

impl<'a> InsertOverlay<'a> {
    /// An empty overlay view of `dg`. `O(n_left + n_right)`.
    pub fn new(dg: &'a DeltaGraph) -> Self {
        InsertOverlay {
            dg,
            left: Chains::new(dg.n_left()),
            right: Chains::new(dg.n_right()),
        }
    }

    /// Number of left vertices, including staged arrivals.
    #[inline]
    pub fn n_left(&self) -> usize {
        self.left.head.len()
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
        self.left.head.push(NO_LINK);
        self.left.tail.push(NO_LINK);
        let mut adj: Vec<RightId> = neighbors.to_vec();
        adj.sort_unstable();
        adj.dedup();
        for v in adj {
            assert!(
                (v as usize) < self.n_right(),
                "right vertex {v} out of range"
            );
            self.left.push(u, v);
            self.right.push(v, u);
        }
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
        self.left.push(u, v);
        self.right.push(v, u);
        true
    }

    /// Does the union graph contain edge `(u, v)`?
    pub fn has_edge(&self, u: LeftId, v: RightId) -> bool {
        if self.dg.has_edge(u, v) {
            return true;
        }
        let mut staged = false;
        if (u as usize) < self.n_left() {
            self.left.for_each(u, |w| staged |= w == v);
        }
        staged
    }

    /// Visit every union-graph neighbor of left vertex `u`: its live
    /// edges, then its staged ones in staging order. The scheduler's
    /// ball growth calls this once per scanned vertex; the visitor form
    /// runs the live scan and the link chain as plain loops.
    #[inline]
    pub fn for_each_left_neighbor(&self, u: LeftId, mut f: impl FnMut(RightId)) {
        self.dg.for_each_left_neighbor(u, &mut f);
        self.left.for_each(u, f);
    }

    /// Visit every union-graph neighbor of right vertex `v`: its live
    /// edges, then its staged ones in staging order.
    #[inline]
    pub fn for_each_right_neighbor(&self, v: RightId, mut f: impl FnMut(LeftId)) {
        self.dg.for_each_right_neighbor(v, &mut f);
        self.right.for_each(v, f);
    }
}

/// Per-vertex chains of staged endpoints, linked through one arena.
#[derive(Debug)]
struct Chains {
    /// First/last link of each vertex's chain (index into `links`).
    head: Vec<u32>,
    tail: Vec<u32>,
    /// `(other endpoint, next link)`.
    links: Vec<(u32, u32)>,
}

impl Chains {
    fn new(n: usize) -> Self {
        Chains {
            head: vec![NO_LINK; n],
            tail: vec![NO_LINK; n],
            links: Vec::new(),
        }
    }

    /// Append `y` at the tail of `x`'s chain.
    fn push(&mut self, x: u32, y: u32) {
        let link = self.links.len() as u32;
        self.links.push((y, NO_LINK));
        match self.tail[x as usize] {
            NO_LINK => self.head[x as usize] = link,
            last => self.links[last as usize].1 = link,
        }
        self.tail[x as usize] = link;
    }

    /// Visit `x`'s chain in staging order.
    #[inline]
    fn for_each(&self, x: u32, mut f: impl FnMut(u32)) {
        let mut at = self.head[x as usize];
        while at != NO_LINK {
            let (y, next) = self.links[at as usize];
            f(y);
            at = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BipartiteBuilder;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Union-graph row of left `u`, read through the visitor.
    fn overlay_left(ov: &InsertOverlay<'_>, u: LeftId) -> Vec<RightId> {
        let mut row = Vec::new();
        ov.for_each_left_neighbor(u, |v| row.push(v));
        row
    }

    /// Union-graph row of right `v`, read through the visitor.
    fn overlay_right(ov: &InsertOverlay<'_>, v: RightId) -> Vec<LeftId> {
        let mut row = Vec::new();
        ov.for_each_right_neighbor(v, |u| row.push(u));
        row
    }

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
            let mut mine = overlay_left(&g, u);
            let mut theirs: Vec<u32> = clone.left_neighbors_iter(u).collect();
            mine.sort_unstable();
            theirs.sort_unstable();
            assert_eq!(mine, theirs, "left {u}");
        }
        for v in 0..g.n_right() as u32 {
            let mut mine = overlay_right(&g, v);
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
        assert_eq!(
            overlay_left(&g, 2),
            [1, 0],
            "base edge first, staged tail after"
        );
        assert_eq!(
            overlay_right(&g, 0),
            [0, 1, 2],
            "base scan then staged tail"
        );
        // A staged arrival's chain is its sorted neighbour set, and a later
        // insert onto it links in after that.
        let a = g.arrive(&[1, 1]);
        assert_eq!(a, 3);
        assert!(g.insert(a, 0));
        assert!(!g.insert(a, 1), "the arrival already has (3,1)");
        assert_eq!(overlay_left(&g, a), [1, 0]);
        assert!(g.has_edge(a, 1) && g.has_edge(a, 0));
        assert!(!g.has_edge(a + 1, 0), "no left past the staged arrivals");
        assert_eq!(overlay_right(&g, 0), [0, 1, 2, a]);
        assert_eq!(overlay_right(&g, 1), [0, 2, 1, a]);
    }

    #[test]
    fn an_emptied_row_keeps_its_slot_until_the_fold() {
        // A non-base edge staged on a base left and deleted again leaves
        // both endpoints' rows empty, but still listed: the staged section
        // names left 1 and the reverse index right 1, each with an empty
        // row (a u32 id and a zero u64 length, 12 bytes each).
        let mut d = DeltaGraph::new(base());
        assert!(d.insert_edge(1, 1));
        assert!(d.delete_edge(1, 1));
        assert_eq!(d.overlay_edges(), 0);
        let mut w = ByteWriter::new();
        d.encode(&mut w);
        let bytes = w.into_bytes();
        let mut want = ByteWriter::new();
        io::write_bipartite(&base(), &mut want);
        want.put_vec_u64(&[2, 3]);
        want.put_u64(0); // arrivals
        want.put_u64(1); // staged rows: left 1, emptied
        want.put_u32(1);
        want.put_vec_u32(&[]);
        want.put_u64(0); // deletions
        want.put_u64(1); // reverse index: right 1, emptied
        want.put_u32(1);
        want.put_vec_u32(&[]);
        assert_eq!(bytes, want.into_bytes());
        let mut fresh = ByteWriter::new();
        DeltaGraph::new(base()).encode(&mut fresh);
        assert_eq!(bytes.len(), fresh.into_bytes().len() + 24);

        let mut r = ByteReader::new(&bytes);
        let back = DeltaGraph::decode(&mut r).unwrap();
        r.expect_end().unwrap();
        let mut w2 = ByteWriter::new();
        back.encode(&mut w2);
        assert_eq!(bytes, w2.into_bytes(), "decode∘encode is the identity");
        // The fold hands every slot back.
        let mut folded = ByteWriter::new();
        DeltaGraph::new(d.compact()).encode(&mut folded);
        assert_eq!(folded.into_bytes().len(), bytes.len() - 24);
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
    fn decode_names_bad_deletions() {
        // A deletions section naming `pairs`, every other section empty.
        let decode = |pairs: &[(u32, u32)]| {
            let g = base();
            let mut w = ByteWriter::new();
            io::write_bipartite(&g, &mut w);
            w.put_vec_u64(g.capacities());
            w.put_u64(0); // arrivals
            w.put_u64(0); // staged edges
            w.put_u64(pairs.len() as u64);
            for &(u, v) in pairs {
                w.put_u32(u);
                w.put_u32(v);
            }
            w.put_u64(0); // reverse index
            let bytes = w.into_bytes();
            DeltaGraph::decode(&mut ByteReader::new(&bytes)).map(|d| d.m())
        };
        assert_eq!(decode(&[(0, 1), (2, 1)]).unwrap(), 2);
        for (pairs, msg) in [
            (&[(1u32, 1u32)][..], "(1, 1) is not a base edge"),
            (&[(7, 0)][..], "(7, 0) is not a base edge"),
            (&[(0, 1), (0, 1)][..], "(0, 1) deleted twice"),
        ] {
            let e = decode(pairs).unwrap_err().to_string();
            assert!(e.contains(msg), "{pairs:?}: {e}");
        }
    }

    /// Rows of one overlay section: `(vertex, row)`.
    type Rows<'a> = &'a [(u32, &'a [u32])];

    #[test]
    fn decode_names_bad_overlay_rows() {
        // Arrival, staged and reverse sections as given, no deletions.
        // In `base()`, (1, 1) and (2, 0) are the pairs outside the base.
        let put_rows = |w: &mut ByteWriter, rows: Rows| {
            w.put_u64(rows.len() as u64);
            for &(x, row) in rows {
                w.put_u32(x);
                w.put_vec_u32(row);
            }
        };
        let decode = |arrivals: &[&[u32]], staged: Rows, reverse: Rows| {
            let g = base();
            let mut w = ByteWriter::new();
            io::write_bipartite(&g, &mut w);
            w.put_vec_u64(g.capacities());
            w.put_u64(arrivals.len() as u64);
            for row in arrivals {
                w.put_vec_u32(row);
            }
            put_rows(&mut w, staged);
            w.put_u64(0); // deletions
            put_rows(&mut w, reverse);
            let bytes = w.into_bytes();
            DeltaGraph::decode(&mut ByteReader::new(&bytes)).map(|d| d.m())
        };
        assert_eq!(
            decode(&[&[0]], &[(1, &[1])], &[(0, &[3]), (1, &[1])]).unwrap(),
            6
        );
        let cases: [(&[&[u32]], Rows, Rows, &str); 13] = [
            (
                &[&[0, 0]],
                &[],
                &[],
                "duplicate edge in an arrival's adjacency",
            ),
            (&[&[2]], &[], &[], "arrival neighbor out of range"),
            (
                &[],
                &[(3, &[0])],
                &[],
                "overlay edges staged on non-base left 3",
            ),
            (
                &[],
                &[(1, &[1, 1])],
                &[],
                "duplicate overlay edge at left 1",
            ),
            (&[], &[(1, &[5])], &[], "overlay edge (1, 5) out of range"),
            (
                &[],
                &[(1, &[0])],
                &[],
                "overlay edge (1, 0) duplicates the base",
            ),
            (&[], &[(1, &[1]), (1, &[])], &[], "left 1 listed twice"),
            (
                &[],
                &[(1, &[1])],
                &[(2, &[1])],
                "reverse index right 2 out of range",
            ),
            (
                &[],
                &[(1, &[1])],
                &[(1, &[3])],
                "reverse index left 3 out of range",
            ),
            (
                &[],
                &[(1, &[1])],
                &[(1, &[1]), (1, &[])],
                "right 1 listed twice",
            ),
            (&[], &[(1, &[1])], &[(1, &[])], "reverse index disagrees"),
            (
                &[],
                &[(1, &[1])],
                &[(1, &[1, 1])],
                "reverse index disagrees",
            ),
            (&[&[0]], &[], &[(0, &[2])], "reverse index disagrees"),
        ];
        for (arrivals, staged, reverse, msg) in cases {
            let e = decode(arrivals, staged, reverse).unwrap_err().to_string();
            assert!(e.contains(msg), "{msg}: {e}");
        }
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
        // The overlay's rows: each vertex's live row, then its staged
        // edges in staging order (the staged arrival has only its own).
        let lefts: Vec<Vec<RightId>> = (0..ov.n_left() as LeftId)
            .map(|u| overlay_left(&ov, u))
            .collect();
        assert_eq!(
            lefts,
            [vec![1, 0], vec![], vec![1, 0], vec![0, 1], vec![0, 1]]
        );
        let rights: Vec<Vec<LeftId>> = (0..ov.n_right() as RightId)
            .map(|v| overlay_right(&ov, v))
            .collect();
        assert_eq!(rights, [vec![2, 3, 0, 4], vec![0, 2, 3, 4]]);
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

    /// The builder path over the live edges: the reference `compact`
    /// must reproduce exactly.
    fn builder_snapshot(d: &DeltaGraph) -> Bipartite {
        let mut b = BipartiteBuilder::new(d.n_left(), d.n_right());
        for u in 0..d.n_left() as LeftId {
            b.extend_edges(d.left_neighbors_iter(u).map(|v| (u, v)));
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

    /// `DeltaGraph` against a plain edge-set model: the live edges, the
    /// base's edges (the model of what the overlay holds) and `n_left`.
    struct Model {
        live: BTreeSet<(LeftId, RightId)>,
        base: BTreeSet<(LeftId, RightId)>,
        n_left: usize,
    }

    impl Model {
        fn of(g: &Bipartite) -> Model {
            let base: BTreeSet<(LeftId, RightId)> = (0..g.n_left() as LeftId)
                .flat_map(|u| g.left_neighbors(u).iter().map(move |&v| (u, v)))
                .collect();
            Model {
                live: base.clone(),
                base,
                n_left: g.n_left(),
            }
        }

        /// Deleted base edges plus live edges outside the base.
        fn overlay_edges(&self) -> usize {
            self.base.difference(&self.live).count() + self.live.difference(&self.base).count()
        }
    }

    /// Every observable of `d` agrees with `model`, and the encoding
    /// round-trips byte for byte.
    fn check_against_model(d: &DeltaGraph, model: &Model, what: &str) {
        assert_eq!(d.n_left(), model.n_left, "{what}: n_left");
        assert_eq!(d.m(), model.live.len(), "{what}: m");
        assert_eq!(d.overlay_edges(), model.overlay_edges(), "{what}: overlay");
        for u in 0..d.n_left() as LeftId {
            for v in 0..d.n_right() as RightId {
                let want = model.live.contains(&(u, v));
                assert_eq!(d.has_edge(u, v), want, "{what}: has_edge({u}, {v})");
            }
            let it: Vec<RightId> = d.left_neighbors_iter(u).collect();
            let mut seen = Vec::new();
            d.for_each_left_neighbor(u, |v| seen.push(v));
            assert_eq!(seen, it, "{what}: left {u} visitor vs iterator");
            let mut sorted = it.clone();
            sorted.sort_unstable();
            let want: Vec<RightId> = model
                .live
                .range((u, 0)..=(u, RightId::MAX))
                .map(|&(_, v)| v)
                .collect();
            assert_eq!(sorted, want, "{what}: left {u} row");
            assert_eq!(d.left_degree(u), want.len(), "{what}: left {u} degree");
        }
        for v in 0..d.n_right() as RightId {
            let it: Vec<LeftId> = d.right_neighbors_iter(v).collect();
            let mut seen = Vec::new();
            d.for_each_right_neighbor(v, |u| seen.push(u));
            assert_eq!(seen, it, "{what}: right {v} visitor vs iterator");
            let mut sorted = it.clone();
            sorted.sort_unstable();
            let want: Vec<LeftId> = model
                .live
                .iter()
                .filter(|&&(_, w)| w == v)
                .map(|&(u, _)| u)
                .collect();
            assert_eq!(sorted, want, "{what}: right {v} row");
            assert_eq!(d.right_degree(v), want.len(), "{what}: right {v} degree");
        }
        let mut w = ByteWriter::new();
        d.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = DeltaGraph::decode(&mut r).unwrap_or_else(|e| panic!("{what}: decode: {e}"));
        r.expect_end().unwrap();
        let mut w2 = ByteWriter::new();
        back.encode(&mut w2);
        assert_eq!(bytes, w2.into_bytes(), "{what}: encode∘decode∘encode");
        // The decoded per-vertex counts are rebuilt, not copied: the
        // degrees read from them must still match.
        for u in 0..d.n_left() as LeftId {
            assert_eq!(
                back.left_degree(u),
                d.left_degree(u),
                "{what}: decoded left {u}"
            );
        }
        for v in 0..d.n_right() as RightId {
            assert_eq!(
                back.right_degree(v),
                d.right_degree(v),
                "{what}: decoded right {v}"
            );
        }
    }

    #[test]
    fn encode_bytes_of_a_fixed_churned_overlay_are_pinned() {
        // A fixed mix of deletions, revivals, staged inserts, arrivals,
        // departures and capacity moves on a generated forest union. The
        // digest pins the snapshot bytes: snapshot and WAL files written
        // by one build must read back in every later one.
        let g = crate::generators::union_of_spanning_trees(60, 40, 3, 2, 7).graph;
        let mut d = DeltaGraph::new(g);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as u32
        };
        let mut deleted: Vec<(LeftId, RightId)> = Vec::new();
        for step in 0..400 {
            let (nl, nr) = (d.n_left(), d.n_right());
            match step % 6 {
                0 | 3 => {
                    let u = next(nl);
                    let row: Vec<RightId> = d.left_neighbors_iter(u).collect();
                    if !row.is_empty() {
                        let v = row[next(row.len()) as usize];
                        d.delete_edge(u, v);
                        deleted.push((u, v));
                    }
                }
                1 => {
                    d.insert_edge(next(nl), next(nr));
                }
                2 if !deleted.is_empty() => {
                    let (u, v) = deleted.swap_remove(next(deleted.len()) as usize);
                    d.insert_edge(u, v);
                }
                4 if step % 24 == 4 => {
                    d.arrive(&[next(nr), next(nr)]);
                }
                4 => {
                    let u = next(nl);
                    for v in d.depart(u) {
                        deleted.push((u, v));
                    }
                }
                5 => d.set_capacity(next(nr), 1 + next(3) as u64),
                _ => {}
            }
        }
        assert!(d.overlay_edges() > 50, "the overlay is churned");
        let mut w = ByteWriter::new();
        d.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(
            (bytes.len(), io::fnv1a64(&bytes)),
            (4740, 0x7687_0eaf_4875_4c9e),
            "snapshot bytes of the pinned overlay moved"
        );
    }

    /// One churn step of the overlay proptests, drawn from `(kind, a, b,
    /// cap)`: an arrival whose neighbour list repeats a right, a
    /// departure, an insert (onto an arrival it appends out of order), a
    /// delete of a live base or overlay edge, a re-insert of a deleted
    /// edge (reviving a deleted base edge), a capacity move or a fold.
    fn churn_step(
        d: &mut DeltaGraph,
        deleted: &mut Vec<(LeftId, RightId)>,
        (kind, a, b, cap): (u8, u32, u32, u64),
    ) {
        let (nl, nr) = (d.n_left() as u32, d.n_right() as u32);
        match kind {
            0 => {
                d.arrive(&[a % nr, b % nr, a % nr]);
            }
            1 if nl > 0 => {
                for v in d.depart(a % nl) {
                    deleted.push((a % nl, v));
                }
            }
            2 if nl > 0 => {
                d.insert_edge(a % nl, b % nr);
            }
            3 if nl > 0 => {
                let u = a % nl;
                let row: Vec<RightId> = d.left_neighbors_iter(u).collect();
                if !row.is_empty() {
                    let v = row[b as usize % row.len()];
                    assert!(d.delete_edge(u, v));
                    deleted.push((u, v));
                }
            }
            4 if !deleted.is_empty() => {
                let (u, v) = deleted.swap_remove(a as usize % deleted.len());
                d.insert_edge(u, v);
            }
            5 => d.set_capacity(a % nr, cap),
            6 => *d = DeltaGraph::new(d.compact()),
            _ => {}
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn delta_graph_agrees_with_an_edge_set_model(
            g in small_base(),
            ops in proptest::collection::vec((0u8..8, 0u32..1_000, 0u32..1_000, 1u64..=4), 0..40),
        ) {
            let mut d = DeltaGraph::new(g.clone());
            let mut model = Model::of(&g);
            let mut deleted: Vec<(LeftId, RightId)> = Vec::new();
            check_against_model(&d, &model, "fresh");
            for (step, &(kind, a, b, cap)) in ops.iter().enumerate() {
                let (nl, nr) = (d.n_left() as u32, d.n_right() as u32);
                match kind {
                    // Insert an arbitrary pair: a fresh overlay edge, a
                    // revived base edge, or a refused duplicate.
                    0 if nl > 0 => {
                        let (u, v) = (a % nl, b % nr);
                        let fresh = model.live.insert((u, v));
                        prop_assert_eq!(d.insert_edge(u, v), fresh);
                    }
                    // Delete a live edge of `u`.
                    1 if nl > 0 => {
                        let u = a % nl;
                        let row: Vec<RightId> = d.left_neighbors_iter(u).collect();
                        if !row.is_empty() {
                            let v = row[b as usize % row.len()];
                            prop_assert!(d.delete_edge(u, v));
                            model.live.remove(&(u, v));
                            deleted.push((u, v));
                        }
                    }
                    // Delete an arbitrary pair (often not live).
                    2 if nl > 0 => {
                        let (u, v) = (a % nl, b % nr);
                        prop_assert_eq!(d.delete_edge(u, v), model.live.remove(&(u, v)));
                    }
                    // Revive a deleted edge.
                    3 if !deleted.is_empty() => {
                        let (u, v) = deleted.swap_remove(a as usize % deleted.len());
                        prop_assert_eq!(d.insert_edge(u, v), model.live.insert((u, v)));
                    }
                    4 => {
                        let u = d.arrive(&[a % nr, b % nr, a % nr]);
                        prop_assert_eq!(u as usize, model.n_left);
                        model.n_left += 1;
                        model.live.insert((u, a % nr));
                        model.live.insert((u, b % nr));
                    }
                    5 if nl > 0 => {
                        let u = a % nl;
                        let mut gone = d.depart(u);
                        gone.sort_unstable();
                        let want: Vec<RightId> = model
                            .live
                            .range((u, 0)..=(u, RightId::MAX))
                            .map(|&(_, v)| v)
                            .collect();
                        prop_assert_eq!(&gone, &want);
                        for v in gone {
                            model.live.remove(&(u, v));
                            deleted.push((u, v));
                        }
                    }
                    6 => {
                        d.set_capacity(a % nr, cap);
                        prop_assert_eq!(d.capacity(a % nr), cap);
                    }
                    // Fold: the compacted graph becomes the new base.
                    7 => {
                        d = DeltaGraph::new(d.compact());
                        model.base = model.live.clone();
                    }
                    _ => {}
                }
                check_against_model(&d, &model, &format!("step {step} (op {kind})"));
            }
        }

        #[test]
        fn compact_matches_builder(
            g in small_base(),
            ops in proptest::collection::vec((0u8..7, 0u32..1_000, 0u32..1_000, 1u64..=4), 0..40),
        ) {
            let mut d = DeltaGraph::new(g);
            let mut deleted: Vec<(LeftId, RightId)> = Vec::new();
            for (step, &op) in ops.iter().enumerate() {
                churn_step(&mut d, &mut deleted, op);
                let what = format!("step {step} (op {})", op.0);
                assert_same_graph(&d.compact(), &builder_snapshot(&d), &what);
            }
        }

        #[test]
        fn left_rows_visit_compacts_rows(
            g in small_base(),
            ops in proptest::collection::vec((0u8..7, 0u32..1_000, 0u32..1_000, 1u64..=4), 0..40),
        ) {
            // After arrivals, departures, deletions, re-inserts, capacity
            // moves and folds, the view visits exactly the compacted
            // graph's rows, in id order; a row with no deletion and no
            // staged edge is the base's own slice.
            let mut d = DeltaGraph::new(g);
            let mut deleted: Vec<(LeftId, RightId)> = Vec::new();
            for (step, &op) in ops.iter().enumerate() {
                churn_step(&mut d, &mut deleted, op);
                let c = d.compact();
                let mut next: LeftId = 0;
                d.for_each_left_row(|row| {
                    let u = next;
                    assert_eq!(row, c.left_neighbors(u), "step {step}: row {u}");
                    let base = d.base();
                    if (u as usize) < base.n_left()
                        && d.removed_left[u as usize] == 0
                        && d.staged_left(u).is_empty()
                    {
                        assert!(std::ptr::eq(row, base.left_neighbors(u)), "step {step}: row {u} copied");
                    }
                    next += 1;
                });
                prop_assert_eq!(next as usize, c.n_left());
                prop_assert_eq!(LeftRows::m(&d), c.m());
                prop_assert_eq!(LeftRows::n_right(&d), c.n_right());
                prop_assert_eq!(LeftRows::capacities(&d), c.capacities());
            }
        }
    }
}
