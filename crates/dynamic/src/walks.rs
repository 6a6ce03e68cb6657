//! Bounded augmenting-walk maintenance of the integral allocation.
//!
//! The Appendix-B boosting argument says an allocation with no augmenting
//! walk of length `≤ 2k−1` has size `≥ k/(k+1) · OPT`. The static
//! pipeline establishes that certificate once (`core::boosting`); this
//! module maintains it under updates with two bounded searches:
//!
//! * `augment_from_left` — forward BFS from a free left vertex,
//!   exploring at most `k−1` matched hops (the `O(τ)`-ball around the
//!   update site).
//! * `reclaim_into` — backward BFS from freshly freed right capacity,
//!   pulling in a free left vertex through an alternating walk of the same
//!   bounded length.
//!
//! The serve loop's eager repairs (`serve::run_repair`) run both per
//! update. [`Matching::sweep`], the epoch-close certificate sweep, runs
//! the forward search over every free left with a live edge, pass after
//! pass, until a pass augments nothing: the final clean pass certifies
//! the walk-freeness invariant against one fixed matching, restoring the
//! `k/(k+1)` guarantee exactly.
//!
//! All searches run on [`DeltaGraph`] adjacency directly — no CSR
//! materialization — and reuse stamped visit buffers so repeated calls
//! allocate nothing.
//!
//! # Footprint-confined repairs
//!
//! The searches are written against two separable pieces of state: the
//! per-vertex match cells (`MatchSlots`) and a per-caller scratch space
//! (`SearchScratch`). The serial engine borrows both from its
//! [`Matching`]; a p2p shard worker instead runs the same searches over
//! its local mirror of a wave's shipped footprint slice. What makes that
//! slice sufficient is the conflict scheduler's footprint argument: a
//! bounded search from an update site reads and writes match cells only
//! of rights inside its footprint and of lefts whose entire neighborhood
//! lies inside it, so vertex-disjoint footprints touch disjoint cells.
//! Spelled out: a forward search expands rights hop by hop from the
//! update's seeds and flips edges only along the discovered walk; the
//! only *foreign* cell it ever reads is the mate of a left adjacent to an
//! expanded right — and that expanded right witnesses the read from
//! *inside* the footprint, so any other writer of that left's cell would
//! have to own the same right, contradicting disjointness. Hence
//! same-wave repairs commute: no repair can observe another's writes, so
//! every execution order — the serial one, or shard workers repairing
//! their slices side by side — produces the identical engine state. That
//! commutation is what the sharded and networked ≡ serial properties
//! (`tests/properties.rs`) pin.
//!
//! # Example
//!
//! ```
//! use sparse_alloc_dynamic::Matching;
//! use sparse_alloc_graph::{BipartiteBuilder, DeltaGraph};
//!
//! // u0 ~ {v0, v1}, u1 ~ {v0}: a greedy u0–v0 match blocks u1 until a
//! // length-3 augmenting walk re-routes u0 to v1.
//! let mut b = BipartiteBuilder::new(2, 2);
//! b.add_edge(0, 0);
//! b.add_edge(0, 1);
//! b.add_edge(1, 0);
//! let dg = DeltaGraph::new(b.build_with_uniform_capacity(1).unwrap());
//!
//! let mut m = Matching::new(&dg);
//! // k = 1 places u0 on v0 and finds no walk for u1: two searches in the
//! // first pass, one in the clean second pass.
//! assert_eq!(m.sweep(&dg, 1), (1, 3));
//! assert_eq!(m.mate(1), None, "k = 1 forbids the length-3 walk");
//! // One augmentation, from the one search the free u1 started.
//! assert_eq!(m.sweep(&dg, 2), (1, 1), "k = 2 re-routes u0 and pulls u1 in");
//! assert_eq!(m.mate(0), Some(1));
//! assert_eq!(m.mate(1), Some(0));
//! m.validate(&dg).unwrap();
//! ```

use std::collections::VecDeque;

use sparse_alloc_graph::{Assignment, DeltaGraph, LeftId, RightId};

/// The adjacency a bounded walk search needs, abstracted from the full
/// [`DeltaGraph`]: neighbor iteration on both sides plus right
/// capacities.
///
/// The serial engine searches the live graph directly. A p2p shard
/// worker searches a *shipped footprint slice* instead — the few rights
/// and lefts a wave's ball can reach, extracted by the coordinator and
/// sent over the wire — so the searches are generic over the topology
/// they walk. The footprint argument (module docs) is what makes the
/// slice sufficient: a bounded repair never reads adjacency outside its
/// footprint's interior plus the lefts adjacent to it.
pub(crate) trait WalkTopology {
    /// Right neighbors of left vertex `u`, in the live graph's
    /// deterministic iteration order (walk discovery order — and hence
    /// the repaired state — depends on it).
    fn left_neighbors(&self, u: LeftId) -> impl Iterator<Item = RightId> + '_;
    /// Left neighbors of right vertex `v`, same order contract.
    fn right_neighbors(&self, v: RightId) -> impl Iterator<Item = LeftId> + '_;
    /// Capacity of right vertex `v`.
    fn capacity(&self, v: RightId) -> u64;
}

impl WalkTopology for DeltaGraph {
    fn left_neighbors(&self, u: LeftId) -> impl Iterator<Item = RightId> + '_ {
        self.left_neighbors_iter(u)
    }
    fn right_neighbors(&self, v: RightId) -> impl Iterator<Item = LeftId> + '_ {
        self.right_neighbors_iter(v)
    }
    fn capacity(&self, v: RightId) -> u64 {
        // Inherent method, not trait recursion.
        DeltaGraph::capacity(self, v)
    }
}

/// Reusable per-caller search state: stamped visit buffers, BFS queues,
/// and the observable outputs of the most recent search (walk, expansion
/// counter). One instance per searcher; buffers grow once per
/// vertex-set extension and a fresh stamp invalidates them in `O(1)`.
#[derive(Debug, Clone, Default)]
pub(crate) struct SearchScratch {
    stamp: u64,
    seen_left: Vec<u64>,
    seen_right: Vec<u64>,
    depth_left: Vec<u32>,
    parent_left: Vec<(LeftId, RightId)>,
    parent_right: Vec<(LeftId, RightId)>,
    queue_left: VecDeque<LeftId>,
    queue_right: VecDeque<(RightId, u32)>,
    /// Right vertices touched by the most recent successful flip (both the
    /// old and the new side of every flipped pair; may contain duplicates).
    pub(crate) last_walk: Vec<RightId>,
    /// Lifetime count of BFS right-vertex expansions across all searches.
    pub(crate) expansions: u64,
    /// Lifetime count of searches abandoned by the visit cap — each one a
    /// walk the eager path gave up on and deferred to the epoch sweep, so
    /// the rate measures escalation pressure on the serving hot path.
    pub(crate) cap_hits: u64,
}

impl SearchScratch {
    /// Grow the per-vertex buffers to cover the given vertex counts.
    pub(crate) fn ensure(&mut self, n_left: usize, n_right: usize) {
        if self.seen_left.len() < n_left {
            self.seen_left.resize(n_left, 0);
            self.depth_left.resize(n_left, 0);
            self.parent_left.resize(n_left, (0, 0));
        }
        if self.seen_right.len() < n_right {
            self.seen_right.resize(n_right, 0);
            self.parent_right.resize(n_right, (0, 0));
        }
    }
}

/// The matching's per-vertex cells — `mate` and the reverse index
/// `matched_at` — borrowed apart from their owner, so the searches run
/// the same against a [`Matching`] and against a p2p shard worker's
/// local mirror of a wave's slice.
pub(crate) struct MatchSlots<'a> {
    mate: &'a mut [Option<RightId>],
    matched_at: &'a mut [Vec<LeftId>],
}

impl<'a> MatchSlots<'a> {
    /// A view over caller-owned match arrays — how a p2p shard worker
    /// runs the searches against its *local* dense mirror of the wave's
    /// slice instead of a [`Matching`].
    pub(crate) fn over(
        mate: &'a mut [Option<RightId>],
        matched_at: &'a mut [Vec<LeftId>],
    ) -> MatchSlots<'a> {
        MatchSlots { mate, matched_at }
    }

    /// The match of left vertex `u` (`None` for unmatched or out-of-range).
    #[inline]
    pub(crate) fn mate(&self, u: LeftId) -> Option<RightId> {
        self.mate.get(u as usize).copied().flatten()
    }

    /// Number of matched partners of right vertex `v`.
    #[inline]
    pub(crate) fn load(&self, v: RightId) -> u64 {
        self.matched_at[v as usize].len() as u64
    }

    /// Residual capacity of `v` on the walked topology (0 if overfilled).
    #[inline]
    pub(crate) fn residual<T: WalkTopology + ?Sized>(&self, dg: &T, v: RightId) -> u64 {
        dg.capacity(v).saturating_sub(self.load(v))
    }

    /// Match `u` to `v`, releasing any previous match of `u` first.
    /// Returns `true` iff `u` was free (i.e. the matching grew).
    pub(crate) fn set_mate(&mut self, u: LeftId, v: RightId) -> bool {
        let was_free = self.unmatch(u).is_none();
        self.mate[u as usize] = Some(v);
        self.matched_at[v as usize].push(u);
        was_free
    }

    /// Unmatch `u`, returning its former partner.
    pub(crate) fn unmatch(&mut self, u: LeftId) -> Option<RightId> {
        let old = self.mate[u as usize].take()?;
        let at = &mut self.matched_at[old as usize];
        let pos = at.iter().position(|&x| x == u).expect("u was matched at v");
        at.swap_remove(pos);
        Some(old)
    }

    /// Evict one matched partner of `v` (most recently matched first),
    /// returning it.
    pub(crate) fn evict_one(&mut self, v: RightId) -> Option<LeftId> {
        let u = self.matched_at[v as usize].last().copied()?;
        self.unmatch(u);
        Some(u)
    }
}

/// Forward search: try to match free left vertex `u` through an
/// augmenting walk of length `≤ 2k−1` (at most `k−1` matched hops).
/// Returns whether the matching grew (by exactly one).
///
/// `visit_cap` bounds the number of right vertices the search may expand
/// before giving up — the eager per-update repairs pass a small cap (a
/// failed unbounded search costs a whole `O(deg^k)` ball), while
/// [`Matching::sweep`] passes `usize::MAX` because the certificate needs
/// exact searches.
pub(crate) fn augment_from_left<T: WalkTopology + ?Sized>(
    slots: &mut MatchSlots<'_>,
    scratch: &mut SearchScratch,
    dg: &T,
    u: LeftId,
    k: usize,
    visit_cap: usize,
) -> bool {
    assert!(k >= 1, "walk budget k ≥ 1");
    if slots.mate(u).is_some() {
        return false;
    }
    let budget = (k - 1) as u32;
    let mut visits = 0usize;
    scratch.stamp += 1;
    let stamp = scratch.stamp;
    scratch.queue_left.clear();
    scratch.seen_left[u as usize] = stamp;
    scratch.depth_left[u as usize] = 0;
    scratch.queue_left.push_back(u);

    while let Some(x) = scratch.queue_left.pop_front() {
        let d = scratch.depth_left[x as usize];
        // x's mate is loop-invariant: the scan flips nothing until it
        // finds residual capacity, and then it returns.
        let mx = slots.mate(x);
        for w in dg.left_neighbors(x) {
            if mx == Some(w) {
                continue; // the matched edge of x is not traversable here
            }
            if slots.residual(dg, w) > 0 {
                // Flip the walk u ⇝ x — w.
                scratch.last_walk.clear();
                let mut cur = x;
                let mut assign = w;
                loop {
                    let old = slots.mate(cur);
                    scratch.last_walk.push(assign);
                    slots.set_mate(cur, assign);
                    if cur == u {
                        break;
                    }
                    let (prev, via) = scratch.parent_left[cur as usize];
                    debug_assert_eq!(old, Some(via));
                    assign = via;
                    cur = prev;
                }
                return true;
            }
            if d < budget && scratch.seen_right[w as usize] != stamp {
                scratch.seen_right[w as usize] = stamp;
                visits += 1;
                scratch.expansions += 1;
                if visits > visit_cap {
                    scratch.cap_hits += 1;
                    return false;
                }
                for &x2 in &slots.matched_at[w as usize] {
                    if scratch.seen_left[x2 as usize] != stamp {
                        scratch.seen_left[x2 as usize] = stamp;
                        scratch.depth_left[x2 as usize] = d + 1;
                        scratch.parent_left[x2 as usize] = (x, w);
                        scratch.queue_left.push_back(x2);
                    }
                }
            }
        }
    }
    false
}

/// Backward search: right vertex `v` has residual capacity — pull in a
/// free left vertex through an augmenting walk of length `≤ 2k−1` ending
/// at `v`. Returns whether the matching grew (by exactly one).
///
/// `visit_cap` bounds the expanded right vertices, as in
/// [`augment_from_left`].
pub(crate) fn reclaim_into<T: WalkTopology + ?Sized>(
    slots: &mut MatchSlots<'_>,
    scratch: &mut SearchScratch,
    dg: &T,
    v: RightId,
    k: usize,
    visit_cap: usize,
) -> bool {
    assert!(k >= 1, "walk budget k ≥ 1");
    if slots.residual(dg, v) == 0 {
        return false;
    }
    let budget = (k - 1) as u32;
    let mut visits = 0usize;
    scratch.stamp += 1;
    let stamp = scratch.stamp;
    scratch.queue_right.clear();
    scratch.seen_right[v as usize] = stamp;
    scratch.queue_right.push_back((v, 0u32));

    while let Some((w, d)) = scratch.queue_right.pop_front() {
        visits += 1;
        scratch.expansions += 1;
        if visits > visit_cap {
            scratch.cap_hits += 1;
            return false;
        }
        for x in dg.right_neighbors(w) {
            match slots.mate(x) {
                Some(mw) if mw == w => continue, // matched edge: not traversable
                None => {
                    // Found a free left: flip x — w ⇝ v.
                    scratch.last_walk.clear();
                    scratch.last_walk.push(w);
                    slots.set_mate(x, w);
                    let mut cur = w;
                    while cur != v {
                        let (y, next) = scratch.parent_right[cur as usize];
                        debug_assert_eq!(slots.mate(y), Some(cur));
                        scratch.last_walk.push(next);
                        slots.set_mate(y, next);
                        cur = next;
                    }
                    return true;
                }
                Some(w2) => {
                    if d < budget && scratch.seen_right[w2 as usize] != stamp {
                        scratch.seen_right[w2 as usize] = stamp;
                        scratch.parent_right[w2 as usize] = (x, w);
                        scratch.queue_right.push_back((w2, d + 1));
                    }
                }
            }
        }
    }
    false
}

/// The serializable state of a [`Matching`]: what a warm-restart snapshot
/// persists. `matched_at` keeps its per-right *order* — evictions pop the
/// most recently matched left, so the order is behaviorally observable
/// and a restore that lost it would diverge from the uninterrupted run.
/// The expansion counter rides along so restored stats stay monotone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MatchingState {
    pub(crate) mate: Vec<Option<RightId>>,
    pub(crate) matched_at: Vec<Vec<LeftId>>,
    pub(crate) expansions: u64,
}

/// The maintained integral allocation plus one searcher's scratch space.
#[derive(Debug, Clone)]
pub struct Matching {
    /// Per-left match (grows with arrivals; departed slots hold `None`).
    mate: Vec<Option<RightId>>,
    /// Matched left partners per right vertex.
    matched_at: Vec<Vec<LeftId>>,
    size: usize,
    scratch: SearchScratch,
}

impl Matching {
    /// The empty matching on the live graph.
    pub fn new(dg: &DeltaGraph) -> Self {
        let mut m = Matching {
            mate: Vec::new(),
            matched_at: vec![Vec::new(); dg.n_right()],
            size: 0,
            scratch: SearchScratch::default(),
        };
        m.scratch.ensure(0, dg.n_right());
        m.ensure_left(dg.n_left());
        m
    }

    /// Adopt an assignment produced by the static pipeline.
    ///
    /// # Panics
    /// Panics if the assignment references a non-edge or overfills a
    /// capacity of the live graph.
    pub fn from_assignment(dg: &DeltaGraph, a: &Assignment) -> Self {
        let mut m = Matching::new(dg);
        for (u, &mv) in a.mate.iter().enumerate() {
            if let Some(v) = mv {
                assert!(dg.has_edge(u as u32, v), "({u}, {v}) is not a live edge");
                m.set_mate(u as u32, v);
            }
        }
        for v in 0..dg.n_right() as u32 {
            assert!(
                m.load(v) <= dg.capacity(v),
                "right {v} overfilled by the adopted assignment"
            );
        }
        m
    }

    /// The per-left match array (checkpointing reads it in place).
    pub(crate) fn mate_slice(&self) -> &[Option<RightId>] {
        &self.mate
    }

    /// The per-right matched-partner lists, order included (checkpointing
    /// reads them in place).
    pub(crate) fn matched_at_slice(&self) -> &[Vec<LeftId>] {
        &self.matched_at
    }

    /// Rebuild a matching from exported state, re-validating feasibility
    /// against the live graph (snapshot payloads are external input): the
    /// derived size is recounted, and [`Matching::validate`] checks that
    /// every matched pair is a live edge, the reverse index is exactly
    /// the forward map transposed, and no capacity is overfilled.
    pub(crate) fn from_state(dg: &DeltaGraph, st: MatchingState) -> Result<Matching, String> {
        if st.matched_at.len() != dg.n_right() {
            return Err(format!(
                "matching indexes {} right vertices, live graph has {}",
                st.matched_at.len(),
                dg.n_right()
            ));
        }
        if st.mate.len() > dg.n_left() {
            return Err(format!(
                "matching covers {} left vertices, live graph has {}",
                st.mate.len(),
                dg.n_left()
            ));
        }
        let size = st.mate.iter().filter(|m| m.is_some()).count();
        let mut m = Matching {
            mate: st.mate,
            matched_at: st.matched_at,
            size,
            scratch: SearchScratch {
                expansions: st.expansions,
                ..SearchScratch::default()
            },
        };
        m.ensure_left(dg.n_left());
        m.validate(dg)?;
        Ok(m)
    }

    /// Split into the match cells and the owned scratch space.
    pub(crate) fn split(&mut self) -> (MatchSlots<'_>, &mut SearchScratch) {
        (
            MatchSlots::over(&mut self.mate, &mut self.matched_at),
            &mut self.scratch,
        )
    }

    /// Grow the per-left arrays to cover `n_left` vertices.
    pub fn ensure_left(&mut self, n_left: usize) {
        if self.mate.len() < n_left {
            self.mate.resize(n_left, None);
        }
        self.scratch.ensure(n_left, self.matched_at.len());
    }

    /// Cardinality `|M|`.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// The match of left vertex `u` (`None` for unmatched or out-of-range).
    #[inline]
    pub fn mate(&self, u: LeftId) -> Option<RightId> {
        self.mate.get(u as usize).copied().flatten()
    }

    /// Number of matched partners of right vertex `v`.
    #[inline]
    pub fn load(&self, v: RightId) -> u64 {
        self.matched_at[v as usize].len() as u64
    }

    /// Lifetime count of BFS right-vertex expansions across all searches
    /// (eager repairs and sweeps alike). Monotone; sample before/after a
    /// phase to measure its search work.
    #[inline]
    pub fn expansions(&self) -> u64 {
        self.scratch.expansions
    }

    /// Lifetime count of searches the visit cap cut off before they found
    /// a walk (deferred to the epoch sweep). Monotone, like
    /// [`Matching::expansions`].
    #[inline]
    pub fn cap_hits(&self) -> u64 {
        self.scratch.cap_hits
    }

    /// Fold a repair's deferred effects into the matching: its net
    /// growth, and the search counters of a wave run on shard workers.
    pub(crate) fn absorb_wave(&mut self, size_delta: i64, expansions: u64, cap_hits: u64) {
        self.size = (self.size as i64 + size_delta) as usize;
        self.scratch.expansions += expansions;
        self.scratch.cap_hits += cap_hits;
    }

    /// Overwrite left `u`'s match cell with a remotely computed value.
    /// Raw replay: `size` is *not* adjusted — the caller absorbs the
    /// wave's net `size_delta` separately ([`Matching::absorb_wave`]).
    pub(crate) fn replay_left(&mut self, u: LeftId, mate: Option<RightId>) {
        self.ensure_left(u as usize + 1);
        self.mate[u as usize] = mate;
    }

    /// Overwrite right `v`'s matched-partner list, **order included** —
    /// eviction pops the most recently matched left, so replaying a
    /// worker's list out of order would diverge from the run that
    /// computed it.
    pub(crate) fn replay_right(&mut self, v: RightId, list: Vec<LeftId>) {
        self.matched_at[v as usize] = list;
    }

    /// Export as a plain [`Assignment`].
    pub fn assignment(&self) -> Assignment {
        Assignment {
            mate: self.mate.clone(),
        }
    }

    fn set_mate(&mut self, u: LeftId, v: RightId) {
        if self.split().0.set_mate(u, v) {
            self.size += 1;
        }
    }

    /// Restore the `≤ 2k−1` walk-freeness certificate globally: repeat
    /// passes of the uncapped forward search (`augment_from_left`) over
    /// all free left vertices until a pass augments nothing. The final
    /// (augmenting-free) pass certifies every free vertex against the
    /// *same* matching, so on return the allocation has size
    /// `≥ k/(k+1) · OPT` on the live graph. A free left of live degree 0
    /// (a departed slot, an edgeless arrival) has no walk and starts no
    /// search. Returns `(augmentations, searches started)`.
    pub fn sweep(&mut self, dg: &DeltaGraph, k: usize) -> (usize, usize) {
        self.ensure_left(dg.n_left());
        let (mut total, mut starts) = (0usize, 0usize);
        loop {
            let mut progressed = 0usize;
            let (mut slots, scratch) = self.split();
            for u in 0..dg.n_left() as u32 {
                // The mate check is the only per-vertex work for matched
                // vertices, the `O(1)` degree check for edgeless ones.
                // Searches are uncapped: the certificate must be exact.
                if slots.mate(u).is_none() && dg.left_degree(u) > 0 {
                    starts += 1;
                    if augment_from_left(&mut slots, scratch, dg, u, k, usize::MAX) {
                        progressed += 1;
                    }
                }
            }
            self.size += progressed;
            total += progressed;
            if progressed == 0 {
                return (total, starts);
            }
        }
    }

    /// Feasibility check against the live graph (used by tests and the
    /// serve façade's debug assertions).
    pub fn validate(&self, dg: &DeltaGraph) -> Result<(), String> {
        let mut size = 0usize;
        for (u, &mv) in self.mate.iter().enumerate() {
            if let Some(v) = mv {
                size += 1;
                if !dg.has_edge(u as u32, v) {
                    return Err(format!("matched pair ({u}, {v}) is not a live edge"));
                }
                if !self.matched_at[v as usize].contains(&(u as u32)) {
                    return Err(format!("reverse index missing ({u}, {v})"));
                }
            }
        }
        if size != self.size {
            return Err(format!("size {} but {size} matched", self.size));
        }
        let indexed: usize = self.matched_at.iter().map(Vec::len).sum();
        if indexed != size {
            return Err(format!("reverse index holds {indexed} of {size}"));
        }
        for v in 0..dg.n_right() as u32 {
            if self.load(v) > dg.capacity(v) {
                return Err(format!(
                    "right {v} load {} exceeds capacity {}",
                    self.load(v),
                    dg.capacity(v)
                ));
            }
        }
        Ok(())
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use sparse_alloc_flow::opt::opt_value;
    use sparse_alloc_graph::generators::{random_bipartite, union_of_spanning_trees};
    use sparse_alloc_graph::BipartiteBuilder;

    /// One uncapped forward search from `u`, counting its growth into
    /// `|M|` the way [`Matching::sweep`] does.
    fn forward(m: &mut Matching, dg: &DeltaGraph, u: LeftId, k: usize) -> bool {
        m.ensure_left(dg.n_left());
        let (mut slots, scratch) = m.split();
        let grew = augment_from_left(&mut slots, scratch, dg, u, k, usize::MAX);
        m.size += grew as usize;
        grew
    }

    /// One uncapped backward search into `v`, counted like [`forward`].
    fn backward(m: &mut Matching, dg: &DeltaGraph, v: RightId, k: usize) -> bool {
        m.ensure_left(dg.n_left());
        let (mut slots, scratch) = m.split();
        let grew = reclaim_into(&mut slots, scratch, dg, v, k, usize::MAX);
        m.size += grew as usize;
        grew
    }

    /// Evict `v`'s most recently matched partner, as a repair does.
    fn evict_one(m: &mut Matching, v: RightId) -> Option<LeftId> {
        let u = m.split().0.evict_one(v)?;
        m.size -= 1;
        Some(u)
    }

    fn trap() -> DeltaGraph {
        // u0 ~ {v0, v1}, u1 ~ {v0}: matching u0–v0 blocks u1 until a
        // length-3 walk re-routes u0 to v1.
        let mut b = BipartiteBuilder::new(2, 2);
        b.add_edge(0, 0);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        DeltaGraph::new(b.build_with_uniform_capacity(1).unwrap())
    }

    #[test]
    fn forward_search_respects_the_budget() {
        let dg = trap();
        let mut m = Matching::new(&dg);
        assert!(forward(&mut m, &dg, 0, 1));
        assert_eq!(m.mate(0), Some(0));
        // k = 1 forbids the length-3 walk; k = 2 allows it.
        assert!(!forward(&mut m, &dg, 1, 1));
        assert!(forward(&mut m, &dg, 1, 2));
        assert_eq!(m.mate(0), Some(1));
        assert_eq!(m.mate(1), Some(0));
        m.validate(&dg).unwrap();
    }

    #[test]
    fn backward_search_pulls_through_alternating_walks() {
        let dg = trap();
        let mut m = Matching::new(&dg);
        // Match u0–v0 by hand; u1 stays free. Freeing capacity at v1 must
        // pull u1 in through the walk u1 – v0 – u0 – v1.
        m.set_mate(0, 0);
        assert!(!backward(&mut m, &dg, 1, 1), "k = 1 cannot re-route");
        assert!(backward(&mut m, &dg, 1, 2));
        assert_eq!(m.size(), 2);
        assert_eq!(m.mate(0), Some(1));
        assert_eq!(m.mate(1), Some(0));
        m.validate(&dg).unwrap();
    }

    #[test]
    fn sweep_reaches_the_k_over_k_plus_one_bound() {
        for seed in 0..4u64 {
            let g = union_of_spanning_trees(60, 40, 3, 2, seed).graph;
            let opt = opt_value(&g);
            let dg = DeltaGraph::new(g);
            for k in [1usize, 2, 4, 8] {
                let mut m = Matching::new(&dg);
                let (aug, starts) = m.sweep(&dg, k);
                m.validate(&dg).unwrap();
                assert_eq!(aug, m.size(), "every match is one augmentation");
                // The first pass starts one search per (then free) left,
                // the clean last pass one per left still free.
                assert!(starts >= dg.n_left() + dg.n_left() - m.size());
                let bound = (k as f64) / (k as f64 + 1.0) * opt as f64;
                assert!(
                    m.size() as f64 >= bound - 1e-9,
                    "seed {seed} k {k}: {} < {bound} (OPT {opt})",
                    m.size()
                );
            }
        }
    }

    #[test]
    fn large_budget_sweep_is_optimal() {
        for seed in 0..3u64 {
            let g = random_bipartite(50, 30, 220, 3, seed).graph;
            let opt = opt_value(&g);
            let dg = DeltaGraph::new(g);
            let mut m = Matching::new(&dg);
            m.sweep(&dg, 1_000);
            assert_eq!(m.size() as u64, opt, "seed {seed}");
            m.validate(&dg).unwrap();
        }
    }

    #[test]
    fn last_walk_records_both_sides_of_every_flip() {
        let dg = trap();
        let mut m = Matching::new(&dg);
        assert!(forward(&mut m, &dg, 0, 1));
        assert_eq!(m.scratch.last_walk, [0], "length-1 walk touches one right");
        // The length-3 walk re-routes u0 from v0 to v1: both rights flip.
        assert!(forward(&mut m, &dg, 1, 2));
        let mut w = m.scratch.last_walk.clone();
        w.sort_unstable();
        w.dedup();
        assert_eq!(w, vec![0, 1]);

        // Backward search records the full alternating walk too.
        let dg = trap();
        let mut m = Matching::new(&dg);
        m.set_mate(0, 0);
        assert!(backward(&mut m, &dg, 1, 2));
        let mut w = m.scratch.last_walk.clone();
        w.sort_unstable();
        w.dedup();
        assert_eq!(w, vec![0, 1]);
    }

    #[test]
    fn expansions_count_search_work() {
        let dg = trap();
        let mut m = Matching::new(&dg);
        let before = m.expansions();
        m.sweep(&dg, 4);
        assert!(m.expansions() > before, "sweep expands rights");
        let after = m.expansions();
        // A search over a saturated instance still pays its expansions.
        assert!(!forward(&mut m, &dg, 0, 4));
        assert_eq!(m.expansions(), after, "matched start is a no-op");
    }

    #[test]
    fn eviction_and_unmatch_bookkeeping() {
        let dg = trap();
        let mut m = Matching::new(&dg);
        assert_eq!(m.sweep(&dg, 4), (2, 2), "one search per free left");
        assert_eq!(m.size(), 2);
        let evicted = evict_one(&mut m, 0).unwrap();
        assert_eq!(m.size(), 1);
        assert_eq!(m.mate(evicted), None);
        assert_eq!(m.load(0), 0);
        m.validate(&dg).unwrap();
        assert_eq!(evict_one(&mut m, 0), None);
    }

    #[test]
    fn works_on_overlay_adjacency() {
        // Start from an empty base, build the trap via the overlay, and
        // keep the matching maximal throughout.
        let base = BipartiteBuilder::new(0, 2)
            .build_with_uniform_capacity(1)
            .unwrap();
        let mut dg = DeltaGraph::new(base);
        let mut m = Matching::new(&dg);
        let u0 = dg.arrive(&[0, 1]);
        m.ensure_left(dg.n_left());
        assert!(forward(&mut m, &dg, u0, 4));
        let u1 = dg.arrive(&[0]);
        m.ensure_left(dg.n_left());
        assert!(forward(&mut m, &dg, u1, 4));
        assert_eq!(m.size(), 2);
        m.validate(&dg).unwrap();

        // Depart u0: its slot frees, reclaim finds nobody else.
        let freed = dg.depart(u0);
        if let Some(v) = m.mate(u0) {
            assert!(freed.contains(&v));
            m.split().0.unmatch(u0);
            m.size -= 1;
            assert!(!backward(&mut m, &dg, v, 4));
        }
        m.validate(&dg).unwrap();
        assert_eq!(m.size(), 1);
    }
}
