//! The synchronous LOCAL-model executor.

use rayon::prelude::*;
use sparse_alloc_graph::{Bipartite, Side};

use crate::program::{InMap, LocalProgram, VertexCtx};
use crate::sync_slice::SyncSlice;
use sparse_alloc_obs::RoundMetrics;

/// Result of a [`LocalEngine::run`].
#[derive(Debug)]
pub struct RunResult<S> {
    /// Final state of every left vertex.
    pub left_states: Vec<S>,
    /// Final state of every right vertex.
    pub right_states: Vec<S>,
    /// Round/message accounting.
    pub metrics: RoundMetrics,
}

/// Executes [`LocalProgram`]s on a bipartite graph with synchronous-round
/// semantics and per-edge mailboxes.
///
/// # Message buffers
///
/// Left→right messages live in a buffer indexed by *edge id* (contiguous per
/// left vertex); right→left messages live in a buffer indexed by *right-CSR
/// slot* (contiguous per right vertex). Each vertex therefore writes a
/// private contiguous range, which makes the rayon-parallel scatter safe,
/// and reads through a precomputed permutation.
pub struct LocalEngine<'g> {
    g: &'g Bipartite,
    /// edge id → right-CSR slot (inverse of `right_edge_ids`).
    right_slot_of_edge: Vec<u32>,
}

impl<'g> LocalEngine<'g> {
    /// Prepare an engine for `g` (builds the edge→slot permutation, `O(m)`).
    pub fn new(g: &'g Bipartite) -> Self {
        LocalEngine {
            g,
            right_slot_of_edge: g.right_slot_of_edge(),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Bipartite {
        self.g
    }

    /// Run `program` for at most `max_rounds` rounds, stopping early in any
    /// round where every vertex votes to halt.
    pub fn run<P: LocalProgram>(&self, program: &P, max_rounds: usize) -> RunResult<P::State> {
        let g = self.g;
        let m = g.m();

        let mut left_states: Vec<P::State> = (0..g.n_left() as u32)
            .into_par_iter()
            .map(|u| program.init(g, Side::Left, u))
            .collect();
        let mut right_states: Vec<P::State> = (0..g.n_right() as u32)
            .into_par_iter()
            .map(|v| program.init(g, Side::Right, v))
            .collect();

        // Double-buffered mailboxes.
        let mut l2r_prev: Vec<Option<P::Msg>> = fill_none(m);
        let mut l2r_next: Vec<Option<P::Msg>> = fill_none(m);
        let mut r2l_prev: Vec<Option<P::Msg>> = fill_none(m);
        let mut r2l_next: Vec<Option<P::Msg>> = fill_none(m);

        let mut metrics = RoundMetrics::default();

        for round in 0..max_rounds {
            let (l2r_next_view, r2l_next_view) =
                (SyncSlice::new(&mut l2r_next), SyncSlice::new(&mut r2l_next));

            // Left phase: read r2l_prev, write l2r_next.
            let (l_sent, l_halt) = left_states
                .par_iter_mut()
                .enumerate()
                .map(|(u, state)| {
                    let u = u as u32;
                    let range = g.left_edge_range(u);
                    let mut ctx = VertexCtx {
                        side: Side::Left,
                        id: u,
                        round,
                        neighbors: g.left_neighbors(u),
                        in_map: InMap::Table(&self.right_slot_of_edge[range.clone()]),
                        in_buf: &r2l_prev,
                        out_base: range.start,
                        out_buf: &l2r_next_view,
                        sent: 0,
                        halt: false,
                    };
                    program.round(&mut ctx, state);
                    (ctx.sent, ctx.halt)
                })
                .reduce(|| (0u64, true), |a, b| (a.0 + b.0, a.1 && b.1));

            // Right phase: read l2r_prev, write r2l_next. Same round — both
            // phases see only prev-round messages.
            let (r_sent, r_halt) = right_states
                .par_iter_mut()
                .enumerate()
                .map(|(v, state)| {
                    let v = v as u32;
                    let slots = g.right_slot_range(v);
                    let mut ctx = VertexCtx {
                        side: Side::Right,
                        id: v,
                        round,
                        neighbors: g.right_neighbors(v),
                        in_map: InMap::Table(g.right_edge_ids(v)),
                        in_buf: &l2r_prev,
                        out_base: slots.start,
                        out_buf: &r2l_next_view,
                        sent: 0,
                        halt: false,
                    };
                    program.round(&mut ctx, state);
                    (ctx.sent, ctx.halt)
                })
                .reduce(|| (0u64, true), |a, b| (a.0 + b.0, a.1 && b.1));

            let sent = l_sent + r_sent;
            metrics.rounds += 1;
            metrics.messages += sent;
            metrics.messages_per_round.push(sent);

            if l_halt && r_halt {
                metrics.halted = true;
                break;
            }

            // Swap buffers; clear the new "next" for reuse.
            std::mem::swap(&mut l2r_prev, &mut l2r_next);
            std::mem::swap(&mut r2l_prev, &mut r2l_next);
            l2r_next.par_iter_mut().for_each(|s| *s = None);
            r2l_next.par_iter_mut().for_each(|s| *s = None);
        }

        RunResult {
            left_states,
            right_states,
            metrics,
        }
    }
}

fn fill_none<M>(m: usize) -> Vec<Option<M>> {
    std::iter::repeat_with(|| None).take(m).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_alloc_graph::BipartiteBuilder;

    /// Every vertex sends `1` on every slot each round; state accumulates
    /// the received count. After r ≥ 2 rounds each vertex has received
    /// (r − 1) · degree (round 0 delivers nothing).
    struct CountProgram;
    impl LocalProgram for CountProgram {
        type State = u64;
        type Msg = u64;
        fn init(&self, _: &Bipartite, _: Side, _: u32) -> u64 {
            0
        }
        fn round(&self, ctx: &mut VertexCtx<'_, u64>, state: &mut u64) {
            *state += ctx.inbox().map(|(_, &m)| m).sum::<u64>();
            for s in 0..ctx.degree() {
                ctx.send(s, 1);
            }
        }
    }

    #[test]
    fn mailbox_delivery_counts() {
        let mut b = BipartiteBuilder::new(3, 2);
        for (u, v) in [(0u32, 0u32), (0, 1), (1, 0), (2, 1)] {
            b.add_edge(u, v);
        }
        let g = b.build_with_uniform_capacity(1).unwrap();
        let engine = LocalEngine::new(&g);
        let rounds = 5;
        let res = engine.run(&CountProgram, rounds);
        assert_eq!(res.metrics.rounds, rounds);
        assert!(!res.metrics.halted);
        // messages per round = 2m (both directions on every edge).
        assert_eq!(res.metrics.messages, (rounds as u64) * 2 * g.m() as u64);
        for u in 0..g.n_left() as u32 {
            assert_eq!(
                res.left_states[u as usize],
                (rounds as u64 - 1) * g.left_degree(u) as u64
            );
        }
        for v in 0..g.n_right() as u32 {
            assert_eq!(
                res.right_states[v as usize],
                (rounds as u64 - 1) * g.right_degree(v) as u64
            );
        }
    }

    /// Round 0: left vertices send their id; right vertices store the max
    /// received id in round 1 and halt; left halts from round 1.
    struct MaxIdProgram;
    impl LocalProgram for MaxIdProgram {
        type State = Option<u32>;
        type Msg = u32;
        fn init(&self, _: &Bipartite, _: Side, _: u32) -> Option<u32> {
            None
        }
        fn round(&self, ctx: &mut VertexCtx<'_, u32>, state: &mut Option<u32>) {
            match (ctx.side(), ctx.round()) {
                (Side::Left, 0) => {
                    let id = ctx.id();
                    for s in 0..ctx.degree() {
                        ctx.send(s, id);
                    }
                }
                (Side::Right, 1) => {
                    *state = ctx.inbox().map(|(_, &m)| m).max();
                    ctx.vote_halt();
                }
                _ => ctx.vote_halt(),
            }
        }
    }

    #[test]
    fn halting_and_targeted_delivery() {
        let mut b = BipartiteBuilder::new(4, 2);
        for (u, v) in [(0u32, 0u32), (3, 0), (1, 1), (2, 1)] {
            b.add_edge(u, v);
        }
        let g = b.build_with_uniform_capacity(1).unwrap();
        let res = LocalEngine::new(&g).run(&MaxIdProgram, 100);
        assert!(res.metrics.halted);
        assert_eq!(res.metrics.rounds, 2);
        assert_eq!(res.right_states[0], Some(3));
        assert_eq!(res.right_states[1], Some(2));
    }

    /// Slot-addressed echo: each left vertex sends its slot index; each
    /// right vertex replies with the received value + 100; left checks the
    /// reply arrives on the same slot it sent on.
    struct EchoProgram;
    impl LocalProgram for EchoProgram {
        type State = Vec<u32>;
        type Msg = u32;
        fn init(&self, _: &Bipartite, _: Side, _: u32) -> Vec<u32> {
            Vec::new()
        }
        fn round(&self, ctx: &mut VertexCtx<'_, u32>, state: &mut Vec<u32>) {
            match (ctx.side(), ctx.round()) {
                (Side::Left, 0) => {
                    for s in 0..ctx.degree() {
                        ctx.send(s, s as u32);
                    }
                }
                (Side::Right, 1) => {
                    let incoming: Vec<(usize, u32)> = ctx.inbox().map(|(s, &m)| (s, m)).collect();
                    for (s, m) in incoming {
                        ctx.send(s, m + 100);
                    }
                }
                (Side::Left, 2) => {
                    *state = (0..ctx.degree())
                        .map(|s| *ctx.recv(s).expect("echo reply missing"))
                        .collect();
                    ctx.vote_halt();
                }
                _ => ctx.vote_halt(),
            }
        }
    }

    #[test]
    fn slot_addressing_round_trips() {
        let mut b = BipartiteBuilder::new(3, 3);
        for (u, v) in [(0u32, 0u32), (0, 1), (0, 2), (1, 1), (2, 0), (2, 2)] {
            b.add_edge(u, v);
        }
        let g = b.build_with_uniform_capacity(1).unwrap();
        let res = LocalEngine::new(&g).run(&EchoProgram, 10);
        for u in 0..g.n_left() as u32 {
            let expect: Vec<u32> = (0..g.left_degree(u)).map(|s| s as u32 + 100).collect();
            assert_eq!(res.left_states[u as usize], expect, "left {u}");
        }
    }

    #[test]
    fn zero_rounds() {
        let mut b = BipartiteBuilder::new(2, 2);
        b.add_edge(0, 0);
        let g = b.build_with_uniform_capacity(1).unwrap();
        let res = LocalEngine::new(&g).run(&CountProgram, 0);
        assert_eq!(res.metrics.rounds, 0);
        assert_eq!(res.metrics.messages, 0);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        // Same program, 1-thread pool vs default pool: identical outcome.
        let mut b = BipartiteBuilder::new(50, 40);
        for i in 0..50u32 {
            b.add_edge(i, i % 40);
            b.add_edge(i, (i * 7 + 3) % 40);
        }
        let g = b.build_with_uniform_capacity(2).unwrap();
        let res_par = LocalEngine::new(&g).run(&CountProgram, 7);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let res_seq = pool.install(|| LocalEngine::new(&g).run(&CountProgram, 7));
        assert_eq!(res_par.left_states, res_seq.left_states);
        assert_eq!(res_par.right_states, res_seq.right_states);
        assert_eq!(res_par.metrics, res_seq.metrics);
    }
}
