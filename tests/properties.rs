//! Property-based tests (proptest) over randomly generated allocation
//! instances: structural invariants of the substrate and the paper's
//! guarantees, checked against the exact oracle.

mod common;

use common::materialize_ops;
use proptest::prelude::*;
use sparse_alloc::core::algo1::{self, ProportionalConfig};
use sparse_alloc::core::boosting::{boost_hk, shortest_augmenting_walk};
use sparse_alloc::core::params::Schedule;
use sparse_alloc::core::rounding;
use sparse_alloc::core::sampled::{run_sampled, SampleBudget, SampledConfig};
use sparse_alloc::dynamic::distributed::ShardedEpochReport;
use sparse_alloc::dynamic::engine::{drive, Engine};
use sparse_alloc::flow::greedy::{greedy_allocation, is_maximal};
use sparse_alloc::flow::opt::{max_allocation, opt_value, trivial_upper_bound};
use sparse_alloc::graph::io;
use sparse_alloc::graph::sparsity::arboricity_bracket;
use sparse_alloc::prelude::*;

/// Strategy: an arbitrary small allocation instance — edge list with
/// duplicates and isolated vertices allowed, capacities in 1..=4.
fn instance() -> impl Strategy<Value = Bipartite> {
    (2usize..24, 2usize..20).prop_flat_map(|(nl, nr)| {
        let edges = proptest::collection::vec((0..nl as u32, 0..nr as u32), 0..120);
        let caps = proptest::collection::vec(1u64..=4, nr);
        (Just(nl), Just(nr), edges, caps).prop_map(|(nl, nr, edges, caps)| {
            let mut b = BipartiteBuilder::new(nl, nr);
            b.extend_edges(edges);
            b.build(caps).expect("in-range instance")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_cross_references_hold(g in instance()) {
        g.validate().unwrap();
        // Degree sums agree across the two CSRs.
        let left_sum: usize = (0..g.n_left() as u32).map(|u| g.left_degree(u)).sum();
        let right_sum: usize = (0..g.n_right() as u32).map(|v| g.right_degree(v)).sum();
        prop_assert_eq!(left_sum, g.m());
        prop_assert_eq!(right_sum, g.m());
    }

    #[test]
    fn arboricity_bracket_is_ordered(g in instance()) {
        let b = arboricity_bracket(&g);
        prop_assert!(b.lower <= b.upper.max(1));
        if g.m() == 0 {
            prop_assert_eq!(b.upper, 0);
        }
    }

    #[test]
    fn text_io_roundtrips(g in instance()) {
        let mut buf = Vec::new();
        io::write_text(&g, &mut buf).unwrap();
        let g2 = io::read_text(&mut &buf[..]).unwrap();
        prop_assert_eq!(g.m(), g2.m());
        prop_assert_eq!(g.capacities(), g2.capacities());
        prop_assert_eq!(g.edge_right_endpoints(), g2.edge_right_endpoints());
    }

    #[test]
    fn opt_is_sound(g in instance()) {
        let opt = opt_value(&g);
        prop_assert!(opt <= trivial_upper_bound(&g));
        let witness = max_allocation(&g);
        witness.validate(&g).unwrap();
        prop_assert_eq!(witness.size() as u64, opt);
    }

    #[test]
    fn greedy_is_maximal_and_half_opt(g in instance()) {
        let a = greedy_allocation(&g);
        a.validate(&g).unwrap();
        prop_assert!(is_maximal(&g, &a));
        prop_assert!(2 * a.size() as u64 >= opt_value(&g));
    }

    #[test]
    fn algo1_output_is_always_feasible(g in instance(), eps in 0.05f64..1.0, tau in 1usize..25) {
        let res = algo1::run(&g, &ProportionalConfig {
            eps,
            schedule: Schedule::Fixed(tau),
            track_history: false,
        });
        res.fractional.validate(&g, 1e-7).unwrap();
        // Objective never exceeds (fractional) OPT.
        prop_assert!(res.match_weight <= opt_value(&g) as f64 + 1e-6);
    }

    #[test]
    fn lemma7_invariants_always_hold(g in instance(), tau in 1usize..20) {
        let eps = 0.2;
        let res = algo1::run(&g, &ProportionalConfig {
            eps,
            schedule: Schedule::Fixed(tau),
            track_history: false,
        });
        let r = tau as i64;
        for v in 0..g.n_right() {
            let c = g.capacity(v as u32) as f64;
            if res.levels[v] < r {
                prop_assert!(res.alloc[v] >= c / (1.0 + 3.0 * eps) - 1e-9,
                    "under-allocation bound at v={v}");
            }
            if res.levels[v] > -r {
                prop_assert!(res.alloc[v] <= c * (1.0 + 3.0 * eps) + 1e-9,
                    "over-allocation bound at v={v}");
            }
        }
    }

    #[test]
    fn rounding_is_always_feasible(g in instance(), seed in 0u64..1000) {
        let res = algo1::run(&g, &ProportionalConfig {
            eps: 0.1,
            schedule: Schedule::Fixed(8),
            track_history: false,
        });
        rounding::round_sampling(&g, &res.fractional, seed).validate(&g).unwrap();
        rounding::round_greedy(&g, &res.fractional).validate(&g).unwrap();
        rounding::round_best_of(&g, &res.fractional, 5, seed).validate(&g).unwrap();
    }

    #[test]
    fn hk_boosting_certificate(g in instance(), k in 1usize..6) {
        let start = greedy_allocation(&g);
        let (boosted, _) = boost_hk(&g, &start, k);
        boosted.validate(&g).unwrap();
        prop_assert!(boosted.size() >= start.size());
        // The k/(k+1) guarantee against the exact optimum.
        let opt = opt_value(&g) as f64;
        prop_assert!(boosted.size() as f64 >= (k as f64 / (k as f64 + 1.0)) * opt - 1e-9);
        // And the certificate itself: no short augmenting walk remains.
        if let Some(len) = shortest_augmenting_walk(&g, &boosted) {
            prop_assert!(len > 2 * k - 1, "walk of length {len} with k={k}");
        }
    }

    #[test]
    fn sampled_run_is_feasible_any_budget(g in instance(), t in 1usize..12, b in 1usize..4) {
        let res = run_sampled(&g, &SampledConfig {
            eps: 0.2,
            phase_len: b,
            tau: 9,
            budget: SampleBudget::Fixed(t),
            seed: 7,
            check_termination: false,
        });
        res.fractional.validate(&g, 1e-7).unwrap();
        prop_assert_eq!(res.rounds, 9);
    }

    #[test]
    fn distributed_equals_shared_memory_on_arbitrary_instances(
        g in instance(), t in 1usize..6, b in 1usize..4, machines in 1usize..5, seed in 0u64..50,
    ) {
        // The bit-equality contract between the two Algorithm-2 paths must
        // survive every instance shape: duplicates, isolated vertices on
        // both sides, disconnected components.
        use sparse_alloc::core::mpc_exec::{run_mpc, MpcExecConfig};
        let eps = 0.25;
        let budget = SampleBudget::Fixed(t);
        let shared = run_sampled(&g, &SampledConfig {
            eps,
            phase_len: b,
            tau: 5,
            budget,
            seed,
            check_termination: false,
        });
        let dist = run_mpc(&g, &MpcExecConfig {
            eps,
            phase_len: b,
            tau: 5,
            budget,
            seed,
            check_termination: false,
            mpc: MpcConfig::lenient(machines, usize::MAX / 4),
        }).unwrap();
        prop_assert_eq!(shared.levels, dist.levels);
        prop_assert_eq!(shared.match_weight, dist.match_weight);
    }

    #[test]
    fn dynamic_repair_matches_scratch(
        g in instance(),
        ops in proptest::collection::vec((0u8..5, 0u32..1_000_000, 0u32..1_000_000, 1u64..=4), 0..40),
        epoch_every in 3usize..9,
    ) {
        // After any update sequence, the maintained allocation must match
        // a from-scratch pipeline run within the same (1+O(ε)) bound: the
        // epoch-boundary certificate guarantees ≥ k/(k+1)·OPT on the live
        // graph, which is the bound the static boosting stage gives.
        let eps = 0.25;
        let mut serve = ServeLoop::new(g, DynamicConfig::for_eps(eps));
        for (i, &(kind, a, b, cap)) in ops.iter().enumerate() {
            let nl = serve.graph().n_left() as u32;
            let nr = serve.graph().n_right() as u32;
            let up = match kind {
                0 => Update::Arrive { neighbors: vec![a % nr, b % nr] },
                1 => Update::Depart { u: a % nl },
                2 => Update::InsertEdge { u: a % nl, v: b % nr },
                3 => Update::DeleteEdge { u: a % nl, v: b % nr },
                _ => Update::SetCapacity { v: a % nr, cap },
            };
            serve.apply(&up);
            if i % epoch_every == epoch_every - 1 {
                serve.end_epoch();
                serve.validate_certificate().unwrap();
            }
        }
        serve.end_epoch();
        serve.validate().unwrap();
        serve.validate_certificate().unwrap();

        let live = serve.snapshot();
        let maintained = serve.assignment();
        maintained.validate(&live).unwrap();
        let opt = opt_value(&live);
        let k = serve.config().walk_budget as f64;
        prop_assert!(maintained.size() as u64 <= opt);
        prop_assert!(
            maintained.size() as f64 >= k / (k + 1.0) * opt as f64 - 1e-9,
            "maintained {} below k/(k+1)·OPT with OPT {opt}", maintained.size()
        );
        // Head-to-head with the from-scratch pipeline on the final graph.
        let scratch = solve(&live, &PipelineConfig::default());
        prop_assert!(
            maintained.size() as f64 * (1.0 + 1.0 / k) >= scratch.assignment.size() as f64 - 1e-9,
            "maintained {} vs scratch {}", maintained.size(), scratch.assignment.size()
        );
    }

    #[test]
    fn fractional_equals_scratch_under_updates(
        g in instance(),
        ops in proptest::collection::vec((0u8..5, 0u32..1_000_000, 0u32..1_000_000, 1u64..=4), 0..30),
        epoch_every in 2usize..7,
        caps in proptest::collection::vec((0u32..1_000_000, 1u64..=4), 1..4),
    ) {
        // After any update sequence, ServeLoop::fractional() must equal —
        // bit for bit — finalize_from_levels on a builder-built snapshot
        // of the live edges, after structural and capacity-only epochs.
        use sparse_alloc::core::fractional::finalize_from_levels;
        let eps = 0.25;
        let mut serve = ServeLoop::new(g, DynamicConfig::for_eps(eps));
        let check = |serve: &ServeLoop| {
            let dg = serve.graph();
            let mut b = BipartiteBuilder::new(dg.n_left(), dg.n_right());
            for u in 0..dg.n_left() as u32 {
                b.extend_edges(dg.left_neighbors_iter(u).map(|v| (u, v)));
            }
            let live = b.build(dg.capacities().to_vec()).unwrap();
            let (got, want) = (serve.fractional(), finalize_from_levels(&live, serve.levels(), eps));
            prop_assert!(got.x == want.x, "x differs from the scratch recompute");
            prop_assert!(got.weight == want.weight, "weight {} vs {}", got.weight, want.weight);
        };
        for (i, &(kind, a, b, cap)) in ops.iter().enumerate() {
            let nl = serve.graph().n_left() as u32;
            let nr = serve.graph().n_right() as u32;
            let up = match kind {
                0 => Update::Arrive { neighbors: vec![a % nr, b % nr] },
                1 => Update::Depart { u: a % nl },
                2 => Update::InsertEdge { u: a % nl, v: b % nr },
                3 => Update::DeleteEdge { u: a % nl, v: b % nr },
                _ => Update::SetCapacity { v: a % nr, cap },
            };
            serve.apply(&up);
            if i % epoch_every == epoch_every - 1 {
                serve.end_epoch();
                check(&serve);
            }
        }
        serve.end_epoch();
        check(&serve);
        // A capacity-only epoch: levels and capacities move, edges do not.
        let nr = serve.graph().n_right() as u32;
        for &(v, cap) in &caps {
            serve.apply(&Update::SetCapacity { v: v % nr, cap });
        }
        serve.end_epoch();
        check(&serve);
    }

    #[test]
    fn pipeline_is_feasible_and_bounded(g in instance()) {
        let out = solve(&g, &PipelineConfig::default());
        out.assignment.validate(&g).unwrap();
        let opt = opt_value(&g);
        prop_assert!(out.assignment.size() as u64 <= opt);
        // With k = 10 boosting the result is ≥ (10/11)·OPT.
        prop_assert!(out.assignment.size() as f64 >= opt as f64 * 10.0 / 11.0 - 1e-9);
    }
}

/// ε of every ≡-serial property.
const EPS: f64 = 0.25;

/// The serial reference the ≡-serial properties compare against: the
/// same stream, one epoch per `epoch_every` updates, under the sharded
/// default engine config (the equivalence contract is per-config).
struct Reference {
    /// Matching size after each epoch.
    sizes: Vec<usize>,
    /// The final matching.
    mate: Vec<Option<u32>>,
    /// The exact optimum of the final live graph.
    opt: u64,
    /// The walk budget `k` of the `k/(k+1)` certificate.
    k: f64,
}

impl Reference {
    fn of(g: &Bipartite, updates: &[Update], epoch_every: usize) -> Reference {
        let mut serial = ServeLoop::new(g.clone(), ShardedConfig::for_eps(EPS, 1).dynamic);
        let reports = drive(&mut serial, updates.chunks(epoch_every)).unwrap();
        Reference {
            sizes: reports.iter().map(|r| r.match_size).collect(),
            mate: serial.assignment().mate,
            opt: opt_value(&serial.snapshot()),
            k: serial.config().walk_budget as f64,
        }
    }

    /// The one ≡-serial harness, for any engine: drive `engine` over the
    /// same stream and assert that no machine ever leaves its space
    /// budget, that the per-epoch matching sizes and the served
    /// allocation equal the reference's (a networked engine gathers its
    /// allocation from the worker slices over the wire, not from the
    /// coordinator's copy), and that the served size keeps the
    /// `k/(k+1)·OPT` certificate. `sharded` reads the sharded half of an
    /// epoch report. Failure is a panic, which proptest reports as a
    /// failed case.
    fn assert_matched_by<E: Engine>(
        &self,
        what: &str,
        engine: &mut E,
        updates: &[Update],
        epoch_every: usize,
        sharded: impl Fn(&E::Report) -> ShardedEpochReport,
    ) {
        let reports = drive(engine, updates.chunks(epoch_every))
            .unwrap_or_else(|e| panic!("{what}: an epoch failed: {e}"));
        let mut sizes = Vec::new();
        for report in reports.iter().map(sharded) {
            assert!(
                report.peak_shard_words <= report.budget,
                "{what}: {} words on one machine exceeds the budget {}",
                report.peak_shard_words,
                report.budget
            );
            sizes.push(report.serial.match_size);
        }
        engine.validate().unwrap();
        assert_eq!(sizes, self.sizes, "{what}: epoch sizes diverged");
        let served = engine
            .served()
            .unwrap_or_else(|e| panic!("{what}: serving the allocation failed: {e}"));
        assert_eq!(served.mate, self.mate, "{what}: final matching diverged");
        let (k, opt) = (self.k, self.opt);
        assert!(
            served.size() as f64 >= k / (k + 1.0) * opt as f64 - 1e-9,
            "{what}: {} below k/(k+1)·OPT (OPT {opt})",
            served.size()
        );
    }
}

/// The sharded engine on `shards` machines, forced onto real wave
/// threads (2–3) regardless of the host's core count: the threaded wave
/// executor must produce the identical state — that is the
/// commuting-repairs contract.
fn sharded_engine(g: &Bipartite, shards: usize) -> ShardedServeLoop {
    let mut cfg = ShardedConfig::for_eps(EPS, shards);
    cfg.wave_threads = 2 + shards % 2;
    ShardedServeLoop::new(g.clone(), cfg)
        .unwrap_or_else(|e| panic!("{shards} shards: initial state over budget: {e}"))
}

/// The harness on a networked engine. With `p2p` the engine runs
/// peer-to-peer repair waves (walk state moving worker↔worker) instead of
/// the star topology — the contract is the same either way. Returns the
/// run's handoff frame count so deterministic callers can assert
/// cross-shard traffic actually happened.
fn assert_net_equals_serial(
    g: &Bipartite,
    updates: &[Update],
    epoch_every: usize,
    shards: usize,
    kind: TransportKind,
    p2p: bool,
) -> u64 {
    let what = format!("{shards} shards over {kind:?}");
    let cfg = ShardedConfig::for_eps(EPS, shards);
    let mut net = if p2p {
        NetServeLoop::new_p2p(g.clone(), cfg, kind)
    } else {
        NetServeLoop::new(g.clone(), cfg, kind)
    }
    .unwrap_or_else(|e| panic!("{what}: startup failed: {e}"));
    assert_eq!(net.is_p2p(), p2p);
    let reference = Reference::of(g, updates, epoch_every);
    reference.assert_matched_by(&what, &mut net, updates, epoch_every, |r| r.inner.clone());
    net.net_stats().handoff_frames
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The distributed contract: for ANY update sequence and ANY shard
    /// count, ShardedServeLoop — update routing, conflict-wave
    /// scheduling, cross-shard sweep commit and all — maintains an
    /// allocation *identical* to the serial ServeLoop's (hence the same
    /// size and the same (1+O(ε)) guarantee), and no machine ever leaves
    /// its n^δ-style space budget (the strict cluster and the per-epoch
    /// ledger assertion would return Err).
    #[test]
    fn sharded_serving_equals_serial_for_any_shard_count(
        g in instance(),
        ops in proptest::collection::vec((0u8..5, 0u32..1_000_000, 0u32..1_000_000, 1u64..=4), 0..26),
        epoch_every in 2usize..8,
    ) {
        let updates = materialize_ops(&g, &ops);
        let reference = Reference::of(&g, &updates, epoch_every);
        for shards in [1usize, 2, 4, 7] {
            let mut sharded = sharded_engine(&g, shards);
            let what = format!("{shards} shards");
            reference.assert_matched_by(&what, &mut sharded, &updates, epoch_every, |r| r.clone());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The sharded≡serial contract survives the move onto a real
    /// transport: per-shard worker threads exchanging checksummed frames
    /// over in-process loopback maintain (and report over the wire) the
    /// identical allocation for any update sequence and shard count.
    #[test]
    fn networked_serving_over_loopback_equals_serial(
        g in instance(),
        ops in proptest::collection::vec((0u8..5, 0u32..1_000_000, 0u32..1_000_000, 1u64..=4), 0..26),
        epoch_every in 2usize..8,
    ) {
        let updates = materialize_ops(&g, &ops);
        for &shards in &[1usize, 2, 4, 7] {
            assert_net_equals_serial(&g, &updates, epoch_every, shards, TransportKind::Loopback, false);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Same contract over real TCP sockets between threads (fewer cases
    /// and shard counts: each case opens `2 × shards` sockets).
    #[test]
    fn networked_serving_over_tcp_equals_serial(
        g in instance(),
        ops in proptest::collection::vec((0u8..5, 0u32..1_000_000, 0u32..1_000_000, 1u64..=4), 0..26),
        epoch_every in 2usize..8,
    ) {
        let updates = materialize_ops(&g, &ops);
        for &shards in &[2usize, 3] {
            assert_net_equals_serial(&g, &updates, epoch_every, shards, TransportKind::Tcp, false);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The p2p twin of the loopback contract: repair waves ship to the
    /// shard workers owning their balls, bounded walks run *there*
    /// against the local slice, and walks crossing a shard boundary
    /// hand their state directly worker↔worker — and for any update
    /// sequence and shard count the wire-gathered matching is still
    /// byte-identical to the uninterrupted serial engine's.
    #[test]
    fn p2p_serving_over_loopback_equals_serial(
        g in instance(),
        ops in proptest::collection::vec((0u8..5, 0u32..1_000_000, 0u32..1_000_000, 1u64..=4), 0..26),
        epoch_every in 2usize..8,
    ) {
        let updates = materialize_ops(&g, &ops);
        for &shards in &[1usize, 2, 4, 7] {
            assert_net_equals_serial(&g, &updates, epoch_every, shards, TransportKind::Loopback, true);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The same p2p ≡ serial contract over real TCP sockets: the mesh is
    /// `2 × shards` spoke sockets plus one socket per worker pair, so
    /// fewer cases and shard counts.
    #[test]
    fn p2p_serving_over_tcp_equals_serial(
        g in instance(),
        ops in proptest::collection::vec((0u8..5, 0u32..1_000_000, 0u32..1_000_000, 1u64..=4), 0..26),
        epoch_every in 2usize..8,
    ) {
        let updates = materialize_ops(&g, &ops);
        for &shards in &[2usize, 3] {
            assert_net_equals_serial(&g, &updates, epoch_every, shards, TransportKind::Tcp, true);
        }
    }
}

/// Epochs with *provably* cross-shard walks: random proptest instances
/// are too small to guarantee a walk ever leaves its shard, so this
/// deterministic companion drives a workload whose repair balls straddle
/// the scattered ownership (verified by the in-module metering tests) and
/// asserts both halves of the contract at once — nonzero worker↔worker
/// handoff traffic, and a run that is still serial-identical.
#[test]
fn p2p_epochs_with_cross_shard_walks_stay_serial_identical() {
    let g = union_of_spanning_trees(60, 45, 2, 2, 13).graph;
    let updates = sparse_alloc::dynamic::adapter::churn_stream(
        &g,
        90,
        &sparse_alloc::dynamic::adapter::ChurnMix::default(),
        13,
    );
    let handoffs = assert_net_equals_serial(&g, &updates, 30, 3, TransportKind::Loopback, true);
    assert!(
        handoffs > 0,
        "the workload must force at least one cross-shard walk handoff"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The schedule-invariant contract of the width-balancing wave
    /// scheduler, checked on the public API (replacing the retired
    /// plans-identical oracle): for arbitrary batches and shard counts —
    ///
    /// * no two same-wave non-global plans share a footprint right;
    /// * every global plan's wave exceeds all prior plans' waves (and
    ///   every later plan's wave exceeds the global's);
    /// * `widths` sums to the plan count and `waves == widths.len()`;
    /// * applying the schedule through the sharded engine yields the
    ///   serial engine's mate vector.
    #[test]
    fn wave_schedules_are_conflict_free_and_serial_equivalent(
        g in instance(),
        ops in proptest::collection::vec((0u8..5, 0u32..1_000_000, 0u32..1_000_000, 1u64..=4), 0..26),
        epoch_every in 2usize..8,
    ) {
        use sparse_alloc::dynamic::batch::{schedule, FOOTPRINT_CAP};
        use sparse_alloc::mpc::ShardMap;

        let updates = materialize_ops(&g, &ops);
        let reference = Reference::of(&g, &updates, epoch_every);

        for &shards in &[1usize, 2, 4, 7] {
            // Structural invariants of the schedule itself, on the
            // pre-batch graph (exactly what apply_batch schedules on).
            let cfg = ShardedConfig::for_eps(EPS, shards);
            let dg = DeltaGraph::new(g.clone());
            let map = ShardMap::new(shards);
            let sched = schedule(&dg, &updates, &cfg.dynamic, &map, FOOTPRINT_CAP, shards).unwrap();
            prop_assert_eq!(sched.plans.len(), updates.len());
            prop_assert_eq!(sched.widths.iter().sum::<usize>(), sched.plans.len(),
                "{} shards: widths must sum to the plan count", shards);
            prop_assert_eq!(sched.waves, sched.widths.len());
            for (j, p) in sched.plans.iter().enumerate() {
                prop_assert!(p.wave < sched.waves);
                if p.global {
                    for (i, q) in sched.plans.iter().enumerate() {
                        if i < j {
                            prop_assert!(q.wave < p.wave,
                                "{} shards: global plan {} (wave {}) does not exceed prior plan {} (wave {})",
                                shards, j, p.wave, i, q.wave);
                        } else if i > j {
                            prop_assert!(q.wave > p.wave,
                                "{} shards: plan {} (wave {}) does not follow global plan {} (wave {})",
                                shards, i, q.wave, j, p.wave);
                        }
                    }
                }
            }
            for j in 0..sched.plans.len() {
                for i in 0..j {
                    if sched.plans[i].wave != sched.plans[j].wave
                        || sched.plans[i].global
                        || sched.plans[j].global
                    {
                        continue;
                    }
                    let fj = sched.footprint(j);
                    let shared = sched.footprint(i).iter().find(|r| fj.binary_search(r).is_ok());
                    prop_assert!(shared.is_none(),
                        "{} shards: same-wave plans {} and {} share right {:?}",
                        shards, i, j, shared);
                }
            }

            // Applying the schedule (through the sharded engine's wave
            // executor, epoch-chunked like the serial reference so the
            // staged footprints stay inside the space budget) reproduces
            // the serial mate vector.
            let mut sharded = sharded_engine(&g, shards);
            let batches = updates.chunks(epoch_every);
            prop_assert!(drive(&mut sharded, batches).is_ok(), "{} shards: over budget", shards);
            prop_assert_eq!(&sharded.assignment().mate, &reference.mate,
                "{} shards: schedule application diverged from serial", shards);
        }
    }
}
