//! Fault-injection harness for the networked serving transport.
//!
//! The contract under test: **every** injected wire failure — dropped
//! peer, truncated frame, flipped bit, out-of-order delivery — surfaces
//! as a *typed* error ([`TransportError`] at the peer level,
//! [`NetError`] at the serving level), and never as a panic or a
//! silently wrong matching. The harness injects each fault at both
//! levels over both transports (deterministic loopback and real TCP)
//! and asserts the exact failure taxon where the transport makes it
//! deterministic, or any typed variant where it legitimately races
//! (TCP teardown).

use sparse_alloc::dynamic::net::NetError;
use sparse_alloc::mpc::transport::{Fault, Peer, TransportError};
use sparse_alloc::prelude::*;

// ------------------------------------------------------------ peer level

/// Both transports, same test body: peer `a` is the faulty sender,
/// `b` the receiver that must see a typed error.
fn each_pair(test: impl Fn(&'static str, Peer, Peer)) {
    let (a, b) = Peer::loopback_pair(0, 1);
    test("loopback", a, b);
    let (mut a, mut b) = Peer::tcp_pair(0, 1).expect("tcp pair on 127.0.0.1");
    a.set_recv_timeout(std::time::Duration::from_millis(500))
        .unwrap();
    b.set_recv_timeout(std::time::Duration::from_millis(500))
        .unwrap();
    test("tcp", a, b);
}

#[test]
fn dropped_peer_is_a_typed_closed_error() {
    each_pair(|name, mut a, mut b| {
        a.inject(Fault::Drop);
        a.send(1, 0, b"vanishes").unwrap();
        match b.recv() {
            Err(TransportError::Closed { .. }) => {}
            other => panic!("{name}: drop surfaced as {other:?}"),
        }
    });
}

#[test]
fn truncated_frame_is_a_typed_error() {
    each_pair(|name, mut a, mut b| {
        a.inject(Fault::Truncate);
        a.send(1, 0, b"cut short in transit").unwrap();
        match b.recv() {
            // Loopback delivers the half-frame intact: deterministically
            // a Truncated frame error. TCP teardown may race the partial
            // write, so EOF-as-Closed is also legitimate — but it must
            // be one of the two, never a success and never a panic.
            Err(TransportError::Frame { .. }) | Err(TransportError::Closed { .. }) => {}
            other => panic!("{name}: truncation surfaced as {other:?}"),
        }
    });
}

#[test]
fn flipped_bit_is_a_typed_frame_error() {
    // Every bit position in a small frame, exhaustively, over loopback
    // (deterministic); spot positions over TCP. A flip can land in the
    // magic, version, length, sequence, payload, or checksum bytes —
    // each is a *different* typed frame error, and the FNV-1a trailer
    // guarantees no single flip can pass undetected.
    for bit in 0..(40 + 4 + 8) * 8 {
        let (mut a, mut b) = Peer::loopback_pair(0, 1);
        a.inject(Fault::FlipBit { bit });
        a.send(7, 3, b"abcd").unwrap();
        match b.recv() {
            Err(TransportError::Frame { .. }) | Err(TransportError::OutOfOrder { .. }) => {}
            other => panic!("loopback bit {bit}: flip surfaced as {other:?}"),
        }
    }
    // One spot position over TCP: the stream is poisoned after a
    // mid-stream flip (framing desync), so further positions on the same
    // sockets would not test anything new.
    let (mut a, mut b) = Peer::tcp_pair(0, 1).unwrap();
    b.set_recv_timeout(std::time::Duration::from_millis(300))
        .unwrap();
    let bit = 170usize;
    a.inject(Fault::FlipBit { bit });
    a.send(7, 0, b"abcd").unwrap();
    assert!(b.recv().is_err(), "tcp bit {bit}: flip went unnoticed");
}

#[test]
fn reordered_delivery_is_a_typed_out_of_order_error() {
    each_pair(|name, mut a, mut b| {
        a.inject(Fault::Reorder);
        a.send(1, 0, b"first (held back)").unwrap();
        a.send(1, 0, b"second (delivered first)").unwrap();
        match b.recv() {
            Err(TransportError::OutOfOrder { expected, got, .. }) => {
                assert_eq!((expected, got), (0, 1), "{name}");
            }
            other => panic!("{name}: reorder surfaced as {other:?}"),
        }
    });
}

// --------------------------------------------------------- serving level

fn small_engine(kind: TransportKind) -> (NetServeLoop, Vec<Update>) {
    let g = union_of_spanning_trees(40, 30, 2, 2, 9).graph;
    let updates = sparse_alloc::dynamic::adapter::churn_stream(
        &g,
        24,
        &sparse_alloc::dynamic::adapter::ChurnMix::default(),
        9,
    );
    let mut net = NetServeLoop::new(g, ShardedConfig::for_eps(0.25, 3), kind)
        .expect("engine starts on a healthy mesh");
    net.set_recv_timeout(std::time::Duration::from_millis(500))
        .unwrap();
    (net, updates)
}

/// Inject `fault` on the channel to one worker, then drive a batch and
/// return the error it must produce. Asserts the engine stays queryable
/// and that follow-up batches keep failing *typed* (no panic, no limp-on
/// with wrong data).
fn serve_under_fault(kind: TransportKind, fault: Fault) -> NetError {
    let (mut net, updates) = small_engine(kind);
    net.apply_batch(&updates[..8]).expect("healthy epoch");
    net.end_epoch().expect("healthy epoch end");
    let before = net.match_size();

    net.inject_fault(1, fault);
    let err = net
        .apply_batch(&updates[8..16])
        .expect_err("a corrupted wire must not serve silently");

    // The coordinator's engine is intact and queryable after the failure.
    assert_eq!(net.match_size(), before, "fault mutated engine state");
    net.validate().expect("engine state stays consistent");
    // The mesh is poisoned; follow-up traffic keeps failing typed.
    assert!(
        net.apply_batch(&updates[16..24]).is_err(),
        "batch after a wire failure must not pretend success"
    );
    err
    // `net` drops here: shutdown over a half-dead mesh must not hang or
    // panic either — that is part of what this harness proves.
}

#[test]
fn serving_over_a_dropped_peer_is_a_typed_error() {
    match serve_under_fault(TransportKind::Loopback, Fault::Drop) {
        // The worker sees its inbound channel die, NACKs the typed
        // Closed error back, and the coordinator re-surfaces it.
        NetError::Transport(TransportError::Closed { .. }) => {}
        other => panic!("loopback drop surfaced as {other:?}"),
    }
    match serve_under_fault(TransportKind::Tcp, Fault::Drop) {
        NetError::Transport(_) => {}
        other => panic!("tcp drop surfaced as {other:?}"),
    }
}

#[test]
fn serving_over_a_truncated_frame_is_a_typed_error() {
    match serve_under_fault(TransportKind::Loopback, Fault::Truncate) {
        NetError::Transport(TransportError::Frame { .. })
        | NetError::Transport(TransportError::Closed { .. }) => {}
        other => panic!("loopback truncation surfaced as {other:?}"),
    }
    match serve_under_fault(TransportKind::Tcp, Fault::Truncate) {
        NetError::Transport(_) => {}
        other => panic!("tcp truncation surfaced as {other:?}"),
    }
}

#[test]
fn serving_over_a_flipped_bit_is_a_typed_error() {
    for bit in [13usize, 101, 333] {
        match serve_under_fault(TransportKind::Loopback, Fault::FlipBit { bit }) {
            // The FNV trailer catches the flip in the worker's decoder;
            // the worker NACKs the typed frame error back.
            NetError::Transport(TransportError::Frame { .. }) => {}
            other => panic!("loopback flip at bit {bit} surfaced as {other:?}"),
        }
    }
    match serve_under_fault(TransportKind::Tcp, Fault::FlipBit { bit: 333 }) {
        NetError::Transport(_) => {}
        other => panic!("tcp flip surfaced as {other:?}"),
    }
}

#[test]
fn serving_over_reordered_delivery_is_a_typed_error() {
    // Lockstep phases send exactly one frame before waiting, so a held
    // frame starves the worker and the coordinator's receive times out —
    // typed Io, never a hang past the configured deadline.
    match serve_under_fault(TransportKind::Loopback, Fault::Reorder) {
        NetError::Transport(TransportError::Io { detail, .. }) => {
            assert!(
                detail.contains("timed out"),
                "unexpected Io detail: {detail}"
            );
        }
        other => panic!("loopback reorder surfaced as {other:?}"),
    }
    match serve_under_fault(TransportKind::Tcp, Fault::Reorder) {
        NetError::Transport(_) => {}
        other => panic!("tcp reorder surfaced as {other:?}"),
    }
}

/// Acceptance criterion of the observability layer's post-mortem path:
/// injecting **any** transport fault on a live mesh leaves a
/// flight-recorder dump that identifies the failing peer and the
/// protocol phase the exchange died in, plus the recent frame history
/// of every channel.
#[test]
fn any_fault_leaves_a_flight_dump_naming_peer_and_phase() {
    for fault in [
        Fault::Drop,
        Fault::Truncate,
        Fault::FlipBit { bit: 101 },
        Fault::Reorder,
    ] {
        let (mut net, updates) = small_engine(TransportKind::Loopback);
        net.apply_batch(&updates[..8]).expect("healthy epoch");
        net.end_epoch().expect("healthy epoch end");
        assert!(
            net.flight_dump().is_none(),
            "no dump before any failure ({fault:?})"
        );

        net.inject_fault(1, fault.clone());
        net.apply_batch(&updates[8..16])
            .expect_err("a corrupted wire must not serve silently");

        let dump = net
            .flight_dump()
            .unwrap_or_else(|| panic!("{fault:?} left no flight-recorder dump"));
        assert!(
            dump.contains("with worker 1"),
            "{fault:?} dump does not name the failing peer:\n{dump}"
        );
        assert!(
            dump.contains("ROUTE"),
            "{fault:?} dump does not name the protocol phase:\n{dump}"
        );
        assert!(
            dump.contains("channel to worker 0") && dump.contains("channel to worker 2"),
            "{fault:?} dump omits the healthy peers' frame history:\n{dump}"
        );
    }
}

// --------------------------------------------------------- self-healing

/// Drive the same churn stream through a *supervised* net engine with
/// `fault` injected mid-stream, and through an uninterrupted serial
/// engine. The supervisor must absorb the fault (rebuild the whole mesh
/// on fresh channels and worker threads, re-INIT, retry), the run must
/// complete, and the final wire-gathered matching must equal the
/// uninterrupted serial run **verbatim**.
fn chaos_recovers_to_serial(kind: TransportKind, shards: usize, fault: Fault) {
    use sparse_alloc::dynamic::SupervisorConfig;
    let label = format!("{kind:?}/{shards} shards/{fault:?}");
    let g = union_of_spanning_trees(40, 30, 2, 2, 9).graph;
    let updates = sparse_alloc::dynamic::adapter::churn_stream(
        &g,
        48,
        &sparse_alloc::dynamic::adapter::ChurnMix::default(),
        9,
    );
    let cfg = ShardedConfig::for_eps(0.25, shards);
    let dynamic_cfg = cfg.dynamic.clone();
    let mut net = NetServeLoop::new(g.clone(), cfg, kind).expect("engine starts");
    net.set_recv_timeout(std::time::Duration::from_millis(300))
        .unwrap();
    net.set_supervisor(SupervisorConfig {
        max_respawns: 4,
        retry_budget: 1,
    });
    let mut serial = ServeLoop::new(g, dynamic_cfg);
    for (i, chunk) in updates.chunks(12).enumerate() {
        if i == 1 {
            net.inject_fault(1.min(shards - 1), fault.clone());
        }
        net.apply_batch(chunk)
            .unwrap_or_else(|e| panic!("{label}: epoch {}: {e}", i + 1));
        net.end_epoch()
            .unwrap_or_else(|e| panic!("{label}: epoch {} end: {e}", i + 1));
        for up in chunk {
            serial.apply(up);
        }
        serial.end_epoch();
    }
    assert!(
        net.net_stats().respawns >= 1,
        "{label}: the fault must have cost at least one respawn"
    );
    assert!(
        net.quarantine_reason().is_none(),
        "{label}: recovery must not have exhausted the budget"
    );
    net.validate().expect("engine state stays consistent");
    let gathered = net.gather_assignment().expect("gather after recovery");
    assert_eq!(
        gathered.mate,
        serial.assignment().mate,
        "{label}: recovered run diverged from the uninterrupted serial run"
    );
}

/// The chaos proof: every fault class, injected mid-epoch on a live 2-
/// and 4-shard mesh, is absorbed by respawn + re-INIT and the run ends
/// in exactly the serial state.
#[test]
fn every_fault_class_recovers_on_two_and_four_shard_meshes() {
    for shards in [2usize, 4] {
        for fault in [
            Fault::Drop,
            Fault::Truncate,
            Fault::FlipBit { bit: 170 },
            Fault::Reorder,
        ] {
            chaos_recovers_to_serial(TransportKind::Loopback, shards, fault);
        }
    }
    // Spot-check the recovery path over real TCP sockets too.
    chaos_recovers_to_serial(TransportKind::Tcp, 2, Fault::FlipBit { bit: 170 });
}

/// Exhausting the respawn budget must land the engine in *read-only*
/// quarantine: the original typed error surfaces, queries keep answering
/// from the coordinator mirror, and every further mutation is a typed
/// [`NetError::Quarantined`] — never a panic, never a limp-on.
#[test]
fn exhausting_the_respawn_budget_quarantines_read_only() {
    use sparse_alloc::dynamic::SupervisorConfig;
    let (mut net, updates) = small_engine(TransportKind::Loopback);
    net.set_supervisor(SupervisorConfig {
        max_respawns: 2,
        retry_budget: 0,
    });
    net.apply_batch(&updates[..8]).expect("healthy epoch");
    net.end_epoch().expect("healthy epoch end");
    let before = net.match_size();

    // A persistently faulty slot: the fault re-arms on every respawn, so
    // each recovery's re-INIT is corrupted too and the budget drains.
    net.inject_fault(1, Fault::FlipBit { bit: 170 });
    net.arm_fault_on_respawn(1, Fault::FlipBit { bit: 170 });
    let err = net
        .apply_batch(&updates[8..16])
        .expect_err("a dead slot must not serve");
    assert!(
        matches!(err, NetError::Transport(_) | NetError::Protocol { .. }),
        "exhaustion surfaces the underlying wire fault, got {err:?}"
    );
    assert_eq!(net.net_stats().respawns, 2, "the whole budget was spent");
    assert!(net.quarantine_reason().is_some());

    // Read-only: the mirror still answers, state is consistent …
    assert_eq!(net.match_size(), before);
    net.validate().expect("quarantined state stays consistent");
    // … and every mutation path refuses with the typed variant.
    assert!(matches!(
        net.apply_batch(&updates[16..24]),
        Err(NetError::Quarantined { .. })
    ));
    assert!(matches!(net.end_epoch(), Err(NetError::Quarantined { .. })));
    assert!(matches!(
        net.gather_assignment(),
        Err(NetError::Quarantined { .. })
    ));
}

// ------------------------------------------------- p2p peer-link faults

/// A p2p engine plus a churn stream that provably drives walks across
/// shard boundaries (the in-module metering tests pin this workload's
/// handoff counts), with the handoff deadline shrunk so a dropped peer
/// frame surfaces fast.
fn p2p_engine(kind: TransportKind, shards: usize) -> (NetServeLoop, Vec<Update>) {
    let g = union_of_spanning_trees(60, 45, 2, 2, 9).graph;
    let updates = sparse_alloc::dynamic::adapter::churn_stream(
        &g,
        90,
        &sparse_alloc::dynamic::adapter::ChurnMix::default(),
        9,
    );
    let mut net = NetServeLoop::new_p2p(g, ShardedConfig::for_eps(0.25, shards), kind)
        .expect("p2p engine starts on a healthy mesh");
    net.set_handoff_timeout(std::time::Duration::from_millis(250))
        .unwrap();
    (net, updates)
}

/// Arm `fault` on **every** directed worker↔worker link, then keep
/// driving epochs until the first wave whose walk crosses a boundary
/// trips it. Returns the typed error. One-shot faults persist until a
/// peer frame consumes them, so the harness needs no per-epoch knowledge
/// of *which* link the next handoff crosses — and an error occurring at
/// all proves real peer traffic existed (peer links carry nothing else).
fn p2p_serve_under_peer_fault(kind: TransportKind, fault: Fault) -> NetError {
    let shards = 3;
    let (mut net, updates) = p2p_engine(kind, shards);
    net.apply_batch(&updates[..18]).expect("healthy epoch");
    net.end_epoch().expect("healthy epoch end");
    for from in 0..shards {
        for to in 0..shards {
            if from != to {
                net.inject_peer_fault(from, to, fault.clone())
                    .expect("arming a peer fault on a p2p mesh");
            }
        }
    }
    let mut err = None;
    for chunk in updates[18..].chunks(18) {
        match net.apply_batch(chunk) {
            Ok(_) => {
                net.end_epoch().expect("un-faulted epoch end");
            }
            Err(e) => {
                err = Some(e);
                break;
            }
        }
    }
    let err = err.expect("no wave ever crossed a faulted peer link — the matrix is vacuous");

    // No respawn budget: the engine must quarantine read-only, never
    // limp on over a poisoned mesh.
    assert!(
        net.quarantine_reason().is_some(),
        "a peer-link fault without budget must quarantine"
    );
    let _ = net.match_size(); // the coordinator mirror still answers queries
    assert!(
        matches!(
            net.apply_batch(&updates[..4]),
            Err(NetError::Quarantined { .. })
        ),
        "mutations after a peer-link failure must refuse typed"
    );
    err
    // `net` drops here: shutdown over a mesh with dead workers must not
    // hang or panic either.
}

/// Assert the typed error names the worker↔worker pair and the HANDOFF
/// phase — the coordinator holds no end of the failed link, so the
/// diagnosis must have travelled from the worker as a NACK.
fn assert_names_peer_pair_and_handoff(fault: &Fault, err: &NetError) {
    match err {
        NetError::Protocol { detail, .. } => {
            assert!(
                detail.contains("HANDOFF"),
                "{fault:?}: error does not name the HANDOFF phase: {detail}"
            );
            assert!(
                detail.contains("<->"),
                "{fault:?}: error does not name the peer pair: {detail}"
            );
        }
        other => panic!("{fault:?}: peer-link fault surfaced as {other:?}"),
    }
}

/// The p2p fault matrix, error-shape half: every fault class, armed on
/// the worker↔worker links mid-stream, surfaces as a typed [`NetError`]
/// naming the peer pair and the HANDOFF phase — never a panic, never a
/// silently wrong matching.
#[test]
fn every_peer_link_fault_class_is_a_typed_error_naming_the_pair() {
    for fault in [
        Fault::Drop,
        Fault::Truncate,
        Fault::FlipBit { bit: 170 },
        Fault::Reorder,
    ] {
        let err = p2p_serve_under_peer_fault(TransportKind::Loopback, fault.clone());
        assert_names_peer_pair_and_handoff(&fault, &err);
    }
    // Spot-check over real TCP sockets: teardown can race the NACK, so
    // a typed transport error is also legitimate — but it must be typed.
    match p2p_serve_under_peer_fault(TransportKind::Tcp, Fault::FlipBit { bit: 170 }) {
        NetError::Protocol { detail, .. } => {
            assert!(detail.contains("HANDOFF"), "tcp flip detail: {detail}")
        }
        NetError::Transport(_) => {}
        other => panic!("tcp peer flip surfaced as {other:?}"),
    }
}

/// Arming a peer fault on a star mesh is itself a typed refusal — the
/// links do not exist there.
#[test]
fn peer_faults_need_a_p2p_mesh() {
    let (mut net, _) = small_engine(TransportKind::Loopback);
    assert!(matches!(
        net.inject_peer_fault(0, 1, Fault::Drop),
        Err(NetError::Protocol { .. })
    ));
}

/// The p2p fault matrix, recovery half: with a supervisor budget, every
/// fault class injected on the peer links mid-stream is absorbed — the
/// supervisor rebuilds the whole mesh (p2p recovery re-channels every
/// worker, since any of them may hold state of the in-flight wave),
/// re-INITs the slices, re-dispatches the wave — and the run ends in
/// exactly the uninterrupted serial engine's state.
fn p2p_chaos_recovers_to_serial(kind: TransportKind, shards: usize, fault: Fault) {
    use sparse_alloc::dynamic::SupervisorConfig;
    let label = format!("p2p/{kind:?}/{shards} shards/{fault:?}");
    let (mut net, updates) = p2p_engine(kind, shards);
    net.set_supervisor(SupervisorConfig {
        max_respawns: 3 * shards as u64,
        retry_budget: 1,
    });
    let cfg = ShardedConfig::for_eps(0.25, shards);
    let mut serial = ServeLoop::new(
        union_of_spanning_trees(60, 45, 2, 2, 9).graph,
        cfg.dynamic.clone(),
    );
    for (i, chunk) in updates.chunks(18).enumerate() {
        if i == 1 {
            for from in 0..shards {
                for to in 0..shards {
                    if from != to {
                        net.inject_peer_fault(from, to, fault.clone())
                            .unwrap_or_else(|e| panic!("{label}: arming: {e}"));
                    }
                }
            }
        }
        net.apply_batch(chunk)
            .unwrap_or_else(|e| panic!("{label}: epoch {}: {e}", i + 1));
        net.end_epoch()
            .unwrap_or_else(|e| panic!("{label}: epoch {} end: {e}", i + 1));
        for up in chunk {
            serial.apply(up);
        }
        serial.end_epoch();
    }
    let stats = net.net_stats();
    assert!(
        stats.respawns >= 1,
        "{label}: the fault must have cost at least one mesh rebuild"
    );
    assert!(
        stats.handoff_frames > 0,
        "{label}: vacuous — no walk ever crossed a shard boundary"
    );
    assert!(
        net.quarantine_reason().is_none(),
        "{label}: recovery must not have exhausted the budget"
    );
    net.validate().expect("engine state stays consistent");
    let gathered = net.gather_assignment().expect("gather after recovery");
    assert_eq!(
        gathered.mate,
        serial.assignment().mate,
        "{label}: recovered run diverged from the uninterrupted serial run"
    );
}

#[test]
fn every_peer_link_fault_class_recovers_to_serial() {
    for fault in [
        Fault::Drop,
        Fault::Truncate,
        Fault::FlipBit { bit: 170 },
        Fault::Reorder,
    ] {
        p2p_chaos_recovers_to_serial(TransportKind::Loopback, 3, fault);
    }
    // Spot-check the p2p recovery path over real TCP sockets too.
    p2p_chaos_recovers_to_serial(TransportKind::Tcp, 3, Fault::FlipBit { bit: 170 });
}

/// Positive control for the harness: the identical drive sequence with
/// no fault injected completes on both transports and the wire-gathered
/// matching agrees with the engine — so the failures above are caused by
/// the injected faults, not by the workload.
#[test]
fn the_same_drive_without_faults_serves_cleanly() {
    for kind in [TransportKind::Loopback, TransportKind::Tcp] {
        let (mut net, updates) = small_engine(kind);
        for chunk in updates.chunks(8) {
            net.apply_batch(chunk).expect("healthy batch");
            net.end_epoch().expect("healthy epoch");
        }
        let gathered = net.gather_assignment().expect("healthy gather");
        assert_eq!(gathered.mate, net.inner().assignment().mate, "{kind:?}");
    }
}

/// An idle star engine is not a faulted one: its workers block on their
/// inboxes with no deadline, so a pause longer than the receive timeout
/// between two batches costs nothing — the next batch serves, the epoch
/// ends, nothing quarantines, and the wire-gathered matching is serial's.
#[test]
fn a_star_engine_serves_after_idling_past_the_recv_timeout() {
    use sparse_alloc::mpc::transport::DEFAULT_RECV_TIMEOUT;
    let g = union_of_spanning_trees(40, 30, 2, 2, 9).graph;
    let updates = sparse_alloc::dynamic::adapter::churn_stream(
        &g,
        24,
        &sparse_alloc::dynamic::adapter::ChurnMix::default(),
        9,
    );
    let cfg = ShardedConfig::for_eps(0.25, 3);
    let mut serial = ServeLoop::new(g.clone(), cfg.dynamic.clone());
    let mut engines = [TransportKind::Loopback, TransportKind::Tcp]
        .map(|kind| NetServeLoop::new(g.clone(), cfg.clone(), kind).expect("engine starts"));
    let (first, next) = updates.split_at(12);
    for (i, chunk) in [first, next].into_iter().enumerate() {
        if i == 1 {
            // Both engines idle through one shared pause.
            std::thread::sleep(DEFAULT_RECV_TIMEOUT + std::time::Duration::from_secs(1));
        }
        for net in &mut engines {
            let kind = net.transport();
            net.apply_batch(chunk)
                .unwrap_or_else(|e| panic!("{kind:?}: batch {}: {e}", i + 1));
            net.end_epoch()
                .unwrap_or_else(|e| panic!("{kind:?}: epoch {} end: {e}", i + 1));
        }
        for up in chunk {
            serial.apply(up);
        }
        serial.end_epoch();
    }
    for mut net in engines {
        let kind = net.transport();
        assert!(
            net.quarantine_reason().is_none(),
            "{kind:?}: an idle pause quarantined the engine"
        );
        let gathered = net.gather_assignment().expect("gather after the pause");
        assert_eq!(gathered.mate, serial.assignment().mate, "{kind:?}");
    }
}
