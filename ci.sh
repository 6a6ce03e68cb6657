#!/usr/bin/env bash
# CI gate for the sparse-alloc workspace. Run from the repository root.
#
#   ./ci.sh         # everything: format, lints, release build, all tests
#   ./ci.sh fast    # skip the release build (debug build implied by tests)
#
# Mirrors the tier-1 verify (`cargo build --release && cargo test -q`) and
# adds the hygiene checks. Everything runs offline (see vendor/README.md).

set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n==> %s\n' "$*"; }

step "cargo fmt --check"
cargo fmt --check

step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --quiet -- -D warnings

if [ "${1:-}" != "fast" ]; then
    step "cargo build --release"
    cargo build --release --quiet
fi

step "cargo test -q"
cargo test -q

# Every step after `cargo test -q` is a function run by `run`: a failing
# step is recorded and the script goes on, so one red gate does not hide
# the steps after it. The script still exits non-zero, listing every
# failed step.
failed=()
run() {
    local title="$1"
    shift
    step "$title"
    set +e
    (
        set -e
        "$@"
    )
    local rc=$?
    set -e
    [ "$rc" -eq 0 ] || failed+=("$title")
}

loc() {
    # Informational, never fails: the line counts the roadmap's north star
    # tracks, each file counted up to its first `#[cfg(test)]`.
    awk 'FNR == 1 { on = 1 } /#\[cfg\(test\)\]/ { on = 0 } on { n[FILENAME]++ }
        END { for (f in n) printf "%6d  %s\n", n[f], f }' \
        crates/dynamic/src/*.rs src/cli.rs | sort -k2 \
        | awk '{ print } $2 ~ /^crates\/dynamic\// { t += $1 }
            END { printf "%6d  crates/dynamic/src (non-test total)\n", t }' || true
}

servebench_tests() {
    cargo test -q --manifest-path servebench/Cargo.toml \
        || { echo "servebench FAILED to build or test against the current engine API"; exit 1; }
}

smoke_cli() {
    tmp="$(mktemp -d)"
    cargo run --release -q --bin salloc -- \
        gen forests --nl 300 --nr 240 --k 3 --cap 2 --seed 7 --out "$tmp/g.txt"
    cargo run --release -q --bin salloc -- \
        dynamic "$tmp/g.txt" --epochs 2 --events 150 --eps 0.25 --seed 1
    cargo run --release -q --bin salloc -- \
        dynamic "$tmp/g.txt" --epochs 2 --events 150 --eps 0.25 --seed 1 --shards 4 --waves
    # Flags a subcommand does not read are refused, not ignored: the
    # footprint cap is a constant, not a flag, and so is a misspelling.
    for bad in "--shards 2 --footprint-cap 8" "--epoch 2"; do
        # shellcheck disable=SC2086
        if cargo run --release -q --bin salloc -- \
            dynamic "$tmp/g.txt" --epochs 1 --events 10 --no-full $bad >/dev/null 2>&1; then
            echo "salloc dynamic accepted an unknown flag: $bad"; exit 1
        fi
    done
    rm -rf "$tmp"
}

smoke_net() {
    # Eager budget 1 on BOTH sides: the equivalence contract is
    # per-config, and the serial default is the full budget while the
    # sharded default (the smoke above) is 1.
    tmp="$(mktemp -d)"
    cargo run --release -q --bin salloc -- \
        gen forests --nl 300 --nr 240 --k 3 --cap 2 --seed 7 --out "$tmp/g.txt"
    cargo run --release -q --bin salloc -- \
        dynamic "$tmp/g.txt" --epochs 2 --events 150 --eps 0.25 --seed 1 --no-full \
        --eager-budget 1 --assign "$tmp/serial.txt"
    cargo run --release -q --bin salloc -- \
        dynamic "$tmp/g.txt" --epochs 2 --events 150 --eps 0.25 --seed 1 --shards 4 --net \
        --eager-budget 1 --assign "$tmp/net.txt"
    cmp "$tmp/serial.txt" "$tmp/net.txt" \
        || { echo "wire-gathered allocation diverged from the serial engine"; exit 1; }
    # p2p repair waves: walks run on the workers, cross-shard state moves
    # worker↔worker — the gathered allocation must still equal serial.
    cargo run --release -q --bin salloc -- \
        dynamic "$tmp/g.txt" --epochs 2 --events 150 --eps 0.25 --seed 1 --shards 4 --net \
        --p2p --eager-budget 1 --assign "$tmp/p2p.txt" | grep -q 'p2p repair traffic' \
        || { echo "--p2p did not report its handoff traffic"; exit 1; }
    cmp "$tmp/serial.txt" "$tmp/p2p.txt" \
        || { echo "p2p wire-gathered allocation diverged from the serial engine"; exit 1; }
    rm -rf "$tmp"
}

smoke_trace() {
    # Eager budget 1 for the same reason as the smokes above: keep the
    # staged footprints inside the 4-shard space budget at this size.
    tmp="$(mktemp -d)"
    cargo run --release -q --bin salloc -- \
        gen forests --nl 300 --nr 240 --k 3 --cap 2 --seed 7 --out "$tmp/g.txt"
    cargo run --release -q --bin salloc -- \
        dynamic "$tmp/g.txt" --epochs 2 --events 150 --eps 0.25 --seed 1 --shards 4 \
        --eager-budget 1 --trace "$tmp/trace.jsonl" | grep -q 'trace              : wrote' \
        || { echo "--trace did not report a written trace"; exit 1; }
    cargo run --release -q --bin salloc -- report "$tmp/trace.jsonl" > "$tmp/report.txt"
    grep -q 'events verified' "$tmp/report.txt" \
        || { echo "salloc report did not checksum-verify the trace"; exit 1; }
    grep -q 'repair_wave' "$tmp/report.txt" \
        || { echo "salloc report is missing the per-phase latency table"; exit 1; }
    rm -rf "$tmp"
}

smoke_checkpoint() {
    tmp="$(mktemp -d)"
    cargo run --release -q --bin salloc -- \
        gen forests --nl 300 --nr 240 --k 3 --cap 2 --seed 7 --out "$tmp/g.txt"
    # Serial: 3 uninterrupted epochs vs 2 epochs + checkpoint + resumed 3rd.
    cargo run --release -q --bin salloc -- \
        dynamic "$tmp/g.txt" --epochs 3 --events 120 --eps 0.25 --seed 1 --no-full \
        --assign "$tmp/full.txt"
    cargo run --release -q --bin salloc -- \
        dynamic "$tmp/g.txt" --epochs 2 --events 120 --eps 0.25 --seed 1 --no-full \
        --checkpoint "$tmp/ck.snap"
    cargo run --release -q --bin salloc -- \
        dynamic "$tmp/g.txt" --epochs 3 --events 120 --seed 1 --no-full \
        --restore "$tmp/ck.snap" --assign "$tmp/resumed.txt"
    cmp "$tmp/full.txt" "$tmp/resumed.txt" \
        || { echo "serial warm restart diverged from the uninterrupted run"; exit 1; }
    # Sharded: checkpoint on 2 machines (periodically), restore onto 4.
    # Eager budget 1 keeps the staged footprints inside the 2-shard space
    # budget (the sharded default; the restore inherits it from the
    # snapshot, so only the fresh engines pass the flag). Every periodic
    # checkpoint is a full base marked in the WAL; the restore checks the
    # snapshot against the log's last marker and replays the tail past it.
    cargo run --release -q --bin salloc -- \
        dynamic "$tmp/g.txt" --epochs 3 --events 120 --eps 0.25 --seed 1 --shards 2 \
        --eager-budget 1 --assign "$tmp/sh-full.txt"
    cargo run --release -q --bin salloc -- \
        dynamic "$tmp/g.txt" --epochs 2 --events 120 --eps 0.25 --seed 1 --shards 2 \
        --eager-budget 1 --checkpoint "$tmp/sh.snap" --checkpoint-every 1 --wal "$tmp/sh.wal"
    [ ! -e "$tmp/sh.snap.delta" ] || { echo "a WAL'd periodic checkpoint wrote a delta"; exit 1; }
    cargo run --release -q --bin salloc -- \
        dynamic "$tmp/g.txt" --epochs 3 --events 120 --seed 1 --shards 4 \
        --restore "$tmp/sh.snap" --wal "$tmp/sh.wal" --assign "$tmp/sh-resumed.txt"
    cmp "$tmp/sh-full.txt" "$tmp/sh-resumed.txt" \
        || { echo "re-sharded warm restart diverged from the uninterrupted run"; exit 1; }
    # Networked p2p: checkpoint on 2 workers, restore onto 4 with a WAL.
    # The serial reference runs under the eager budget the fresh p2p
    # engine was given (the restore inherits it from the snapshot).
    cargo run --release -q --bin salloc -- \
        dynamic "$tmp/g.txt" --epochs 3 --events 120 --eps 0.25 --seed 1 --no-full \
        --eager-budget 1 --assign "$tmp/e1-full.txt"
    cargo run --release -q --bin salloc -- \
        dynamic "$tmp/g.txt" --epochs 2 --events 120 --eps 0.25 --seed 1 --shards 2 --net \
        --p2p --eager-budget 1 --checkpoint "$tmp/p2p.snap"
    cargo run --release -q --bin salloc -- \
        dynamic "$tmp/g.txt" --epochs 3 --events 120 --seed 1 --shards 4 --net --p2p \
        --restore "$tmp/p2p.snap" --wal "$tmp/p2p.wal" --assign "$tmp/p2p-resumed.txt"
    cmp "$tmp/e1-full.txt" "$tmp/p2p-resumed.txt" \
        || { echo "p2p warm restart onto 4 workers diverged from the serial engine"; exit 1; }
    rm -rf "$tmp"
}

smoke_chaos() {
    # A fault is injected into a live 2-shard mesh before epoch 2; the
    # supervisor must rebuild the mesh and the run must finish with
    # the exact serial assignment, while logging every batch to a WAL.
    tmp="$(mktemp -d)"
    cargo run --release -q --bin salloc -- \
        gen forests --nl 300 --nr 240 --k 3 --cap 2 --seed 7 --out "$tmp/g.txt"
    cargo run --release -q --bin salloc -- \
        dynamic "$tmp/g.txt" --epochs 3 --events 150 --eps 0.25 --seed 1 --no-full \
        --eager-budget 1 --assign "$tmp/serial.txt"
    cargo run --release -q --bin salloc -- \
        dynamic "$tmp/g.txt" --epochs 3 --events 150 --eps 0.25 --seed 1 --shards 2 --net \
        --eager-budget 1 --wal "$tmp/wal.log" --max-respawns 3 --retry-budget 1 \
        --chaos flip@2 --assign "$tmp/chaos.txt" > "$tmp/out.txt"
    grep -q 'chaos' "$tmp/out.txt" \
        || { echo "--chaos did not report an injected fault"; exit 1; }
    grep -q 'respawns' "$tmp/out.txt" \
        || { echo "the supervisor did not report its recovery"; exit 1; }
    cmp "$tmp/serial.txt" "$tmp/chaos.txt" \
        || { echo "faulted run diverged from the serial engine"; exit 1; }
    [ -s "$tmp/wal.log" ] || { echo "--wal wrote no log"; exit 1; }
    # The same fault on a p2p mesh: the same mesh-rebuild recovery.
    cargo run --release -q --bin salloc -- \
        dynamic "$tmp/g.txt" --epochs 3 --events 150 --eps 0.25 --seed 1 --shards 2 --net \
        --p2p --eager-budget 1 --wal "$tmp/p2p-wal.log" --max-respawns 3 --retry-budget 1 \
        --chaos flip@2 --assign "$tmp/p2p-chaos.txt" > "$tmp/p2p-out.txt"
    grep -q 'respawns' "$tmp/p2p-out.txt" \
        || { echo "the p2p supervisor did not report its recovery"; exit 1; }
    cmp "$tmp/serial.txt" "$tmp/p2p-chaos.txt" \
        || { echo "faulted p2p run diverged from the serial engine"; exit 1; }
    rm -rf "$tmp"
}

gate_e17() {
    # The threshold is a same-box rebase of the original ≥ 5× record —
    # see the module docs of e17_dynamic.rs for the measured baseline.
    cargo run --release -q -p sparse-alloc-bench --bin experiments -- e17
    grep -q '"pass": true' BENCH_dynamic.json \
        || { echo "e17 FAILED its ≥4× incremental-vs-full or quality ≥ k/(k+1) criterion"; exit 1; }
}

gate_e18() {
    cargo run --release -q -p sparse-alloc-bench --bin experiments -- e18
    grep -q '"state_equal_serial": true' BENCH_distributed.json \
        || { echo "e18 FAILED: sharded mates or β-levels diverged from serial"; exit 1; }
}

gate_e19() {
    # The gate compares the sharded/serial *overhead ratio* (recorded as
    # overhead_ratio), not raw milliseconds: both measurements come from
    # the same run, so a slower or noisier host shifts them together and
    # only a genuine bookkeeping regression trips the 25% threshold.
    prev_ratio=""
    prev_waves=""
    prev_meanw=""
    if [ -f BENCH_batching.json ]; then
        prev_ratio="$(grep -o '"overhead_ratio": [0-9.]*' BENCH_batching.json | awk '{print $2}' || true)"
        prev_waves="$(grep -o '"waves": [0-9]*' BENCH_batching.json | awk '{print $2}' || true)"
        prev_meanw="$(grep -o '"mean_width": [0-9.]*' BENCH_batching.json | awk '{print $2}' || true)"
    fi
    cargo run --release -q -p sparse-alloc-bench --bin experiments -- e19
    new_ratio="$(grep -o '"overhead_ratio": [0-9.]*' BENCH_batching.json | awk '{print $2}')"
    grep -q '"pass": true' BENCH_batching.json \
        || { echo "e19 FAILED its ≥3×-over-e18 (serial-normalized) criterion"; exit 1; }
    # One-box gate: sharding should beat the serial engine same-config
    # on the same machine (the JSON records one_box_win honestly). The
    # serial engine's eager repairs cost a few ms per run, while the
    # scheduler's footprint+wave passes (~6 ms/batch) are surplus the
    # sharded path pays on top of the shared epoch close, so wall-clock
    # parity is out of reach; the gate then falls
    # back to an absolute overhead cap: sharded wall-clock
    # within 1.6× of serial. The cap is wide because box noise alone
    # swings the measured ratio between runs; the relative ratchet below
    # tightens it run over run. See the e19_batching.rs module docs for
    # the cost model and the measured ratios.
    if ! grep -q '"one_box_win": true' BENCH_batching.json; then
        awk -v r="$new_ratio" 'BEGIN {
            if (r > 1.6) {
                printf "e19 FAILED its one-box gate: no win and sharded/serial overhead %.3f > 1.6\n", r
                exit 1
            }
            printf "e19 one-box gate: no outright win but overhead %.3f within the 1.6 cap — OK\n", r
        }' || exit 1
    fi
    # Wave-shape regression gates: the schedule must stay short (waves,
    # the batch's simulated MPC round count) and keep its mean width, not
    # just be fast on this host. Max width is not gated: first-fit leaves
    # waves uneven by design, and the schedule oracle in batch.rs pins
    # every update's wave to its conflict floor exactly.
    new_waves="$(grep -o '"waves": [0-9]*' BENCH_batching.json | awk '{print $2}')"
    new_meanw="$(grep -o '"mean_width": [0-9.]*' BENCH_batching.json | awk '{print $2}')"
    if [ -n "$prev_waves" ] && [ -n "$prev_meanw" ]; then
        awk -v nw="$new_waves" -v pw="$prev_waves" \
            -v nm="$new_meanw" -v pm="$prev_meanw" 'BEGIN {
            if (nw > pw * 1.25) {
                printf "e19 wave regression: %d waves > 1.25 × recorded %d\n", nw, pw
                exit 1
            }
            if (nm * 1.25 < pm) {
                printf "e19 width regression: mean width %.1f < recorded %.1f / 1.25\n", nm, pm
                exit 1
            }
            printf "e19 wave-shape gate: %d waves (mean width %.1f) vs recorded %d/%.1f — OK\n", nw, nm, pw, pm
        }' || exit 1
    fi
    if [ -n "$prev_ratio" ]; then
        awk -v new="$new_ratio" -v prev="$prev_ratio" 'BEGIN {
            if (new > prev * 1.25) {
                printf "e19 regression: sharded/serial overhead %.3f > 1.25 × recorded %.3f\n", new, prev
                exit 1
            }
            printf "e19 throughput gate: sharded/serial overhead %.3f vs recorded %.3f (limit %.3f) — OK\n", new, prev, prev * 1.25
        }' || exit 1
    fi
    # Observability must be ~free on the hot path: the same e19 run A/Bs
    # the serving loop with the metrics registry disabled vs enabled
    # (interleaved, median of 5) and records the ratio; gate it at ≤ 5%.
    metrics_ratio="$(grep -o '"metrics_overhead_ratio": [0-9.]*' BENCH_batching.json | awk '{print $2}')"
    awk -v r="$metrics_ratio" 'BEGIN {
        if (r > 1.05) {
            printf "e19 metrics overhead gate: enabled/disabled ratio %.3f > 1.05\n", r
            exit 1
        }
        printf "e19 metrics overhead gate: enabled/disabled ratio %.3f (limit 1.05) — OK\n", r
    }' || exit 1
}

gate_e20() {
    cargo run --release -q -p sparse-alloc-bench --bin experiments -- e20
    grep -q '"pass": true' BENCH_persistence.json \
        || { echo "e20 FAILED its fidelity/snapshot-size criterion"; exit 1; }
}

gate_e21() {
    cargo run --release -q -p sparse-alloc-bench --bin experiments -- e21
    grep -q '"gathered_equal_serial": true' BENCH_network.json \
        || { echo "e21 FAILED: wire-gathered allocation diverged from serial"; exit 1; }
}

gate_e22() {
    cargo run --release -q -p sparse-alloc-bench --bin experiments -- e22
    grep -q '"survived_equal_serial": true' BENCH_recovery.json \
        || { echo "e22 FAILED: the supervised run diverged from serial"; exit 1; }
    grep -q '"replay_equal_serial": true' BENCH_recovery.json \
        || { echo "e22 FAILED: crash replay diverged from serial"; exit 1; }
    wal_cost="$(grep -o '"wal_bytes_per_update": [0-9.]*' BENCH_recovery.json | awk '{print $2}')"
    awk -v w="$wal_cost" 'BEGIN {
        if (w > 16.0) {
            printf "e22 FAILED: WAL amortized cost %.1f B/update > 16\n", w
            exit 1
        }
        printf "e22 durability gate: %.1f B/update (limit 16) — OK\n", w
    }' || exit 1
}

gate_e23() {
    cargo run --release -q -p sparse-alloc-bench --bin experiments -- e23
    grep -q '"p2p_equal_serial": true' BENCH_p2p.json \
        || { echo "e23 FAILED: p2p wire-gathered allocation diverged from serial"; exit 1; }
    grep -q '"handoffs_nonzero": true' BENCH_p2p.json \
        || { echo "e23 FAILED: no cross-shard walk state ever moved worker↔worker"; exit 1; }
    grep -q '"commit_bytes_below_star": true' BENCH_p2p.json \
        || { echo "e23 FAILED: p2p coordinator commit bytes did not drop below the star's"; exit 1; }
    # Wave frames name cached topology rows by id: the deterministic wave
    # byte count must stay at or below a quarter of the 162,343,716 bytes
    # recorded when every frame re-shipped its footprint's full rows.
    wave_bytes="$(grep -o '"p2p_wave_bytes": [0-9]*' BENCH_p2p.json | awk '{print $2}')"
    awk -v b="$wave_bytes" 'BEGIN {
        limit = 0.25 * 162343716
        if (b > limit) {
            printf "e23 FAILED: p2p wave bytes %d > %d (0.25 × the uncached record)\n", b, limit
            exit 1
        }
        printf "e23 wave-bytes gate: %d (limit %d) — OK\n", b, limit
    }' || exit 1
}

proptest_sharded() {
    cargo test --release -q --test properties \
        sharded_serving_equals_serial_for_any_shard_count
}

proptest_net() {
    cargo test --release -q --test properties \
        networked_serving_over_loopback_equals_serial
    cargo test --release -q --test properties \
        networked_serving_over_tcp_equals_serial
}

proptest_p2p() {
    cargo test --release -q --test properties \
        p2p_serving_over_loopback_equals_serial
    cargo test --release -q --test properties \
        p2p_serving_over_tcp_equals_serial
    cargo test --release -q --test properties \
        p2p_epochs_with_cross_shard_walks_stay_serial_identical
}

proptest_ball_growth() {
    # The properties that pin the one right-ball growth, which only the
    # footprint schedule grows, next to the level repair on the dirty
    # rights, which grows no ball (repair ≡ scratch), and the unit tests
    # of both modules. The simulator prices waves but runs no wave (it
    # applies a batch in batch order), so wave-order execution is
    # exercised by `batch::tests`' conflict-freedom oracle here and by
    # the p2p proptests above.
    cargo test --release -q --test properties \
        wave_schedules_are_conflict_free_and_serial_equivalent
    cargo test --release -q --test properties dynamic_repair_matches_scratch
    cargo test --release -q -p sparse-alloc-dynamic --lib -- batch::tests repair::tests
}

proptest_compact_fractional() {
    cargo test --release -q -p sparse-alloc-graph --lib delta::tests::compact_matches_builder
    cargo test --release -q -p sparse-alloc-graph --lib delta::tests::left_rows_visit_compacts_rows
    cargo test --release -q -p sparse-alloc-core --lib fractional::tests::row_scatter_equals_the_right_csr_route
    cargo test --release -q --test properties fractional_equals_scratch_under_updates
}

overlay_codec() {
    # The live graph's overlay store: the edge-set model proptest, the
    # pinned snapshot bytes and the codec cases, then adversarial frame
    # and snapshot inputs.
    cargo test --release -q -p sparse-alloc-graph --lib delta::tests
    cargo test --release -q -p sparse-alloc-graph --test io_adversarial
}

smoke_scarce() {
    # The serving benchmark on its scarce workload (cap 1), where the
    # epoch-close certificate sweep does all the work and which the
    # benchmark contract does not run: its exit code carries the
    # feasibility and k/(k+1)·OPT gate.
    cargo run --release --offline -q --manifest-path servebench/Cargo.toml -- \
        --workload serial-scarce --seconds 2 --trace 0 \
        || { echo "servebench serial-scarce FAILED its correctness gate"; exit 1; }
}

soak_long() {
    cargo test --release -q --test soak -- --ignored \
        || { echo "soak FAILED: the served allocation broke a paper guarantee over a long churn run"; exit 1; }
}

transport_harness() {
    cargo test --release -q --test transport
    # Worker inboxes (tagging, deadlines, closed/truncated links, reader
    # exit), then the whole networked-engine module: worker slice format,
    # idle-worker handoff latency, star/p2p comparisons.
    cargo test --release -q -p sparse-alloc-mpc --lib transport::tests
    cargo test --release -q -p sparse-alloc-dynamic --lib net::tests
}

examples_release() {
    for ex in examples/*.rs; do
        name="$(basename "${ex%.rs}")"
        printf '  -- %s\n' "$name"
        cargo run --release -q --example "$name" >/dev/null
    done
}

rustdoc() {
    RUSTDOCFLAGS="-D warnings -D rustdoc::broken-intra-doc-links" \
        cargo doc --workspace --no-deps --quiet
}

run "north-star line counts (informational: non-test lines of crates/dynamic/src and src/cli.rs)" loc
run "servebench builds and its tests pass (it compiles against the engines' reports)" servebench_tests

if [ "${1:-}" != "fast" ]; then
    run "CLI smoke test (salloc dynamic, serial + sharded)" smoke_cli
    run "CLI networked smoke (salloc dynamic --net ≡ serial on the wire)" smoke_net
    run "CLI trace smoke (salloc dynamic --trace + salloc report)" smoke_trace
    run "CLI checkpoint/restore smoke (warm restart ≡ uninterrupted)" smoke_checkpoint
    run "CLI chaos smoke (mid-stream fault recovered, WAL'd run ≡ serial)" smoke_chaos
    run "e17 dynamic maintenance (incremental ≥ 4× full recompute and quality ≥ k/(k+1), gated)" gate_e17
    run "e18 distributed serving (sharded ≡ serial at scale, mates and β-levels, gated)" gate_e18
    run "e19 batching throughput (regression-gated)" gate_e19
    run "e20 persistence (warm-restart fidelity + snapshot size, gated)" gate_e20
    run "e21 networked serving (wire-gathered ≡ serial over loopback + TCP, gated)" gate_e21
    run "e22 self-healing (recovery ≡ serial, WAL cost, gated)" gate_e22
    run "e23 p2p repair waves (handoffs metered, coordinator bytes < star, ≡ serial, gated)" gate_e23
    run "sharded ≡ serial proptest under --release (batch-order execution, wave-priced rounds)" proptest_sharded
    run "networked ≡ serial proptests under --release (loopback + TCP transports)" proptest_net
    run "p2p ≡ serial proptests under --release (worker↔worker walk handoffs)" proptest_p2p
    run "ball-growth proptests under --release (wave schedules ≡ serial, repair ≡ scratch)" proptest_ball_growth
    run "compact ≡ builder, live-row view ≡ compact, row-scatter ≡ right-CSR fractional and fractional ≡ scratch proptests under --release" proptest_compact_fractional
    run "live-graph overlay under --release (edge-set model, pinned snapshot bytes, codec, adversarial io)" overlay_codec
    run "servebench serial-scarce smoke (feasible, ≥ k/(k+1)·OPT where the sweep does the work)" smoke_scarce
    run "long soak under --release (certificate, k/(k+1)·OPT, churn budget, fractional bound, restores; plus soak_at_servebench_scale: W ≥ (1 − ε/2)·fresh at n = 115k, and a sharded-config leg whose epoch sweeps must augment)" soak_long
    run "transport fault-injection harness under --release (star spokes + p2p peer links)" transport_harness
    run "examples (release) — none may bit-rot" examples_release
fi

run "cargo doc --workspace --no-deps (warnings + broken intra-doc links are errors)" rustdoc

if [ "${#failed[@]}" -gt 0 ]; then
    printf '\n==> FAILED: %d step(s)\n' "${#failed[@]}"
    printf '  - %s\n' "${failed[@]}"
    exit 1
fi

step "OK"
