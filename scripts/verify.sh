#!/usr/bin/env bash
# Repo verification: the tier-1 gate (ROADMAP.md) plus lint and format
# checks. Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q (all crates)"
cargo test --workspace -q

echo "==> cost-model invariance matrix (obs / fault / quota / idle swap / compiled)"
# One matrix: every measured workload (Tables 2/4/5/6, demand paging,
# §5.5 watchers, keyed-vs-opaque echo) under every idle wiring (obs
# recorder on at capacity 1/64k and off; fault plans disabled and armed
# at zero; unlimited quota cells, scheduler hook and mailbox gates; an
# idle swap coordinator with obs absent and wired) must equal the
# absent column byte for byte, plus the keyed-vs-opaque and mid-run
# identical-swap pairwise cells.
cargo test -q -p spin-bench --test invariance

echo "==> chaos suite: seeded fault storm, quarantine budget, /metrics attribution"
cargo test -q --test chaos_faults

echo "==> bench smoke: --json emission + virtual-time goldens"
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
for bin in table1_sizes table2_comm table4_vm table5_net fig5_stack; do
    (cd "$SMOKE_DIR" && cargo run -q --manifest-path "$OLDPWD/Cargo.toml" \
        -p spin-bench --bin "$bin" -- --json > /dev/null)
    test -s "$SMOKE_DIR/BENCH_$bin.json" || {
        echo "verify: $bin emitted no BENCH_$bin.json" >&2
        exit 1
    }
done
# table1 counts source lines (drifts with every commit): smoke-only.
# table2_comm, table4_vm, table5_net and fig5_stack are pure virtual-time
# / topology output and must match the checked-in goldens byte-for-byte —
# this is the cost-model invariant gate: instrumentation must never move a
# reported number. table4_vm and table5_net run through the same shared
# workloads (spin_bench::workloads) as the invariance matrix.
# Since fault containment landed, the same diff also gates the fault path:
# catch_unwind isolation and the injection hooks are compiled in here (with
# no plan armed), and must not move a golden by a single byte.
for bin in table2_comm table4_vm table5_net fig5_stack; do
    diff -u "scripts/goldens/BENCH_$bin.json" "$SMOKE_DIR/BENCH_$bin.json" || {
        echo "verify: $bin diverged from scripts/goldens/BENCH_$bin.json" >&2
        exit 1
    }
done

echo "==> multicore invariance: shard barrier determinism at 1/2/4 workers"
# The sharded suites re-run every scenario at worker counts 1, 2 and 4 and
# assert byte-identical virtual outputs; s7_multicore does the same for the
# Table 6 forwarding topology (exits nonzero on any divergence). The golden
# diffs above stay the shared-timeline gate: those bins must not change by
# a byte whether or not the shard machinery is compiled in.
cargo test -q --test multicore_shards
cargo test -q -p spin-net sharded
cargo test -q -p spin-dsm sharded
(cd "$SMOKE_DIR" && cargo run -q --release --manifest-path "$OLDPWD/Cargo.toml" \
    -p spin-bench --bin s7_multicore -- --json > /dev/null)
test -s "$SMOKE_DIR/BENCH_multicore.json" || {
    echo "verify: s7_multicore emitted no BENCH_multicore.json" >&2
    exit 1
}

echo "==> compiled dispatch: guard-set compilation invariance"
# Keyed (compiled) vs opaque (sequential) installations charging
# identical virtual time on the real workloads is a pairwise cell of the
# invariance matrix above, in every column (observability absent:
# coalesced miss charges; wired: charge-by-charge replay).
# s1_dispatcher_scaling asserts in-binary that compiled and sequential
# sweep columns are equal at every guard count, then measures the
# wall-clock win; its virtual rows — and the keyed forwarder's Table 6
# numbers — are golden-gated byte-for-byte with compilation enabled.
for bin in table6_forward s1_dispatcher_scaling; do
    (cd "$SMOKE_DIR" && cargo run -q --release --manifest-path "$OLDPWD/Cargo.toml" \
        -p spin-bench --bin "$bin" -- --json > /dev/null)
    diff -u "scripts/goldens/BENCH_$bin.json" "$SMOKE_DIR/BENCH_$bin.json" || {
        echo "verify: $bin diverged from scripts/goldens/BENCH_$bin.json" >&2
        exit 1
    }
done
# The wall-clock report (nondeterministic, never golden-diffed) must still
# be emitted; the concurrent raise-vs-plan-rebuild model runs in the
# spin-check suite below (raise_vs_keyed_plan_rebuild_swap, bound 2).
test -s "$SMOKE_DIR/BENCH_dispatch_compiled.json" || {
    echo "verify: s1_dispatcher_scaling emitted no BENCH_dispatch_compiled.json" >&2
    exit 1
}

echo "==> hot-swap invariance: idle machinery, mid-run swap, mid-storm bench"
# Tables 2/5/6 not moving by a byte with the swap machinery compiled in
# but idle, and a committed swap to a semantically identical forwarder
# being invisible in the Table 6 numbers, are cells of the invariance
# matrix above.
# Hold-queue reconciliation under raise/swap/rollback churn, and the
# seeded SITE_SWAP chaos storms (rollback restores the old version) run in
# the chaos/stress suites above; s8_hotswap swaps the UDP forwarder with
# >=10k packets in flight and exits nonzero on any dropped packet, any
# semantic divergence from the uninterrupted run, or any worker-count
# divergence. Its virtual outputs are golden-gated byte-for-byte.
(cd "$SMOKE_DIR" && cargo run -q --release --manifest-path "$OLDPWD/Cargo.toml" \
    -p spin-bench --bin s8_hotswap -- --json > /dev/null)
diff -u "scripts/goldens/BENCH_hotswap.json" "$SMOKE_DIR/BENCH_hotswap.json" || {
    echo "verify: s8_hotswap diverged from scripts/goldens/BENCH_hotswap.json" >&2
    exit 1
}

echo "==> quota invariance: unlimited budgets, overload containment bench"
# Metering events, installing the scheduler quota hook and gating
# mailbox lanes with zero-valued (unlimited) budgets must not move a
# virtual-time figure by a byte — admission is free until a budget
# actually refuses: the quota column of the invariance matrix above.
# s9_overload drives a 12-shard storm (greedy flooder + slowloris +
# nine tenants) through the full escalation ladder — throttle, shed,
# quarantine, fallback swap to a degraded build — and exits nonzero if
# the ledger fails to reconcile, the well-behaved tenants' p99 leaves
# the containment bound, or any worker count diverges. Its virtual
# outputs are golden-gated byte-for-byte.
(cd "$SMOKE_DIR" && cargo run -q --release --manifest-path "$OLDPWD/Cargo.toml" \
    -p spin-bench --bin s9_overload -- --json > /dev/null)
diff -u "scripts/goldens/BENCH_overload.json" "$SMOKE_DIR/BENCH_overload.json" || {
    echo "verify: s9_overload diverged from scripts/goldens/BENCH_overload.json" >&2
    exit 1
}

echo "==> webscale: million-connection storm on the readiness/socket API"
# The redesigned edge (DESIGN.md decision #14): readiness-equivalence
# proptests, then the s10 storm — ~10^6 connections over 12 shards
# against the single-strand poller-driven HTTP server, exiting nonzero
# on any connect failure, dropped frame/envelope, ledger mismatch,
# worker-count divergence, or super-2x per-connection wall-clock growth
# from 10^3 to 10^6. Its virtual outputs are golden-gated byte-for-byte.
cargo test -q -p spin-net --test readiness_props
cargo test -q -p spin-net --test mc_tcp
(cd "$SMOKE_DIR" && cargo run -q --release --manifest-path "$OLDPWD/Cargo.toml" \
    -p spin-bench --bin s10_webscale -- --json > /dev/null)
diff -u "scripts/goldens/BENCH_webscale.json" "$SMOKE_DIR/BENCH_webscale.json" || {
    echo "verify: s10_webscale diverged from scripts/goldens/BENCH_webscale.json" >&2
    exit 1
}
# The pre-webscale entry points are removed, not deprecated: no in-tree
# caller may use them (doc comments naming them for history are fine).
if grep -rn '\.udp_bind(\|\.udp_channel(' crates/ examples/ --include='*.rs' \
    | grep -v '^\s*//' ; then
    echo "verify: removed pre-webscale socket API called in-tree" >&2
    exit 1
fi

echo "==> perfbench: host-cost workloads keep their virtual outputs"
# The two-clock benchmark's own tests, then one short run of each
# workload at seed 0. A run must report "correct": true and print the
# virtual-output digest checked in at scripts/goldens/perfbench_digests.txt:
# work that cuts the host's cost of simulating (strand handoff, epoch
# planning) may move wall-clock figures, never a virtual output.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
grep -v '^#' scripts/goldens/perfbench_digests.txt | while read -r workload digest; do
    out="$(cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 0 --seconds 1 --trace 0)"
    echo "$out" | tail -n 1 | grep -q '"correct": true' || {
        echo "verify: perfbench $workload did not report a correct run" >&2
        exit 1
    }
    echo "$out" | grep -qx "virtual-output digest: $digest" || {
        echo "verify: perfbench $workload digest diverged from perfbench_digests.txt" >&2
        exit 1
    }
    echo "    perfbench $workload: correct, digest $digest"
done

echo "==> spin-lint: token-level safety & determinism gate"
# The six-rule verifier (D1 determinism, D2 hash iteration, F1 sync
# facade, O1 ordering justifications, U1 unsafe containment, C1 charge
# coverage) must report zero findings, and its machine-readable report
# must match the golden byte-for-byte — so an allowlist entry can never
# slip in silently.
cargo build -q --release -p spin-check --bin spin-lint
LINT_START_NS=$(date +%s%N)
./target/release/spin-lint --json > "$SMOKE_DIR/lint_report.json"
LINT_ELAPSED_MS=$(( ($(date +%s%N) - LINT_START_NS) / 1000000 ))
diff -u scripts/goldens/lint_report.json "$SMOKE_DIR/lint_report.json" || {
    echo "verify: spin-lint diverged from scripts/goldens/lint_report.json" >&2
    exit 1
}
ALLOW_ENTRIES=$(grep -c '^\[\[allow\]\]' lint.toml)
if [ "$ALLOW_ENTRIES" -gt 10 ]; then
    echo "verify: lint.toml has $ALLOW_ENTRIES allow entries (cap: 10)" >&2
    exit 1
fi
# Runtime budget: the full-workspace lint must stay an instant pre-commit
# check (< 2s), or it stops being run.
if [ "$LINT_ELAPSED_MS" -ge 2000 ]; then
    echo "verify: spin-lint took ${LINT_ELAPSED_MS}ms (budget: 2000ms)" >&2
    exit 1
fi
echo "    spin-lint: clean in ${LINT_ELAPSED_MS}ms ($ALLOW_ENTRIES allow entries)"

echo "==> spin-check: model-check the lock-free kernel (--cfg spin_check)"
RUSTFLAGS="--cfg spin_check" CARGO_TARGET_DIR=target/spin-check \
    cargo test -q -p spin-check --tests

echo "==> spin-check: planted mutants must be caught (--cfg spin_check_mutant)"
RUSTFLAGS="--cfg spin_check --cfg spin_check_mutant" \
    CARGO_TARGET_DIR=target/spin-check-mutant \
    cargo test -q -p spin-check --test mutants

echo "==> miri (best effort): cargo miri test -p spin-obs ring"
if cargo miri --version >/dev/null 2>&1; then
    # Miri needs its sysroot (a network fetch on first run); skip cleanly
    # when it is not already set up (offline CI).
    if MIRIFLAGS="-Zmiri-disable-isolation" \
        cargo miri setup >/dev/null 2>&1; then
        MIRIFLAGS="-Zmiri-disable-isolation" \
            cargo miri test -q -p spin-obs ring
    else
        echo "    miri sysroot unavailable (offline?); skipping"
    fi
else
    echo "    miri not installed; skipping"
fi

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "verify: OK"
