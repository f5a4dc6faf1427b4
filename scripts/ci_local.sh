#!/usr/bin/env bash
# Mirrors every CI lane offline so a red lane can be reproduced without
# waiting on (or having access to) the hosted runners.
#
#   scripts/ci_local.sh              # the PR gate: build-test, elastic,
#                                    #   examples, runtime, socket, storage,
#                                    #   bench lanes
#   scripts/ci_local.sh --soak       # additionally the nightly soak lane
#                                    #   (PROPTEST_CASES=1024 + extra
#                                    #   churn seeds)
#   scripts/ci_local.sh --lane elastic   # just one lane
#
# Lanes: build-test, elastic, examples, runtime, socket, storage, faults,
# bench, soak.
set -euo pipefail
cd "$(dirname "$0")/.."

want_soak=0
only_lane=""
while [ $# -gt 0 ]; do
    case "$1" in
        --soak) want_soak=1 ;;
        --lane)
            shift
            only_lane="${1:-}"
            [ -n "$only_lane" ] || { echo "--lane needs an argument" >&2; exit 2; }
            ;;
        *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
    shift
done

runs_lane() {
    if [ -n "$only_lane" ]; then
        [ "$only_lane" = "$1" ]
    elif [ "$1" = soak ]; then
        [ "$want_soak" -eq 1 ]
    else
        return 0
    fi
}

banner() {
    echo
    echo "━━━ lane: $1 ━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━"
}

# The PR gate runs the suites with a cheap case count, exactly like CI;
# export PROPTEST_CASES yourself to override.
export PROPTEST_CASES="${PROPTEST_CASES:-64}"

if runs_lane build-test; then
    banner "build-test"
    cargo build --release
    cargo test -q
    cargo bench --no-run
    cargo clippy --all-targets -- -D warnings
    cargo fmt --all --check
fi

if runs_lane elastic; then
    banner "elastic"
    cargo test -p kvstore --test elastic -- --nocapture
    cargo test -p kvstore --test gossip -- --nocapture
    cargo test -p kvstore --test overlap -- --nocapture
    cargo test -p ring --test view_merge -- --nocapture
fi

if runs_lane examples; then
    banner "examples"
    ./scripts/smoke_examples.sh
    cargo run -q --release --bin figures
fi

if runs_lane runtime; then
    banner "runtime"
    cargo test -p runtime --test timer_order -- --nocapture
    cargo test -p runtime --test watchdog -- --nocapture
    cargo test -p runtime --test conformance -- --nocapture
fi

if runs_lane socket; then
    banner "socket"
    cargo test -p transport --test frame_robustness -- --nocapture
    cargo test -p transport --test charge_parity -- --nocapture
    cargo test -p transport --test conformance -- --nocapture
    cargo test -p transport --test lifecycle -- --nocapture
    cargo test -p transport --test bounds --test threads -- --nocapture
    cargo build --release --offline --manifest-path perfbench/Cargo.toml
fi

if runs_lane storage; then
    banner "storage"
    cargo test -p storage -- --nocapture
    cargo test -p kvstore --test recovery -- --nocapture
    cargo test -p runtime --test recovery -- --nocapture
fi

if runs_lane faults; then
    banner "faults"
    # Adversarial network faults composed with crashes: the
    # crash-mid-burst dot-uniqueness suites on both drivers (including
    # the committed guard-disabled regression), the reservation codec
    # properties, the hello-authentication lifecycle suite, and the
    # churn suites re-run with every link duplicating / reordering /
    # stale-replaying (NET_FAULTS=hostile).
    cargo test -p kvstore --test crash_burst -- --nocapture
    cargo test -p runtime --test crash_burst -- --nocapture
    cargo test -p storage --test meta_record -- --nocapture
    cargo test -p transport --test lifecycle -- --nocapture
    NET_FAULTS=hostile cargo test -p kvstore --test elastic -- --nocapture
    NET_FAULTS=hostile cargo test -p kvstore --test gossip -- --nocapture
    NET_FAULTS=hostile cargo test -p kvstore --test overlap -- --nocapture
fi

if runs_lane bench; then
    banner "bench-baseline"
    CRITERION_JSON_OUT="$PWD/BENCH_membership.json" \
        cargo bench --bench membership -- --quick
    CRITERION_JSON_OUT="$PWD/BENCH_store.json" \
        cargo bench --bench store -- --quick
    CRITERION_JSON_OUT="$PWD/BENCH_aae.json" \
        cargo bench --bench aae -- --quick
    CRITERION_JSON_OUT="$PWD/BENCH_wire.json" \
        cargo bench --bench wire -- --quick
    CRITERION_JSON_OUT="$PWD/BENCH_runtime.json" \
        cargo bench --bench runtime -- --quick
    CRITERION_JSON_OUT="$PWD/BENCH_socket.json" \
        cargo bench --bench socket -- --quick
    CRITERION_JSON_OUT="$PWD/BENCH_storage.json" \
        cargo bench --bench storage -- --quick
    echo "baselines written to BENCH_membership.json / BENCH_store.json /" \
         "BENCH_aae.json / BENCH_wire.json / BENCH_runtime.json /" \
         "BENCH_socket.json / BENCH_storage.json"
    ./scripts/bench_compare.sh
fi

if runs_lane soak; then
    banner "soak"
    PROPTEST_CASES="${SOAK_PROPTEST_CASES:-1024}" \
    EXTRA_CHURN_SEEDS="${EXTRA_CHURN_SEEDS:-59,83,127,211,349}" \
    bash -c '
        set -euo pipefail
        cargo test -p ring --test view_merge -- --nocapture
        cargo test -p ring --test properties -- --nocapture
        cargo test -p kvstore --test elastic -- --nocapture
        cargo test -p kvstore --test gossip -- --nocapture
        cargo test -p kvstore --test overlap -- --nocapture
        cargo test -p kvstore --test aae_oracle -- --nocapture
        cargo test -p kvstore --test wire -- --nocapture
        cargo test -p kvstore --test recovery -- --nocapture
        cargo test -p storage -- --nocapture
        cargo test -p kvstore --test crash_burst -- --nocapture
        cargo test -p runtime --test crash_burst -- --nocapture
        cargo test -p storage --test meta_record -- --nocapture
        NET_FAULTS=hostile cargo test -p kvstore --test elastic -- --nocapture
        NET_FAULTS=hostile cargo test -p kvstore --test gossip -- --nocapture
        NET_FAULTS=hostile cargo test -p kvstore --test overlap -- --nocapture
    '
    # the same churn suites again with the delta protocols forced on:
    # the equivalence oracle must stay green when every reconciliation
    # travels as summaries/deltas instead of full pushes
    PROPTEST_CASES="${SOAK_PROPTEST_CASES:-1024}" \
    EXTRA_CHURN_SEEDS="${EXTRA_CHURN_SEEDS:-59,83,127,211,349}" \
    DELTA_PROTOCOLS=force \
    bash -c '
        set -euo pipefail
        cargo test -p kvstore --test elastic -- --nocapture
        cargo test -p kvstore --test gossip -- --nocapture
        cargo test -p kvstore --test overlap -- --nocapture
        cargo test -p kvstore --test aae_oracle -- --nocapture
    '
    # cross-backend conformance at soak breadth: several seeds so rare
    # thread interleavings get real coverage
    RUNTIME_CONFORMANCE_SEEDS="${RUNTIME_CONFORMANCE_SEEDS:-8}" \
        cargo test -p runtime --test conformance -- --nocapture
    SOCKET_CONFORMANCE_SEEDS="${SOCKET_CONFORMANCE_SEEDS:-8}" \
        cargo test -p transport --test conformance -- --nocapture
fi

echo
echo "all requested lanes green ✓"
