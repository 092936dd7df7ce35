#!/usr/bin/env bash
# ci.sh — the per-PR verification gate, runnable locally or in CI (the
# .github/workflows/ci.yml workflow invokes exactly this script):
#
#   scripts/ci.sh
#
# 1. gofmt -l                   (formatting)
# 2. go build ./...             (everything compiles, including examples)
# 3. go vet ./...               (static checks)
# 4. go test ./...              (tier-1: full test suite, goldens included)
# 5. go test -race <concurrent packages>
#                               (the packages with lock-free fast paths,
#                                the sharded broker, the sharded store,
#                                the parallel map/reduce engine, the
#                                application plane: attest/microsvc/
#                                orchestrator, the data plane:
#                                transfer/registry/container, and the
#                                protected-file + shielded-syscall layer
#                                now on the durable WAL/snapshot path:
#                                fsshield/shield/sconert)
# 6. bench-regression gate      (deterministic sim-metrics in the newest
#                                BENCH_N.json must match the committed
#                                baseline — see scripts/bench_check.sh)
# 7. fresh bench gate           (rerun app-, kv-, pull- and durability-bench
#                                from the code under test, overlay their
#                                sections onto the newest BENCH_N.json and
#                                gate that against the same baseline)
# 8. golden-drift gate          (regenerating every golden in a scratch
#                                copy must reproduce the committed files —
#                                catches stale goldens)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "ci: gofmt -l" >&2
UNFORMATTED="$(gofmt -l .)"
if [ -n "$UNFORMATTED" ]; then
    echo "ci: gofmt needed on:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

echo "ci: go build ./..." >&2
go build ./...

echo "ci: go vet ./..." >&2
go vet ./...

echo "ci: go test ./..." >&2
go test ./...

RACE_PKGS=(
    ./internal/sim
    ./internal/enclave
    ./internal/scbr
    ./internal/eventbus
    ./internal/cryptbox
    ./internal/kvstore
    ./internal/mapreduce
    ./internal/attest
    ./internal/microsvc
    ./internal/cluster
    ./internal/orchestrator
    ./internal/transfer
    ./internal/registry
    ./internal/container
    ./internal/fsshield
    ./internal/shield
    ./internal/sconert
    ./internal/httpx
    ./internal/wire
    ./internal/loadgen
)
echo "ci: go test -race ${RACE_PKGS[*]}" >&2
go test -race "${RACE_PKGS[@]}"

echo "ci: bench-regression gate" >&2
scripts/bench_check.sh

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# Fresh bench gate: the committed BENCH_N.json only proves what the code
# did when it was recorded. Rerun the deterministic drivers, splice their
# JSON over the matching sections of the newest BENCH_N.json (the
# wall-clock-only sections stay as committed) and gate the result against
# the baseline at the same 1e-9 tolerance.
LATEST="$(ls BENCH_*.json 2>/dev/null | sort -V | tail -n 1)"
if [ -n "$LATEST" ]; then
    echo "ci: fresh bench gate (app/kv/pull/durability-bench over $LATEST)" >&2
    mkdir -p "$WORK/bench"
    for d in app kv pull durability; do
        go run "./cmd/$d-bench" -json >"$WORK/bench/$d.json"
    done
    jq --slurpfile app "$WORK/bench/app.json" --slurpfile kv "$WORK/bench/kv.json" \
        --slurpfile pull "$WORK/bench/pull.json" --slurpfile dur "$WORK/bench/durability.json" \
        '.app_bench = $app[0] | .kv_bench = $kv[0] | .pull_bench = $pull[0] | .durability_bench = $dur[0]' \
        "$LATEST" >"$WORK/bench/fresh.json"
    go run ./cmd/bench-check -bench "$WORK/bench/fresh.json"
fi

# Golden-drift gate: rerun every golden recorder with GOLDEN_UPDATE=1 in a
# scratch copy of the tree and require `git diff --exit-code` to stay
# silent on testdata — i.e. the committed goldens are exactly what the
# current code regenerates. The scratch copy commits the working tree
# first so the diff isolates what GOLDEN_UPDATE changed, not what the
# developer was editing.
echo "ci: golden-drift gate (GOLDEN_UPDATE=1 in scratch copy)" >&2
cp -a "$PWD" "$WORK/repo"
(
    cd "$WORK/repo"
    git add -A >/dev/null 2>&1
    git -c user.email=ci@local -c user.name=ci commit -qm golden-gate-baseline --allow-empty --no-verify
    GOLDEN_UPDATE=1 go test -run 'Golden' ./internal/enclave ./internal/scbr >/dev/null
    if ! git diff --exit-code -- '*testdata*'; then
        echo "ci: goldens are stale — regenerate with GOLDEN_UPDATE=1 and commit" >&2
        exit 1
    fi
)

echo "ci: OK" >&2
