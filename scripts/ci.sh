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
# 6. fuzz smoke                 (each Fuzz* target of the untrusted-input
#                                decoders runs for 5 s: WAL record,
#                                whole WAL, snapshot chunk, snapshot
#                                chain, SCBR plaintext, transfer
#                                manifest, plane frame, wire frame batch,
#                                image layer)
# 7. bench gate                 (scripts/bench_smoke.sh reruns every bench
#                                driver, the Figure 3 sweep and the Go
#                                benchmarks from the code under test; each
#                                driver enforces its own invariants, and
#                                cmd/bench-check requires every
#                                deterministic metric of that fresh output
#                                to match scripts/bench_baseline.json)
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

FUZZ_TARGETS=(
    ./internal/kvstore:FuzzDecodeWALRecord
    ./internal/kvstore:FuzzDecodeWAL
    ./internal/kvstore:FuzzDecodeSnapshotChunk
    ./internal/kvstore:FuzzRecoverSnapshotChain
    ./internal/scbr:FuzzDecodeEvent
    ./internal/transfer:FuzzDecodeManifest
    ./internal/microsvc:FuzzDecodeFrame
    ./internal/wire:FuzzDecodeBatch
    ./internal/image:FuzzDecodeLayer
)
for t in "${FUZZ_TARGETS[@]}"; do
    echo "ci: fuzz ${t#*:} (${t%%:*}, 5s)" >&2
    go test -run '^$' -fuzz "^${t#*:}\$" -fuzztime 5s "${t%%:*}"
done

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

echo "ci: bench gate (fresh scripts/bench_smoke.sh output)" >&2
scripts/bench_smoke.sh >"$WORK/bench.json"
go run ./cmd/bench-check -bench "$WORK/bench.json"

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
