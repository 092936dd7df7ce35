#!/usr/bin/env bash
# bench_smoke.sh — the per-PR performance smoke: every bench driver, a
# reduced Figure 3 sweep through cmd/scbr-bench and the CacheMissVsSwap and
# BrokerPublishParallel Go benchmarks, folded into one JSON document on
# stdout that records wall-clock (simulator speed) next to sim-cycle metrics
# (modeled costs). Run from the repo root:
#
#   scripts/bench_smoke.sh > BENCH_N.json
#   go run ./cmd/bench-check -bench BENCH_N.json
#
# One contract holds for every gated section: a flat "deterministic"
# {name: number} map, which cmd/bench-check compares against
# scripts/bench_baseline.json; everything else is informational. The raw
# Go benchmark result lines go under "go_bench". Each driver enforces its
# own invariants and exits nonzero when one fails, which aborts this script
# (set -e), so a broken run never reaches a baseline refresh. Needs jq.
#
# The Figure 3 sweep is reduced (3 points, 200 ops) so the smoke finishes in
# well under a minute; the full-fidelity nine-point sweep remains
# `go run ./cmd/scbr-bench`.
set -euo pipefail
cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# The points are independent twin platforms, so -parallel 3 is bit-identical
# to a sequential sweep (TestFigure3ParallelMatchesSequential pins this);
# only the wall clock shrinks on multicore hosts.
echo "bench-smoke: reduced Figure 3 sweep (60,120,200 MB @ 200 ops, -parallel 3)" >&2
go run ./cmd/scbr-bench -ops 200 -points 60,120,200 -payload 1200 -parallel 3 -json \
    >"$TMP/figure3.json"

# Sharded KV store + parallel secure map/reduce, including the smartgrid
# billing end-to-end pipeline; fails if the sharded store's results diverge
# from the sequential store.
echo "bench-smoke: kv-bench (sharded store + parallel map/reduce + smartgrid billing)" >&2
go run ./cmd/kv-bench -json >"$TMP/kv.json"

# Application plane: the four closed-loop fault-injection scenarios, the
# declarative admission lab, the simulated multi-node cluster lab and the
# overload admission-on/off contrast arm, each swept across worker counts
# 1,2,4,8. Fails unless every trace and lab metric is bit-identical across
# the sweep, every lab assertion table passes and the contrast holds.
echo "bench-smoke: app-bench (orchestrated replica-set scenarios + admission & cluster labs, workers 1,2,4,8)" >&2
go run ./cmd/app-bench -json >"$TMP/app.json"

# Content-addressed data plane: chunk-granular registry push with dedup,
# then cold / shared-base / warm pulls through the node blob cache, swept
# across pull worker counts 1,2,4,8. Fails unless the sweep is
# bit-identical and the warm pull fetches zero chunks.
echo "bench-smoke: pull-bench (chunk registry + parallel verified pulls, workers 1,2,4,8)" >&2
go run ./cmd/pull-bench -json >"$TMP/pull.json"

# Wire front end: the seeded closed-loop HTTP workload run twice on fresh
# stacks. Fails unless both runs agree, no request is lost and the gateway
# rejects nothing; the latency quantiles in "wallclock" are informational.
echo "bench-smoke: wire-bench (HTTP plane + SCBR closed-loop load, run twice)" >&2
go run ./cmd/wire-bench -json >"$TMP/wire.json"

# HTTP-vs-in-process timing across payload sizes. Pure wall-clock (it
# measures the host's loopback stack), so the section has no
# "deterministic" map and is never gated.
echo "bench-smoke: wire-bench -timing (HTTP vs in-process per-request latency)" >&2
go run ./cmd/wire-bench -timing -timing-requests 100 -json >"$TMP/wire_timing.json"

# Delta durability: incremental snapshot vs full baseline, warm delta
# recovery vs cold recovery, WAL-segment GC, swept across worker counts
# 1,2,4,8. Fails unless the sweep is bit-identical and the delta beats the
# baseline in chunks, cycles and fetches.
echo "bench-smoke: durability-bench (delta snapshots + warm recovery + WAL GC, workers 1,2,4,8)" >&2
go run ./cmd/durability-bench -json >"$TMP/durability.json"

# Go benchmarks: the custom units (sim-cycles/match, faults/match, ...) are
# deterministic; cmd/bench-check requires BrokerPublishParallel's to agree
# across -cpu 1,4. Wall-clock ns/op shows host scaling only.
echo "bench-smoke: go test -bench=CacheMissVsSwap -benchtime=1x" >&2
go test -run '^$' -bench 'CacheMissVsSwap' -benchtime=1x . >"$TMP/bench.txt" 2>&1 \
    || { cat "$TMP/bench.txt" >&2; exit 1; }
echo "bench-smoke: go test -bench=BrokerPublishParallel -cpu 1,4" >&2
go test -run '^$' -bench 'BrokerPublishParallel' -benchtime 2000x -cpu 1,4 \
    ./internal/scbr >>"$TMP/bench.txt" 2>&1 \
    || { cat "$TMP/bench.txt" >&2; exit 1; }
grep '^Benchmark' "$TMP/bench.txt" | jq -R . | jq -s . >"$TMP/go_bench.json"

DIRTY=false
[ -z "$(git status --porcelain --untracked-files=no 2>/dev/null)" ] || DIRTY=true

# scripts/seed_baseline.json (committed) records the pre-optimization seed
# measurements this trajectory is judged against; embed it when present.
SEED_BASELINE="scripts/seed_baseline.json"
echo "{"
echo "  \"generated_by\": \"scripts/bench_smoke.sh\","
echo "  \"date_utc\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
echo "  \"commit\": \"$(git rev-parse HEAD 2>/dev/null || echo unknown)\","
echo "  \"dirty\": $DIRTY,"
echo "  \"go_version\": \"$(go env GOVERSION)\","
echo "  \"cpu_model\": $(grep -m1 '^model name' /proc/cpuinfo | cut -d: -f2- | jq -R 'ltrimstr(" ")'),"
echo "  \"host_cpus\": $(nproc),"
# The Go runtime defaults GOMAXPROCS to the CPUs the process may use.
echo "  \"gomaxprocs\": ${GOMAXPROCS:-$(nproc)},"
if [ -f "$SEED_BASELINE" ]; then
    echo "  \"seed_baseline\": $(cat "$SEED_BASELINE"),"
fi
echo "  \"kv_bench\": $(cat "$TMP/kv.json"),"
echo "  \"app_bench\": $(cat "$TMP/app.json"),"
echo "  \"pull_bench\": $(cat "$TMP/pull.json"),"
echo "  \"wire_bench\": $(cat "$TMP/wire.json"),"
echo "  \"wire_timing\": $(cat "$TMP/wire_timing.json"),"
echo "  \"durability_bench\": $(cat "$TMP/durability.json"),"
echo "  \"figure3\": $(cat "$TMP/figure3.json"),"
echo "  \"go_bench\": $(cat "$TMP/go_bench.json")"
echo "}"
