// Command durability-bench measures what the delta durability pipeline
// saves over the full-snapshot baseline, in both directions of the wire:
//
//   - publish: after a small mutation, an incremental snapshot re-packs
//     only the dirty shard and publishes strictly fewer chunks — and
//     charges strictly fewer sim-cycles — than a full snapshot of the
//     identical state (measured on a twin store against its own registry,
//     so convergent dedup cannot flatter either side).
//   - recover: a node that already pulled the previous snapshot recovers
//     the delta chain by fetching only the cache-missing chunks — strictly
//     fewer than its own cold recovery fetched — then replays the
//     post-snapshot WAL tail, and must land bit-identical to a
//     never-crashed twin.
//
// The whole cycle runs once per worker count in {1,2,4,8}. Worker count is
// execution-only: every simulated metric (chunks published and fetched,
// pack and replay cycles, GC retirements) must be bit-identical across the
// sweep — the driver exits nonzero otherwise, as it does if the delta ever
// fails to beat the full baseline. The -json output's "deterministic"
// object is gated by cmd/bench-check in CI.
//
// Usage:
//
//	durability-bench [-shards N] [-batches N] [-seed S] [-json]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"securecloud/internal/container"
	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/kvstore"
	"securecloud/internal/registry"
	"securecloud/internal/shield"
)

// result is one worker-count run's deterministic metrics plus wall clock
// (host speed only, never gated).
type result struct {
	WallNS int64 `json:"wall_ns"`

	BaseSnapshotChunks int    `json:"base_snapshot_chunks"`
	BaseSnapshotCycles uint64 `json:"base_snapshot_cycles"`

	ColdChunksFetched int `json:"cold_chunks_fetched"`
	ColdCacheHits     int `json:"cold_cache_hits"`

	DeltaShardsPacked   int    `json:"delta_shards_packed"`
	DeltaShardsReused   int    `json:"delta_shards_reused"`
	DeltaSnapshotChunks int    `json:"delta_snapshot_chunks"`
	DeltaChunksDeduped  int    `json:"delta_chunks_deduped"`
	DeltaSnapshotCycles uint64 `json:"delta_snapshot_cycles"`

	FullSnapshotChunks int    `json:"full_snapshot_chunks"`
	FullSnapshotCycles uint64 `json:"full_snapshot_cycles"`

	GCSegmentsRetired int   `json:"gc_segments_retired"`
	GCBytesRetired    int64 `json:"gc_bytes_retired"`

	DeltaChunksFetched int `json:"delta_chunks_fetched"`
	DeltaCacheHits     int `json:"delta_cache_hits"`
	ReplayRecords      int `json:"replay_records"`
	ChainLinks         int `json:"chain_links"`

	RecoveredStateEqual bool `json:"recovered_state_equal"`
}

// deterministicEqual compares everything but wall clock.
func deterministicEqual(a, b result) bool {
	a.WallNS, b.WallNS = 0, 0
	return a == b
}

// genBatches mirrors the kvstore test workload: a deterministic batch
// stream with overwrites across a small key space.
func genBatches(seed int64, n, perBatch int) [][]kvstore.Pair {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]kvstore.Pair, n)
	for i := range out {
		batch := make([]kvstore.Pair, perBatch)
		for j := range batch {
			v := make([]byte, 24+rng.Intn(40))
			rng.Read(v)
			batch[j] = kvstore.Pair{Key: fmt.Sprintf("key-%03d", rng.Intn(48)), Value: v}
		}
		out[i] = batch
	}
	return out
}

// newNode builds an engine (with an empty node blob cache) against reg.
func newNode(reg *registry.Registry, workers int) *container.Engine {
	eng := container.NewEngine(enclave.NewPlatform(enclave.Config{}), shield.NewHost(), reg, nil)
	eng.Cache = container.NewBlobCache()
	eng.PullWorkers = workers
	return eng
}

func run(shards, workers, batches int, seed int64, fail func(string, ...any)) result {
	start := time.Now()
	sealKey, err := cryptbox.KeyFromBytes(bytes.Repeat([]byte{0x5A}, cryptbox.KeySize))
	if err != nil {
		fail("%v", err)
	}
	base := genBatches(seed, batches, 14)
	mutation := []kvstore.Pair{{Key: "key-007", Value: bytes.Repeat([]byte{0xEE}, 32)}}
	tail := []kvstore.Pair{{Key: "key-011", Value: bytes.Repeat([]byte{0xC3}, 32)}}

	// ---- Node A: the primary store, base load, first (full) snapshot ----
	regA := registry.New()
	cfgA := kvstore.DurableConfig{
		Shards: shards, Workers: workers, Seed: seed,
		Service: "bench/durable", SealKey: sealKey,
		Registry: regA, Engine: newNode(regA, workers),
	}
	dsA, err := kvstore.NewDurableStore(cfgA)
	if err != nil {
		fail("%v", err)
	}
	for _, b := range base {
		if err := dsA.PutBatch(b); err != nil {
			fail("%v", err)
		}
	}
	baseSnap, err := dsA.Snapshot()
	if err != nil {
		fail("base snapshot: %v", err)
	}

	// ---- Node B: cold recovery (empty cache), then the delta cycle ----
	cfgB := cfgA
	cfgB.Engine = newNode(regA, workers)
	dsB, cold, err := kvstore.RecoverDurableStore(cfgB, dsA.WALSegments())
	if err != nil {
		fail("cold recovery: %v", err)
	}
	if err := dsB.PutBatch(mutation); err != nil {
		fail("%v", err)
	}
	deltaSnap, err := dsB.Snapshot()
	if err != nil {
		fail("delta snapshot: %v", err)
	}
	gc := dsB.GC()
	if err := dsB.PutBatch(tail); err != nil {
		fail("%v", err)
	}

	// ---- Twin C: identical state against its own registry, so the full
	// snapshot baseline is measured without cross-dedup against A's chunks.
	// It also receives the tail batch, becoming the never-crashed reference.
	regC := registry.New()
	cfgC := cfgA
	cfgC.Registry = regC
	cfgC.Engine = newNode(regC, workers)
	dsC, err := kvstore.NewDurableStore(cfgC)
	if err != nil {
		fail("%v", err)
	}
	for _, b := range base {
		if err := dsC.PutBatch(b); err != nil {
			fail("%v", err)
		}
	}
	if err := dsC.PutBatch(mutation); err != nil {
		fail("%v", err)
	}
	fullSnap, err := dsC.SnapshotFull()
	if err != nil {
		fail("full snapshot: %v", err)
	}
	if err := dsC.PutBatch(tail); err != nil {
		fail("%v", err)
	}

	// ---- Crash B; warm recovery on the same node (warm blob cache) ----
	dsR, warm, err := kvstore.RecoverDurableStore(cfgB, dsB.WALSegments())
	if err != nil {
		fail("warm recovery: %v", err)
	}
	got, err := dsR.StateDigest()
	if err != nil {
		fail("%v", err)
	}
	want, err := dsC.StateDigest()
	if err != nil {
		fail("%v", err)
	}

	return result{
		WallNS:              time.Since(start).Nanoseconds(),
		BaseSnapshotChunks:  baseSnap.ChunksPublished,
		BaseSnapshotCycles:  uint64(baseSnap.PackCycles),
		ColdChunksFetched:   cold.ChunksFetched,
		ColdCacheHits:       cold.CacheHits,
		DeltaShardsPacked:   deltaSnap.ShardsPacked,
		DeltaShardsReused:   deltaSnap.ShardsReused,
		DeltaSnapshotChunks: deltaSnap.ChunksPublished,
		DeltaChunksDeduped:  deltaSnap.ChunksDeduped,
		DeltaSnapshotCycles: uint64(deltaSnap.PackCycles),
		FullSnapshotChunks:  fullSnap.ChunksPublished,
		FullSnapshotCycles:  uint64(fullSnap.PackCycles),
		GCSegmentsRetired:   gc.SegmentsRetired,
		GCBytesRetired:      gc.BytesRetired,
		DeltaChunksFetched:  warm.ChunksFetched,
		DeltaCacheHits:      warm.CacheHits,
		ReplayRecords:       warm.RecordsReplayed,
		ChainLinks:          warm.ChainLinks,
		RecoveredStateEqual: got == want,
	}
}

func main() {
	shards := flag.Int("shards", 8, "durable store shard count")
	batches := flag.Int("batches", 6, "base-load batches (14 pairs each)")
	seed := flag.Int64("seed", 42, "workload seed")
	jsonOut := flag.Bool("json", false, "emit results as JSON")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "durability-bench: "+format+"\n", args...)
		os.Exit(1)
	}

	workerSweep := []int{1, 2, 4, 8}
	var first result
	workersEqual := true
	for wi, workers := range workerSweep {
		r := run(*shards, workers, *batches, *seed, fail)
		if wi == 0 {
			first = r
			continue
		}
		if !deterministicEqual(r, first) {
			workersEqual = false
			fmt.Fprintf(os.Stderr, "durability-bench: metrics differ at %d workers:\n  got  %+v\n  want %+v\n",
				workers, r, first)
		}
	}
	if !workersEqual {
		fail("durability metrics are not worker-count invariant")
	}
	// The delta must actually beat the baseline — in chunks and cycles on
	// the publish side, and in fetches on the recovery side.
	if first.DeltaSnapshotChunks >= first.FullSnapshotChunks {
		fail("delta snapshot published %d chunks, full published %d",
			first.DeltaSnapshotChunks, first.FullSnapshotChunks)
	}
	if first.DeltaSnapshotCycles >= first.FullSnapshotCycles {
		fail("delta snapshot charged %d cycles, full charged %d",
			first.DeltaSnapshotCycles, first.FullSnapshotCycles)
	}
	if first.DeltaChunksFetched == 0 || first.DeltaChunksFetched >= first.ColdChunksFetched {
		fail("warm delta recovery fetched %d chunks, cold fetched %d",
			first.DeltaChunksFetched, first.ColdChunksFetched)
	}
	if !first.RecoveredStateEqual {
		fail("recovered state differs from the never-crashed twin")
	}

	equal := 0.0
	if first.RecoveredStateEqual {
		equal = 1
	}
	out := struct {
		Config struct {
			Shards  int   `json:"shards"`
			Batches int   `json:"batches"`
			Seed    int64 `json:"seed"`
			Workers []int `json:"worker_sweep"`
		} `json:"config"`
		Run           result             `json:"run"`
		WorkersEqual  bool               `json:"workers_equal"`
		Deterministic map[string]float64 `json:"deterministic"`
	}{}
	out.Config.Shards = *shards
	out.Config.Batches = *batches
	out.Config.Seed = *seed
	out.Config.Workers = workerSweep
	out.Run = first
	out.WorkersEqual = workersEqual
	out.Deterministic = map[string]float64{
		"base_snapshot_chunks":  float64(first.BaseSnapshotChunks),
		"base_snapshot_cycles":  float64(first.BaseSnapshotCycles),
		"cold_chunks_fetched":   float64(first.ColdChunksFetched),
		"cold_cache_hits":       float64(first.ColdCacheHits),
		"delta_shards_packed":   float64(first.DeltaShardsPacked),
		"delta_shards_reused":   float64(first.DeltaShardsReused),
		"delta_snapshot_chunks": float64(first.DeltaSnapshotChunks),
		"delta_chunks_deduped":  float64(first.DeltaChunksDeduped),
		"delta_snapshot_cycles": float64(first.DeltaSnapshotCycles),
		"full_snapshot_chunks":  float64(first.FullSnapshotChunks),
		"full_snapshot_cycles":  float64(first.FullSnapshotCycles),
		"gc_segments_retired":   float64(first.GCSegmentsRetired),
		"gc_bytes_retired":      float64(first.GCBytesRetired),
		"delta_chunks_fetched":  float64(first.DeltaChunksFetched),
		"delta_cache_hits":      float64(first.DeltaCacheHits),
		"replay_records":        float64(first.ReplayRecords),
		"chain_links":           float64(first.ChainLinks),
		"recovered_state_equal": equal,
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fail("%v", err)
		}
		return
	}
	fmt.Printf("publish: delta %d chunks / %d cycles (packed %d, reused %d) vs full %d chunks / %d cycles\n",
		first.DeltaSnapshotChunks, first.DeltaSnapshotCycles,
		first.DeltaShardsPacked, first.DeltaShardsReused,
		first.FullSnapshotChunks, first.FullSnapshotCycles)
	fmt.Printf("recover: warm delta fetched %d chunks (%d cache hits, %d records replayed, %d chain links) vs cold %d\n",
		first.DeltaChunksFetched, first.DeltaCacheHits, first.ReplayRecords,
		first.ChainLinks, first.ColdChunksFetched)
	fmt.Printf("gc: %d segments (%d bytes) retired; recovered state equal: %v\n",
		first.GCSegmentsRetired, first.GCBytesRetired, first.RecoveredStateEqual)
	fmt.Printf("metrics bit-identical across workers %v: %v\n", workerSweep, workersEqual)
}
