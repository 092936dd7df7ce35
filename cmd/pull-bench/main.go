// Command pull-bench drives the content-addressed sealed data plane — the
// chunk-granular registry plus the container engine's parallel verified
// pull — and reports both wall-clock (simulator speed) and simulated
// metrics (modeled costs).
//
// The workload builds a fleet of images sharing a multi-chunk base layer,
// pushes them through the deduplicating registry, and then pulls three
// ways on a node with a shared blob cache:
//
//  1. cold: the first image on an empty node — every unique chunk crosses.
//  2. shared: a sibling image — only its unique app layer crosses, the
//     base comes from the cache (cross-image dedup at the node).
//  3. warm: the first image again, as a second replica boot — zero chunks
//     cross.
//
// The whole sequence runs once per worker count in {1,2,4,8}. Worker count
// is execution-only: every simulated metric (chunks fetched, dedup hits,
// per-layer verification cycles, faults) must be bit-identical across the
// sweep, and the warm pull must fetch exactly zero chunks — the driver
// exits nonzero otherwise. The -json output's "deterministic" object is
// gated by cmd/bench-check in CI.
//
// Usage:
//
//	pull-bench [-images K] [-base-kb N] [-app-kb N] [-seed S] [-json]
package main

import (
	"bytes"
	"crypto/ed25519"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"securecloud/internal/container"
	"securecloud/internal/enclave"
	"securecloud/internal/image"
	"securecloud/internal/registry"
	"securecloud/internal/shield"
	"securecloud/internal/sim"
)

// pull is the JSON record of one pull's deterministic metrics plus wall
// clock (host speed only, never gated).
type pull struct {
	WallNS         int64   `json:"wall_ns"`
	Layers         int     `json:"layers"`
	ChunksTotal    int     `json:"chunks_total"`
	UniqueChunks   int     `json:"unique_chunks"`
	DedupHits      int     `json:"dedup_hits"`
	CacheHits      int     `json:"cache_hits"`
	ChunksFetched  int     `json:"chunks_fetched"`
	BytesFetched   int64   `json:"bytes_fetched"`
	SerialCycles   uint64  `json:"sim_cycles_serial"`
	CriticalCycles uint64  `json:"sim_cycles_critical"`
	SimSpeedup     float64 `json:"sim_speedup"`
	Faults         uint64  `json:"faults"`
}

func record(ps container.PullStats, wall time.Duration) pull {
	p := pull{
		WallNS:         wall.Nanoseconds(),
		Layers:         ps.Layers,
		ChunksTotal:    ps.ChunksTotal,
		UniqueChunks:   ps.UniqueChunks,
		DedupHits:      ps.DedupHits,
		CacheHits:      ps.CacheHits,
		ChunksFetched:  ps.ChunksFetch,
		BytesFetched:   ps.BytesFetched,
		SerialCycles:   uint64(ps.SerialCycles),
		CriticalCycles: uint64(ps.CriticalCycles),
		SimSpeedup:     1,
		Faults:         ps.Faults,
	}
	if ps.CriticalCycles > 0 {
		p.SimSpeedup = float64(ps.SerialCycles) / float64(ps.CriticalCycles)
	}
	return p
}

// deterministicEqual compares everything but wall clock.
func deterministicEqual(a, b pull) bool {
	a.WallNS, b.WallNS = 0, 0
	return a == b
}

// compressibleData mimics real layer content: low-entropy, so the
// transfer codec's compression stage does real work.
func compressibleData(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte('a' + rng.Intn(16))
	}
	return out
}

func main() {
	images := flag.Int("images", 3, "images sharing one base layer")
	baseKB := flag.Int("base-kb", 512, "shared base layer size (KiB)")
	appKB := flag.Int("app-kb", 192, "per-image app layer size (KiB)")
	seed := flag.Int64("seed", 42, "workload seed")
	jsonOut := flag.Bool("json", false, "emit results as JSON")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "pull-bench: "+format+"\n", args...)
		os.Exit(1)
	}

	// ---- Build the image fleet and push it through the registry ----
	reg := registry.New()
	rng := sim.NewRand(*seed)
	base := compressibleData(rng, *baseKB<<10)
	var imgs []*image.Image
	for i := 0; i < *images; i++ {
		priv := ed25519.NewKeyFromSeed(bytes.Repeat([]byte{byte(i + 1)}, ed25519.SeedSize))
		img, err := image.NewBuilder("bench/app", fmt.Sprintf("v%d", i)).
			AddLayer(map[string][]byte{"/lib/base": base}).
			AddLayer(map[string][]byte{container.EntrypointPath: compressibleData(rng, *appKB<<10)}).
			SetEntrypoint(container.EntrypointPath).
			SetEnclaveSize(1 << 20).
			Build(priv)
		if err != nil {
			fail("%v", err)
		}
		imgs = append(imgs, img)
	}
	pushStart := time.Now()
	for _, img := range imgs {
		if err := reg.Push(img); err != nil {
			fail("%v", err)
		}
	}
	pushWall := time.Since(pushStart)
	regStats := reg.Stats()

	// ---- The pull sequence, swept across worker counts ----
	workerSweep := []int{1, 2, 4, 8}
	type seq struct {
		Cold   pull `json:"cold"`
		Shared pull `json:"shared"`
		Warm   pull `json:"warm"`
	}
	var first seq
	workersEqual := true
	for wi, workers := range workerSweep {
		cache := container.NewBlobCache()
		eng := container.NewEngine(enclave.NewPlatform(enclave.Config{}), shield.NewHost(), reg, nil)
		eng.Cache = cache
		eng.PullWorkers = workers

		var s seq
		start := time.Now()
		img, ps, err := eng.PullImage("bench/app", "v0")
		if err != nil {
			fail("cold pull: %v", err)
		}
		s.Cold = record(ps, time.Since(start))
		if err := img.Verify(); err != nil {
			fail("cold pull verification: %v", err)
		}

		start = time.Now()
		if _, ps, err = eng.PullImage("bench/app", "v1"); err != nil {
			fail("shared pull: %v", err)
		}
		s.Shared = record(ps, time.Since(start))

		start = time.Now()
		if _, ps, err = eng.PullImage("bench/app", "v0"); err != nil {
			fail("warm pull: %v", err)
		}
		s.Warm = record(ps, time.Since(start))

		if s.Warm.ChunksFetched != 0 || s.Warm.BytesFetched != 0 {
			fail("warm pull fetched %d chunks (%d bytes); the node cache is broken",
				s.Warm.ChunksFetched, s.Warm.BytesFetched)
		}
		if wi == 0 {
			first = s
			continue
		}
		if !deterministicEqual(s.Cold, first.Cold) ||
			!deterministicEqual(s.Shared, first.Shared) ||
			!deterministicEqual(s.Warm, first.Warm) {
			workersEqual = false
			fmt.Fprintf(os.Stderr, "pull-bench: metrics differ at %d workers:\n  got  %+v\n  want %+v\n",
				workers, s, first)
		}
	}
	if !workersEqual {
		fail("pull metrics are not worker-count invariant")
	}

	out := struct {
		Config struct {
			Images  int   `json:"images"`
			BaseKB  int   `json:"base_kb"`
			AppKB   int   `json:"app_kb"`
			Seed    int64 `json:"seed"`
			Workers []int `json:"worker_sweep"`
		} `json:"config"`
		Registry struct {
			WallNS    int64  `json:"push_wall_ns"`
			Manifests int    `json:"manifests"`
			Layers    int    `json:"layers"`
			Blobs     int    `json:"blobs"`
			BlobBytes int64  `json:"blob_bytes"`
			DedupHits uint64 `json:"dedup_hits"`
		} `json:"registry"`
		Pulls         seq                `json:"pulls"`
		WorkersEqual  bool               `json:"workers_equal"`
		Deterministic map[string]float64 `json:"deterministic"`
	}{}
	out.Config.Images = *images
	out.Config.BaseKB = *baseKB
	out.Config.AppKB = *appKB
	out.Config.Seed = *seed
	out.Config.Workers = workerSweep
	out.Registry.WallNS = pushWall.Nanoseconds()
	out.Registry.Manifests = regStats.Manifests
	out.Registry.Layers = regStats.Layers
	out.Registry.Blobs = regStats.Blobs
	out.Registry.BlobBytes = regStats.BlobBytes
	out.Registry.DedupHits = regStats.DedupHits
	out.Pulls = first
	out.WorkersEqual = workersEqual
	out.Deterministic = map[string]float64{
		"registry_blobs":           float64(regStats.Blobs),
		"registry_blob_bytes":      float64(regStats.BlobBytes),
		"registry_dedup_hits":      float64(regStats.DedupHits),
		"cold_chunks_fetched":      float64(first.Cold.ChunksFetched),
		"cold_unique_chunks":       float64(first.Cold.UniqueChunks),
		"cold_bytes_fetched":       float64(first.Cold.BytesFetched),
		"cold_sim_cycles_serial":   float64(first.Cold.SerialCycles),
		"cold_sim_cycles_critical": float64(first.Cold.CriticalCycles),
		"cold_faults":              float64(first.Cold.Faults),
		"shared_chunks_fetched":    float64(first.Shared.ChunksFetched),
		"shared_cache_hits":        float64(first.Shared.CacheHits),
		"shared_sim_cycles_serial": float64(first.Shared.SerialCycles),
		"warm_chunks_fetched":      float64(first.Warm.ChunksFetched),
		"warm_cache_hits":          float64(first.Warm.CacheHits),
		"warm_sim_cycles_serial":   float64(first.Warm.SerialCycles),
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fail("%v", err)
		}
		return
	}
	fmt.Printf("registry: %d images, %d layers -> %d blobs (%d KiB), %d dedup hits, pushed in %.1fms\n",
		regStats.Manifests, regStats.Layers, regStats.Blobs, regStats.BlobBytes>>10,
		regStats.DedupHits, float64(pushWall.Nanoseconds())/1e6)
	fmt.Printf("cold:   %d/%d chunks fetched (%d KiB), %d sim-cycles serial, %d critical (%.2fx layer-per-core), %d faults, %.1fms wall\n",
		first.Cold.ChunksFetched, first.Cold.ChunksTotal, first.Cold.BytesFetched>>10,
		first.Cold.SerialCycles, first.Cold.CriticalCycles, first.Cold.SimSpeedup,
		first.Cold.Faults, float64(first.Cold.WallNS)/1e6)
	fmt.Printf("shared: %d chunks fetched, %d from node cache (cross-image dedup)\n",
		first.Shared.ChunksFetched, first.Shared.CacheHits)
	fmt.Printf("warm:   %d chunks fetched (second replica boots from the node cache)\n",
		first.Warm.ChunksFetched)
	fmt.Printf("metrics bit-identical across workers %v: %v\n", workerSweep, workersEqual)
}
