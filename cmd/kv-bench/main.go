// Command kv-bench drives the sharded secure key/value store and the
// parallel secure map/reduce engine — the storage and compute analogues of
// the sharded SCBR broker — and reports both wall-clock (simulator speed)
// and simulated metrics (modeled costs).
//
// Two workloads run:
//
//  1. A batch key/value workload: PutBatch then GetBatch over a store that
//     exceeds each shard's EPC, reporting per-shard sim-cycle totals, the
//     serial-sum vs critical-path decomposition (the shard-per-core
//     scaling statement), and fault counts.
//  2. A smartgrid-billing end-to-end pipeline: a simulated metering fleet
//     streams readings into the sharded store in per-tick batches, the
//     full day is scanned back out, and per-feeder consumption is
//     aggregated by the parallel secure map/reduce engine with a sealed
//     shuffle.
//
// Every simulated metric is deterministic: shard and worker-enclave counts
// are topology parameters (pinned per run), execution parallelism never
// changes totals. The command exits nonzero when the sharded store's
// results diverge from the sequential store; the -json output's
// "deterministic" object is gated by cmd/bench-check in CI.
//
// Usage:
//
//	kv-bench [-records N] [-shards P] [-workers W] [-ticks T] [-meters M] [-json]
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/kvstore"
	"securecloud/internal/mapreduce"
	"securecloud/internal/sim"
	"securecloud/internal/smartgrid"
)

// shardPlatform is the shrunken per-shard platform: a 2 MiB EPC so the
// default workload is swap-bound — the regime where sharding matters.
func shardPlatform() enclave.Config {
	return enclave.Config{
		EPCBytes:         2 << 20,
		EPCReservedBytes: 512 << 10,
		LLCBytes:         256 << 10,
		LLCWays:          8,
		LineSize:         64,
		PageSize:         4096,
	}
}

// phase is the serial/critical decomposition of one batch phase across
// shards or workers.
type phase struct {
	WallNS        int64   `json:"wall_ns"`
	SerialCycles  uint64  `json:"sim_cycles_serial"`
	CritCycles    uint64  `json:"sim_cycles_critical"`
	SimSpeedup    float64 `json:"sim_speedup"`
	Faults        uint64  `json:"faults"`
	CyclesPerOp   float64 `json:"sim_cycles_per_op"`
	OpsInPhase    int     `json:"ops"`
	FaultsPerKOps float64 `json:"faults_per_kop"`
}

func decompose(before, after []sim.Cycles, faults uint64, ops int, wall time.Duration) phase {
	var sum, max uint64
	for i := range after {
		d := uint64(after[i] - before[i])
		sum += d
		if d > max {
			max = d
		}
	}
	sp := 1.0
	if max > 0 {
		sp = float64(sum) / float64(max)
	}
	p := phase{
		WallNS:       wall.Nanoseconds(),
		SerialCycles: sum,
		CritCycles:   max,
		SimSpeedup:   sp,
		Faults:       faults,
		OpsInPhase:   ops,
	}
	if ops > 0 {
		p.CyclesPerOp = float64(sum) / float64(ops)
		p.FaultsPerKOps = 1000 * float64(faults) / float64(ops)
	}
	return p
}

func main() {
	records := flag.Int("records", 16000, "records in the key/value workload")
	shards := flag.Int("shards", 4, "store shards (topology: pin when comparing runs)")
	workers := flag.Int("workers", 0, "batch fan-out workers (execution only; 0 = GOMAXPROCS)")
	mrWorkers := flag.Int("mr-workers", 4, "map/reduce worker enclaves (topology)")
	reducers := flag.Int("reducers", 8, "shuffle partitions")
	ticks := flag.Int64("ticks", 96, "smartgrid ticks ingested")
	meters := flag.Int("meters", 200, "smartgrid fleet size")
	seed := flag.Int64("seed", 42, "workload seed")
	jsonOut := flag.Bool("json", false, "emit results as JSON")
	flag.Parse()

	out := struct {
		Config struct {
			Records   int   `json:"records"`
			Shards    int   `json:"shards"`
			MRWorkers int   `json:"mr_workers"`
			Reducers  int   `json:"reducers"`
			Ticks     int64 `json:"ticks"`
			Meters    int   `json:"meters"`
			Seed      int64 `json:"seed"`
		} `json:"config"`
		KV struct {
			Put              phase `json:"put"`
			Get              phase `json:"get"`
			ResultsMatch     bool  `json:"results_match_plain"`
			StoreFootprintMB int   `json:"store_records"`
		} `json:"kv"`
		Smartgrid struct {
			Ingest          phase   `json:"ingest"`
			Scan            phase   `json:"scan"`
			MapPhase        phase   `json:"map"`
			ReducePhase     phase   `json:"reduce"`
			Readings        int     `json:"readings"`
			Feeders         int     `json:"feeders"`
			TotalKWh        float64 `json:"total_kwh"`
			MapReduceWallNS int64   `json:"wall_ns_mapreduce"`
			WallNSTotals    int64   `json:"wall_ns_total"`
		} `json:"smartgrid_billing"`
		Deterministic map[string]float64 `json:"deterministic"`
	}{}
	out.Config.Records = *records
	out.Config.Shards = *shards
	out.Config.MRWorkers = *mrWorkers
	out.Config.Reducers = *reducers
	out.Config.Ticks = *ticks
	out.Config.Meters = *meters
	out.Config.Seed = *seed
	out.Deterministic = make(map[string]float64)

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "kv-bench: %v\n", err)
		os.Exit(1)
	}

	// ---- Workload 1: batch key/value over the sharded store ----
	var key cryptbox.Key
	key[0] = 0x5C
	ss, err := kvstore.NewShardedStore(key, kvstore.ShardedStoreConfig{
		Shards:     *shards,
		Workers:    *workers,
		Seed:       *seed,
		Accounted:  true,
		Platform:   shardPlatform(),
		ShardBytes: 32 << 20,
	})
	if err != nil {
		fail(err)
	}
	pairs := make([]kvstore.Pair, *records)
	rng := sim.NewRand(*seed)
	for i := range pairs {
		val := make([]byte, 200+(i%7)*40)
		rng.Read(val)
		pairs[i] = kvstore.Pair{Key: fmt.Sprintf("rec-%08d", (i*2654435761)%*records), Value: val}
	}
	keys := make([]string, len(pairs))
	for i, p := range pairs {
		keys[i] = p.Key
	}

	before := ss.ShardCycles()
	f0 := ss.Faults()
	start := time.Now()
	if err := ss.PutBatch(pairs); err != nil {
		fail(err)
	}
	out.KV.Put = decompose(before, ss.ShardCycles(), ss.Faults()-f0, len(pairs), time.Since(start))

	before = ss.ShardCycles()
	f0 = ss.Faults()
	start = time.Now()
	got, err := ss.GetBatch(keys)
	if err != nil {
		fail(err)
	}
	out.KV.Get = decompose(before, ss.ShardCycles(), ss.Faults()-f0, len(keys), time.Since(start))
	out.KV.StoreFootprintMB = ss.Len()

	// Self-check against the sequential reference store.
	plain, err := kvstore.NewStore(key, kvstore.Options{Seed: *seed})
	if err != nil {
		fail(err)
	}
	if err := plain.PutBatch(pairs); err != nil {
		fail(err)
	}
	want, err := plain.GetBatch(keys)
	if err != nil {
		fail(err)
	}
	out.KV.ResultsMatch = len(got) == len(want)
	for i := range got {
		if !out.KV.ResultsMatch {
			break
		}
		if string(got[i]) != string(want[i]) {
			out.KV.ResultsMatch = false
		}
	}
	if !out.KV.ResultsMatch {
		fail(fmt.Errorf("sharded store results diverged from the sequential store"))
	}

	out.Deterministic["kv_put_sim_cycles_serial"] = float64(out.KV.Put.SerialCycles)
	out.Deterministic["kv_put_sim_cycles_critical"] = float64(out.KV.Put.CritCycles)
	out.Deterministic["kv_put_faults"] = float64(out.KV.Put.Faults)
	out.Deterministic["kv_get_sim_cycles_serial"] = float64(out.KV.Get.SerialCycles)
	out.Deterministic["kv_get_sim_cycles_critical"] = float64(out.KV.Get.CritCycles)
	out.Deterministic["kv_get_faults"] = float64(out.KV.Get.Faults)

	// ---- Workload 2: smartgrid billing end to end ----
	e2eStart := time.Now()
	fleet := smartgrid.NewFleet(smartgrid.FleetConfig{
		Seed:            *seed,
		Meters:          *meters,
		MetersPerFeeder: 50,
		TicksPerDay:     288,
		BaseLoadKW:      0.8,
	})
	gridStore, err := kvstore.NewShardedStore(key, kvstore.ShardedStoreConfig{
		Shards:     *shards,
		Workers:    *workers,
		Seed:       *seed + 1,
		Accounted:  true,
		Platform:   shardPlatform(),
		ShardBytes: 32 << 20,
	})
	if err != nil {
		fail(err)
	}

	// Ingest: one PutBatch per tick — meters → kvstore.
	nReadings := 0
	before = gridStore.ShardCycles()
	f0 = gridStore.Faults()
	start = time.Now()
	for tick := int64(0); tick < *ticks; tick++ {
		readings, _ := fleet.Tick(tick)
		batch := make([]kvstore.Pair, len(readings))
		for i, r := range readings {
			var v [8]byte
			binary.LittleEndian.PutUint64(v[:], math.Float64bits(r.PowerKW))
			batch[i] = kvstore.Pair{
				Key:   fmt.Sprintf("%s|%s|%06d", r.Feeder, r.MeterID, tick),
				Value: v[:],
			}
		}
		nReadings += len(batch)
		if err := gridStore.PutBatch(batch); err != nil {
			fail(err)
		}
	}
	out.Smartgrid.Ingest = decompose(before, gridStore.ShardCycles(), gridStore.Faults()-f0, nReadings, time.Since(start))
	out.Smartgrid.Readings = nReadings

	// Scan the day back out of the store.
	before = gridStore.ShardCycles()
	f0 = gridStore.Faults()
	start = time.Now()
	day, err := gridStore.Range("", "")
	if err != nil {
		fail(err)
	}
	out.Smartgrid.Scan = decompose(before, gridStore.ShardCycles(), gridStore.Faults()-f0, len(day), time.Since(start))

	// Aggregate per-feeder consumption with the parallel secure engine.
	input := make([]mapreduce.KV, len(day))
	for i, p := range day {
		input[i] = mapreduce.KV{Key: p.Key, Value: p.Value}
	}
	var rootKey cryptbox.Key
	rootKey[0] = 0x77
	engine, err := mapreduce.NewParallelSecureEngine(rootKey, mapreduce.ParallelConfig{
		Workers:     *mrWorkers,
		Platform:    shardPlatform(),
		WorkerBytes: 16 << 20,
	})
	if err != nil {
		fail(err)
	}
	defer engine.Close()
	const hoursPerTick = 24.0 / 288
	job := mapreduce.Job{
		Name:  "feeder-billing",
		Input: input,
		Map: func(key string, value []byte, emit func(string, []byte)) {
			feeder := key[:strings.IndexByte(key, '|')]
			emit(feeder, value)
		},
		Reduce: func(key string, values [][]byte) ([]byte, error) {
			var kwh float64
			for _, v := range values {
				kwh += math.Float64frombits(binary.LittleEndian.Uint64(v)) * hoursPerTick
			}
			var outv [8]byte
			binary.LittleEndian.PutUint64(outv[:], math.Float64bits(kwh))
			return outv[:], nil
		},
		Reducers: *reducers,
	}
	start = time.Now()
	totals, err := engine.Run(job)
	if err != nil {
		fail(err)
	}
	out.Smartgrid.MapReduceWallNS = time.Since(start).Nanoseconds()
	st := engine.Stats()
	out.Smartgrid.MapPhase = phase{
		SerialCycles: uint64(st.MapSerialCycles),
		CritCycles:   uint64(st.MapCriticalCycles),
		SimSpeedup:   st.MapSpeedup(),
		Faults:       st.MapFaults,
		OpsInPhase:   len(input),
	}
	out.Smartgrid.ReducePhase = phase{
		SerialCycles: uint64(st.ReduceSerialCycles),
		CritCycles:   uint64(st.ReduceCriticalCycles),
		SimSpeedup:   st.ReduceSpeedup(),
		Faults:       st.ReduceFaults,
		OpsInPhase:   len(totals),
	}
	out.Smartgrid.Feeders = len(totals)
	feeders := make([]string, 0, len(totals))
	for f := range totals {
		feeders = append(feeders, f)
	}
	sort.Strings(feeders)
	for _, f := range feeders {
		out.Smartgrid.TotalKWh += math.Float64frombits(binary.LittleEndian.Uint64(totals[f]))
	}
	out.Smartgrid.WallNSTotals = time.Since(e2eStart).Nanoseconds()

	out.Deterministic["grid_ingest_sim_cycles_serial"] = float64(out.Smartgrid.Ingest.SerialCycles)
	out.Deterministic["grid_ingest_faults"] = float64(out.Smartgrid.Ingest.Faults)
	out.Deterministic["grid_scan_sim_cycles_serial"] = float64(out.Smartgrid.Scan.SerialCycles)
	out.Deterministic["grid_map_sim_cycles_serial"] = float64(st.MapSerialCycles)
	out.Deterministic["grid_map_sim_cycles_critical"] = float64(st.MapCriticalCycles)
	out.Deterministic["grid_reduce_sim_cycles_serial"] = float64(st.ReduceSerialCycles)
	out.Deterministic["grid_reduce_sim_cycles_critical"] = float64(st.ReduceCriticalCycles)
	out.Deterministic["grid_map_faults"] = float64(st.MapFaults)
	out.Deterministic["grid_reduce_faults"] = float64(st.ReduceFaults)
	out.Deterministic["grid_total_kwh"] = math.Round(out.Smartgrid.TotalKWh*1e6) / 1e6

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fail(err)
		}
		return
	}
	fmt.Printf("kv: %d records across %d shards\n", len(pairs), *shards)
	fmt.Printf("  put: %d sim-cycles serial, %d critical (%.2fx shard-per-core), %d faults, %.1fms wall\n",
		out.KV.Put.SerialCycles, out.KV.Put.CritCycles, out.KV.Put.SimSpeedup,
		out.KV.Put.Faults, float64(out.KV.Put.WallNS)/1e6)
	fmt.Printf("  get: %d sim-cycles serial, %d critical (%.2fx), %d faults, %.1fms wall\n",
		out.KV.Get.SerialCycles, out.KV.Get.CritCycles, out.KV.Get.SimSpeedup,
		out.KV.Get.Faults, float64(out.KV.Get.WallNS)/1e6)
	fmt.Printf("  results match sequential store: %v\n", out.KV.ResultsMatch)
	fmt.Printf("smartgrid billing: %d readings, %d feeders, %.3f kWh total\n",
		out.Smartgrid.Readings, out.Smartgrid.Feeders, out.Smartgrid.TotalKWh)
	fmt.Printf("  ingest: %d sim-cycles (%.2fx), %d faults\n",
		out.Smartgrid.Ingest.SerialCycles, out.Smartgrid.Ingest.SimSpeedup, out.Smartgrid.Ingest.Faults)
	fmt.Printf("  map:    %d sim-cycles serial, %d critical (%.2fx enclave-per-worker)\n",
		out.Smartgrid.MapPhase.SerialCycles, out.Smartgrid.MapPhase.CritCycles, out.Smartgrid.MapPhase.SimSpeedup)
	fmt.Printf("  reduce: %d sim-cycles serial, %d critical (%.2fx)\n",
		out.Smartgrid.ReducePhase.SerialCycles, out.Smartgrid.ReducePhase.CritCycles, out.Smartgrid.ReducePhase.SimSpeedup)
	fmt.Printf("  end-to-end wall: %.1fms\n", float64(out.Smartgrid.WallNSTotals)/1e6)
}
