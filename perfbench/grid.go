package main

// grid-durable: smart-grid ingest into a kvstore.DurableStore, then
// billing and a crash recovery.
//
// The store has 4 pinned shards on a 2 MiB-EPC platform (as kv-bench), so
// it pages once it grows. Ingest runs gridTicks smartgrid.Fleet ticks;
// each tick does one PutBatch of the fleet's readings plus a GetBatch of
// the previous tick's readings for gridSampled seeded meters. Every
// gridSnapshotEvery ticks it runs Snapshot and GC; the last ticks leave a
// WAL tail no snapshot covers. Then a Range scan feeds ParallelSecureEngine
// feeder billing, and last RecoverDurableStore runs on a fresh node with a
// cold blob cache. Loads kvstore, registry and mapreduce, with reads beside
// writes and periodic snapshot stalls; wire stays idle. One goroutine
// drives it: the store and the engine fan out internally.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"securecloud/internal/container"
	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/kvstore"
	"securecloud/internal/mapreduce"
	"securecloud/internal/registry"
	"securecloud/internal/shield"
	"securecloud/internal/smartgrid"
)

const (
	gridMeters        = 100
	gridPerFeeder     = 10
	gridTicksPerDay   = 288
	gridTicks         = 1160 // 24 snapshots, then an 8-tick WAL tail
	gridSnapshotEvery = 48
	gridSampled       = 16 // meters read back per tick
	hoursPerTick      = 24.0 / gridTicksPerDay
	// gridSetupReps pipelines are built per round (the last one runs): a
	// build takes milliseconds, so set-up is sampled several times.
	gridSetupReps = 8
)

// gridPlatform is the shrunk per-shard platform: 2 MiB of EPC, so the
// store pages.
func gridPlatform() enclave.Config {
	return enclave.Config{
		EPCBytes:         2 << 20,
		EPCReservedBytes: 512 << 10,
		LLCBytes:         256 << 10,
		LLCWays:          8,
		LineSize:         64,
		PageSize:         4096,
	}
}

// gridNode is a node's pull engine with an empty blob cache.
func gridNode(reg *registry.Registry) *container.Engine {
	eng := container.NewEngine(enclave.NewPlatform(enclave.Config{}), shield.NewHost(), reg, nil)
	eng.Cache = container.NewBlobCache()
	return eng
}

func readingKey(r smartgrid.Reading) string {
	return fmt.Sprintf("%s|%s|%06d", r.Feeder, r.MeterID, r.Tick)
}

func encodeKW(kw float64) []byte {
	var v [8]byte
	binary.LittleEndian.PutUint64(v[:], math.Float64bits(kw))
	return v[:]
}

func decodeKW(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

func storeCycles(ds *kvstore.DurableStore) uint64 { return uint64(ds.Cycles()) }

// gridStack is one built pipeline: the durable store on its registry and
// node, the billing engine, and the metering fleet.
type gridStack struct {
	cfg    kvstore.DurableConfig
	reg    *registry.Registry
	ds     *kvstore.DurableStore
	engine *mapreduce.ParallelSecureEngine
	fleet  *smartgrid.Fleet
}

func buildGrid(seed int64) (*gridStack, error) {
	sealKey, err := cryptbox.DeriveKey(cryptbox.Key{0x6D}, fmt.Sprintf("perfbench-grid|%d", seed))
	if err != nil {
		return nil, err
	}
	reg := registry.New()
	cfg := kvstore.DurableConfig{
		Shards: 4, Seed: seed, Platform: gridPlatform(), ShardBytes: 32 << 20,
		Service: "perfbench/grid", SealKey: sealKey,
		Registry: reg, Engine: gridNode(reg),
	}
	ds, err := kvstore.NewDurableStore(cfg)
	if err != nil {
		return nil, err
	}
	engine, err := mapreduce.NewParallelSecureEngine(cryptbox.Key{0x77}, mapreduce.ParallelConfig{
		Workers: 4, Platform: gridPlatform(), WorkerBytes: 16 << 20,
	})
	if err != nil {
		return nil, err
	}
	fleet := smartgrid.NewFleet(smartgrid.FleetConfig{
		Seed: seed, Meters: gridMeters, MetersPerFeeder: gridPerFeeder,
		TicksPerDay: gridTicksPerDay, BaseLoadKW: 0.8,
	})
	return &gridStack{cfg: cfg, reg: reg, ds: ds, engine: engine, fleet: fleet}, nil
}

func runGrid(seed int64, tr *tracer) (*round, error) {
	r := &round{det: map[string]float64{}, layer: map[string]float64{}}
	var g *gridStack
	for i := 0; i < gridSetupReps; i++ {
		if g != nil {
			g.engine.Close()
		}
		if err := r.timeSetup(func() (err error) {
			g, err = buildGrid(seed)
			return err
		}); err != nil {
			return nil, err
		}
	}
	defer g.engine.Close()
	cfg, reg, ds, engine, fleet := g.cfg, g.reg, g.ds, g.engine, g.fleet
	rng := rand.New(rand.NewSource(seed))

	readBack := &check{name: "grid.read_back"}
	billing := &check{name: "grid.billing_equals_plain_sum"}
	scanned := &check{name: "grid.scan_count"}
	recovered := &check{name: "grid.recovered_digest"}
	plainKWh := map[string]float64{}
	var prev []smartgrid.Reading
	var putCycles, getCycles, userBytes, snapBytes, gcBytes uint64
	readings, gets, snapshots, packed, reused := 0, 0, 0, 0, 0
	c0, f0 := storeCycles(ds), ds.Faults()

	var lat []float64
	meter := startPhase(r, &lat, &readings)
	for tick := int64(0); tick < gridTicks; tick++ {
		var key string
		if tr != nil {
			key = fmt.Sprintf("tick:%d", tick)
		}
		root := tr.start(0, "bench.tick", key)
		rs, _ := fleet.Tick(tick)
		batch := make([]kvstore.Pair, len(rs))
		for i, rd := range rs {
			batch[i] = kvstore.Pair{Key: readingKey(rd), Value: encodeKW(rd.PowerKW)}
			userBytes += uint64(len(batch[i].Key) + len(batch[i].Value))
			plainKWh[rd.Feeder] += rd.PowerKW * hoursPerTick
		}

		// The write path: PutBatch, plus the snapshot and GC it triggers.
		t := time.Now()
		cb := storeCycles(ds)
		sp := tr.start(root.id, "kvstore.put", key)
		err := ds.PutBatch(batch)
		sp.end()
		putCycles += storeCycles(ds) - cb
		if err != nil {
			r.errors += len(batch)
		} else {
			readings += len(batch)
		}
		if (tick+1)%gridSnapshotEvery == 0 {
			sp := tr.start(root.id, "kvstore.snapshot", key)
			st, err := ds.Snapshot()
			sp.end()
			if err != nil {
				r.errors++
			}
			snapshots++
			packed += st.ShardsPacked
			reused += st.ShardsReused
			snapBytes += uint64(st.BytesPublished)
			sp = tr.start(root.id, "kvstore.gc", key)
			g := ds.GC()
			sp.end()
			gcBytes += uint64(g.BytesRetired)
		}
		lat = append(lat, float64(time.Since(t).Nanoseconds())/1e3)

		// Reads beside the writes: the previous tick's readings of a
		// seeded sample of meters.
		if prev != nil {
			keys := make([]string, gridSampled)
			want := make([]float64, gridSampled)
			for i := range keys {
				rd := prev[rng.Intn(len(prev))]
				keys[i], want[i] = readingKey(rd), rd.PowerKW
			}
			cb := storeCycles(ds)
			sp := tr.start(root.id, "kvstore.get", key)
			vals, err := ds.GetBatch(keys)
			sp.end()
			getCycles += storeCycles(ds) - cb
			gets += len(keys)
			if err != nil {
				r.errors++
			} else {
				for i, v := range vals {
					readBack.observe(len(v) == 8 && decodeKW(v) == want[i], "tick %d: %s read back wrong", tick, keys[i])
				}
			}
		}
		prev = rs
		root.end()
	}
	// One window: the ingest slows as the store grows, so parts of it are
	// not comparable with each other.
	meter.lap()
	c1, f1 := storeCycles(ds), ds.Faults()
	var walBytes uint64
	for _, segs := range ds.WALSegments() {
		for _, s := range segs {
			walBytes += uint64(len(s.Bytes))
		}
	}
	walBytes += gcBytes

	// Billing: scan the store, then per-feeder kWh on the secure engine.
	tb := time.Now()
	broot := tr.start(0, "bench.batch", "batch")
	sp := tr.start(broot.id, "kvstore.scan", "batch")
	day, err := ds.Range("", "")
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("scan: %w", err)
	}
	scanned.observe(len(day) == readings, "scan returned %d pairs, ingested %d", len(day), readings)
	input := make([]mapreduce.KV, len(day))
	for i, p := range day {
		input[i] = mapreduce.KV{Key: p.Key, Value: p.Value}
	}
	sp = tr.start(broot.id, "mapreduce.run", "batch")
	totals, err := engine.Run(mapreduce.Job{
		Name:  "feeder-billing",
		Input: input,
		Map: func(key string, value []byte, emit func(string, []byte)) {
			emit(key[:strings.IndexByte(key, '|')], value)
		},
		Reduce: func(key string, values [][]byte) ([]byte, error) {
			var kwh float64
			for _, v := range values {
				kwh += decodeKW(v) * hoursPerTick
			}
			return encodeKW(kwh), nil
		},
		Reducers: 8,
	})
	sp.end()
	broot.end()
	r.layer["batch_s"] = time.Since(tb).Seconds()
	if err != nil {
		return nil, fmt.Errorf("billing: %w", err)
	}
	billing.observe(len(totals) == len(plainKWh), "billing has %d feeders, want %d", len(totals), len(plainKWh))
	var billedKWh float64
	for _, f := range sortedKeys(plainKWh) {
		got, want := decodeKW(totals[f]), plainKWh[f]
		billedKWh += got
		// The engine sums in shuffle order, the plain sum in tick order.
		billing.observe(math.Abs(got-want) <= 1e-9*math.Abs(want), "feeder %s billed %v kWh, plain sum %v", f, got, want)
	}
	mr := engine.Stats()

	// Crash recovery on a fresh node: cold cache, snapshot chain plus the
	// WAL tail, verified against the live store's digest.
	trc := time.Now()
	rroot := tr.start(0, "bench.recover", "recover")
	sp = tr.start(rroot.id, "kvstore.recover", "recover")
	cfgB := cfg
	cfgB.Engine = gridNode(reg)
	rec, rst, err := kvstore.RecoverDurableStore(cfgB, ds.WALSegments())
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	got, err := rec.StateDigest()
	if err != nil {
		return nil, err
	}
	rroot.end()
	r.layer["recover_s"] = time.Since(trc).Seconds()
	want, err := ds.StateDigest()
	if err != nil {
		return nil, err
	}
	recovered.observe(got == want, "recovered digest differs from the live store's")

	r.attempted = gridTicks * gridMeters
	r.checks = []*check{readBack, scanned, billing, recovered}
	ops := float64(readings)
	r.det = map[string]float64{
		"readings":                             ops,
		"gets":                                 float64(gets),
		"snapshots":                            float64(snapshots),
		"billed_kwh":                           billedKWh,
		"sim_cycles_per_op":                    ratio(float64(c1-c0), ops),
		"enclave.faults_per_op":                ratio(float64(f1-f0), ops),
		"kvstore.cycles_per_put":               ratio(float64(putCycles), ops),
		"kvstore.cycles_per_get":               ratio(float64(getCycles), float64(gets)),
		"kvstore.wal_bytes_per_user_byte":      ratio(float64(walBytes), float64(userBytes)),
		"kvstore.snapshot_bytes_per_user_byte": ratio(float64(snapBytes), float64(userBytes)),
		"kvstore.shards_reused_frac":           ratio(float64(reused), float64(packed+reused)),
		"kvstore.gc_bytes_retired":             float64(gcBytes),
		"kvstore.recover_chunks_fetched":       float64(rst.ChunksFetched),
		"kvstore.replay_records":               float64(rst.RecordsReplayed),
		"kvstore.recover_cycles":               float64(rst.SnapshotBootstrapCycles + rst.LogReplayCycles),
		"mapreduce.map_cycles":                 float64(mr.MapSerialCycles),
		"mapreduce.reduce_cycles":              float64(mr.ReduceSerialCycles),
		"mapreduce.sim_speedup":                ratio(float64(mr.MapSerialCycles+mr.ReduceSerialCycles), float64(mr.MapCriticalCycles+mr.ReduceCriticalCycles)),
	}
	return r, nil
}
