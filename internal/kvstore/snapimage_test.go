package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"securecloud/internal/container"
	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/registry"
	"securecloud/internal/shield"
)

// recordedFixture is newDurableFixture behind a tamperStore, which records
// every leaf the store publishes.
func recordedFixture(t testing.TB, shards, workers int) (*DurableStore, *tamperStore) {
	t.Helper()
	reg := registry.New()
	ts := &tamperStore{Registry: reg}
	eng := container.NewEngine(enclave.NewPlatform(enclave.Config{}), shield.NewHost(), reg, nil)
	eng.Cache = container.NewBlobCache()
	eng.PullWorkers = workers
	sealKey, err := cryptbox.KeyFromBytes(bytes.Repeat([]byte{0xD1}, cryptbox.KeySize))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDurableStore(DurableConfig{
		Shards: shards, Workers: workers, Seed: 99,
		Service: "test/durable", SealKey: sealKey,
		Registry: ts, Engine: eng,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds, ts
}

// TestSnapshotChunkLocality: one insert into a shard of 1,200 records
// re-seals at most 3 chunks, and reading them costs under a tenth of what
// re-reading the whole shard costs a twin taking SnapshotFull.
func TestSnapshotChunkLocality(t *testing.T) {
	load := func(ds *DurableStore) {
		for b := 0; b < 12; b++ {
			batch := make([]Pair, 100)
			for j := range batch {
				batch[j] = Pair{Key: fmt.Sprintf("m%03d|%04d", j, b), Value: bytes.Repeat([]byte{byte(b)}, 16)}
			}
			if err := ds.PutBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ds.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if err := ds.PutBatch([]Pair{{Key: "m050|0005x", Value: []byte("inserted")}}); err != nil {
			t.Fatal(err)
		}
	}
	ds, _ := newDurableFixture(t, 1, 1)
	twin, _ := newDurableFixture(t, 1, 1)
	load(ds)
	load(twin)
	if ds.Len() < 1000 {
		t.Fatalf("shard holds %d records", ds.Len())
	}
	delta, err := ds.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	full, err := twin.SnapshotFull()
	if err != nil {
		t.Fatal(err)
	}
	if delta.ChunksSealed < 1 || delta.ChunksSealed > 3 {
		t.Fatalf("one insert re-sealed %d chunks", delta.ChunksSealed)
	}
	if delta.ChunksPublished < 20 || delta.ChunksDeduped < delta.ChunksPublished-delta.ChunksSealed {
		t.Fatalf("delta listed %d chunks, %d deduped", delta.ChunksPublished, delta.ChunksDeduped)
	}
	if full.ChunksSealed != full.ChunksPublished {
		t.Fatalf("full snapshot sealed %d of %d chunks", full.ChunksSealed, full.ChunksPublished)
	}
	if delta.PackCycles == 0 || 10*delta.PackCycles >= full.PackCycles {
		t.Fatalf("delta pack %d cycles, full %d", delta.PackCycles, full.PackCycles)
	}
	if delta.BytesPublished >= full.BytesPublished/10 {
		t.Fatalf("delta published %d bytes, full %d", delta.BytesPublished, full.BytesPublished)
	}
	got, err := ds.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := RecoverDurableStore(coldNode(ds.cfg), ds.WALSegments())
	if err != nil {
		t.Fatal(err)
	}
	if want, err := rec.StateDigest(); err != nil || got != want {
		t.Fatalf("recovered digest differs: %v", err)
	}
}

// historyEvent is one step of a seeded store history.
type historyEvent struct {
	puts    []Pair
	deletes []string
	snap    bool
	gc      bool
}

// genHistory builds a seeded put/delete history with interleaved snapshots
// and GC passes. Midway it deletes a whole key prefix, emptying chunks
// (and, at high shard counts, whole shards).
func genHistory(seed int64) []historyEvent {
	rng := rand.New(rand.NewSource(seed))
	var h []historyEvent
	for step := 0; step < 48; step++ {
		var ev historyEvent
		switch {
		case step == 24:
			for k := 0; k < 60; k++ {
				ev.deletes = append(ev.deletes, fmt.Sprintf("k%04d", k))
			}
		case rng.Intn(4) == 0:
			for n := 1 + rng.Intn(5); n > 0; n-- {
				ev.deletes = append(ev.deletes, fmt.Sprintf("k%04d", rng.Intn(160)))
			}
		default:
			for n := 5 + rng.Intn(20); n > 0; n-- {
				v := make([]byte, 8+rng.Intn(40))
				rng.Read(v)
				ev.puts = append(ev.puts, Pair{Key: fmt.Sprintf("k%04d", rng.Intn(160)), Value: v})
			}
		}
		ev.snap = step%5 == 4
		ev.gc = step%11 == 10
		h = append(h, ev)
	}
	return h
}

// applyHistory replays h into ds and returns every snapshot's stats.
func applyHistory(t testing.TB, ds *DurableStore, h []historyEvent) []SnapshotStats {
	t.Helper()
	var stats []SnapshotStats
	for _, ev := range h {
		if err := ds.PutBatch(ev.puts); err != nil {
			t.Fatal(err)
		}
		for _, k := range ev.deletes {
			if _, err := ds.Delete(k); err != nil {
				t.Fatal(err)
			}
		}
		if ev.snap {
			st, err := ds.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			stats = append(stats, st)
		}
		if ev.gc {
			ds.GC()
		}
	}
	return stats
}

// snapshotLeaves runs one Snapshot and returns its stats and the leaves it
// listed, in publish order.
func snapshotLeaves(t testing.TB, ds *DurableStore, ts *tamperStore) (SnapshotStats, []cryptbox.Digest) {
	t.Helper()
	n := len(ts.leaves)
	st, err := ds.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return st, append([]cryptbox.Digest(nil), ts.leaves[n:]...)
}

// TestDurableIncrementalSnapshotProperty: over seeded put/delete histories
// with interleaved snapshots and GC, at shard counts {1,2,4,8},
//   - recovery from the incremental chain equals the live StateDigest;
//   - the first snapshot after the crash lists the same leaves (and every
//     stat but the read cycles) as a never-crashed twin's next snapshot;
//   - every SnapshotStats field is bit-identical across worker counts.
func TestDurableIncrementalSnapshotProperty(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		for _, seed := range []int64{3, 17} {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				h := genHistory(seed)
				tail := []Pair{{Key: "k0003", Value: []byte("after")}, {Key: "k0158", Value: []byte("crash")}}
				var first []SnapshotStats
				for _, workers := range []int{1, 4} {
					ds, _ := recordedFixture(t, shards, workers)
					twin, twinTS := recordedFixture(t, shards, workers)
					stats := applyHistory(t, ds, h)
					if twinStats := applyHistory(t, twin, h); !reflect.DeepEqual(stats, twinStats) {
						t.Fatalf("twin stats differ:\n%+v\n%+v", stats, twinStats)
					}
					var sealed int
					for _, st := range stats[1:] {
						sealed += st.ChunksSealed
					}
					if sealed == 0 {
						t.Fatal("history re-sealed nothing after the first snapshot")
					}

					live, err := ds.StateDigest()
					if err != nil {
						t.Fatal(err)
					}
					rec, _, err := RecoverDurableStore(coldNode(ds.cfg), ds.WALSegments())
					if err != nil {
						t.Fatal(err)
					}
					if got, err := rec.StateDigest(); err != nil || got != live {
						t.Fatalf("recovered digest differs from live: %v", err)
					}

					recTS := &tamperStore{Registry: ds.cfg.Engine.Registry.(*registry.Registry)}
					rec.cfg.Registry = recTS
					for _, s := range []*DurableStore{rec, twin} {
						if err := s.PutBatch(tail); err != nil {
							t.Fatal(err)
						}
					}
					recSt, recLeaves := snapshotLeaves(t, rec, recTS)
					twinSt, twinLeaves := snapshotLeaves(t, twin, twinTS)
					// The recovered table sits at other simulated addresses
					// than the twin's, so only its read cycles may differ.
					cmp := recSt
					cmp.PackCycles = twinSt.PackCycles
					if cmp != twinSt || !reflect.DeepEqual(recLeaves, twinLeaves) {
						t.Fatalf("post-crash snapshot differs from the twin's:\n%+v (%d leaves)\n%+v (%d leaves)",
							recSt, len(recLeaves), twinSt, len(twinLeaves))
					}
					if recSt.ChunksSealed >= recSt.ChunksPublished && shards == 1 {
						t.Fatalf("post-crash snapshot re-sealed every chunk: %+v", recSt)
					}

					stats = append(stats, recSt)
					if first == nil {
						first = stats
					} else if !reflect.DeepEqual(stats, first) {
						t.Fatalf("snapshot stats differ across workers:\n%+v\n%+v", stats, first)
					}
				}
			})
		}
	}
}

// FuzzDecodeSnapshotChunk: the per-chunk record decoder must never panic,
// and whatever it accepts is ascending puts that re-encode to the input.
func FuzzDecodeSnapshotChunk(f *testing.F) {
	ck, err := newChunker(cryptbox.Key{0x44})
	if err != nil {
		f.Fatal(err)
	}
	var pairs []Pair
	for i := 0; i < 400; i++ {
		pairs = append(pairs, Pair{Key: fmt.Sprintf("key-%03d", i), Value: bytes.Repeat([]byte{byte(i)}, i%9)})
	}
	chunks, _, err := ck.cut(pairs)
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range chunks[:2] {
		f.Add(c)
		f.Add(c[:len(c)-1])
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0, 1, 'k'})                   // a delete
	f.Add([]byte{0, 0xFF, 0xFF, 'k'})             // key overruns
	f.Add([]byte{0, 0, 1, 'k', 0xFF, 0xFF, 0, 0}) // value overruns
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, err := decodeSnapshotChunk(data)
		if err != nil {
			return
		}
		var back []byte
		for i, op := range ops {
			if op.Delete || (i > 0 && op.Key <= ops[i-1].Key) {
				t.Fatalf("accepted op %d: %+v", i, op)
			}
			if back, err = appendWALOp(back, op); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(back, data) {
			t.Fatal("decoded chunk does not re-encode to its input")
		}
	})
}

// TestChunkBoundariesKeyed: boundaries depend on the key only, through a
// hash keyed per shard, so two snapshot keys cut the same records apart at
// different places.
func TestChunkBoundariesKeyed(t *testing.T) {
	var pairs []Pair
	for i := 0; i < 2000; i++ {
		pairs = append(pairs, Pair{Key: fmt.Sprintf("key-%05d", i), Value: []byte("v")})
	}
	firstsOf := func(k cryptbox.Key) []string {
		ck, err := newChunker(k)
		if err != nil {
			t.Fatal(err)
		}
		chunks, firsts, err := ck.cut(pairs)
		if err != nil {
			t.Fatal(err)
		}
		if len(chunks) < 2000/(4<<snapChunkMaskBits) || len(chunks) > 4*2000>>snapChunkMaskBits {
			t.Fatalf("%d records cut into %d chunks", len(pairs), len(chunks))
		}
		return firsts
	}
	a, b := firstsOf(cryptbox.Key{1}), firstsOf(cryptbox.Key{2})
	if reflect.DeepEqual(a, b) {
		t.Fatal("two snapshot keys cut identical boundaries")
	}
	// An extra record moves no boundary outside its own chunk.
	ck, _ := newChunker(cryptbox.Key{1})
	ins := append(append(append([]Pair(nil), pairs[:1000]...), Pair{Key: "key-00999x", Value: []byte("v")}), pairs[1000:]...)
	_, c, err := ck.cut(ins)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for _, f := range c {
		found := false
		for _, g := range a {
			if f == g {
				found = true
				break
			}
		}
		if !found {
			diff++
		}
	}
	if diff > 1 {
		t.Fatalf("one insert moved %d chunk starts", diff)
	}
}

// TestDurableShardEmptiesAndRefills: deleting every record publishes the
// empty shard as one zero-length chunk, which recovers to an empty table
// and takes new records again.
func TestDurableShardEmptiesAndRefills(t *testing.T) {
	ds, _ := newDurableFixture(t, 1, 1)
	var keys []string
	for i := 0; i < 300; i++ {
		keys = append(keys, fmt.Sprintf("k%04d", i))
		if err := ds.PutBatch([]Pair{{Key: keys[i], Value: []byte("v")}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ds.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if _, err := ds.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	st, err := ds.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if st.ChunksPublished != 1 || st.ChunksSealed != 1 || len(ds.index[0]) != 1 || ds.index[0][0].length != 0 {
		t.Fatalf("emptied shard published %+v, index %d chunks", st, len(ds.index[0]))
	}
	rec, _, err := RecoverDurableStore(coldNode(ds.cfg), ds.WALSegments())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 0 {
		t.Fatalf("recovered %d records from an empty shard", rec.Len())
	}
	if err := rec.PutBatch([]Pair{{Key: "again", Value: []byte("v")}}); err != nil {
		t.Fatal(err)
	}
	if st, err := rec.Snapshot(); err != nil || st.ShardsPacked != 1 || st.ChunksPublished != 1 {
		t.Fatalf("refill snapshot %+v, %v", st, err)
	}
	if v, err := rec.Get("again"); err != nil || string(v) != "v" {
		t.Fatalf("refilled read %q, %v", v, err)
	}
}

// TestDurablePutIsDurable: a single Put after a snapshot is logged and
// marks its chunk dirty, so the next snapshot packs it and recovery keeps
// it.
func TestDurablePutIsDurable(t *testing.T) {
	ds, cfg := newDurableFixture(t, 1, 1)
	if err := ds.PutBatch([]Pair{{Key: "logged", Value: []byte("v")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := ds.Put("single", []byte("w")); err != nil {
		t.Fatal(err)
	}
	if st, err := ds.Snapshot(); err != nil || st.ShardsPacked != 1 {
		t.Fatalf("snapshot after Put: %+v, %v", st, err)
	}
	rec, _, err := RecoverDurableStore(coldNode(cfg), ds.WALSegments())
	if err != nil {
		t.Fatal(err)
	}
	if v, err := rec.Get("single"); err != nil || string(v) != "w" {
		t.Fatalf("recovered Put: %q, %v", v, err)
	}
}
