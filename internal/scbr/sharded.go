package scbr

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"securecloud/internal/enclave"
	"securecloud/internal/sim"
)

// ShardedIndexConfig sizes a sharded containment index.
type ShardedIndexConfig struct {
	// Shards is the number of index shards (0 = GOMAXPROCS). The shard
	// count is a *topology* parameter: it decides where each subscription
	// lives and therefore every simulated figure. Fix it when comparing
	// runs; vary Workers freely instead.
	Shards int
	// Workers bounds the fan-out of one Match across shards
	// (0 = GOMAXPROCS). Purely an execution parameter — totals are
	// identical for any worker count.
	Workers int
	// PayloadBytes and CheckCost parameterise each shard's Index.
	PayloadBytes int
	CheckCost    sim.Cycles
	// Accounted builds each shard on its own simulated platform + enclave
	// (shard-per-core), sized ShardBytes, configured by Platform. With
	// Accounted false the shards are plain data structures.
	Accounted  bool
	Platform   enclave.Config
	ShardBytes uint64
}

// indexShard is one shard: an Index plus the reader/writer lock that makes
// the snapshot-read discipline safe. Matches hold the read side and use
// Index.MatchSnapshot (mutates nothing); Insert/Remove hold the write side.
type indexShard struct {
	mu  sync.RWMutex
	ix  *Index
	enc *enclave.Enclave
	mem *enclave.Memory // nil when unaccounted
}

// ShardedIndex is the concurrent form of the SCBR subscription store: the
// containment forest is partitioned into Shards independent Indexes keyed
// by subscription ID, each (when accounted) living in its own enclave on
// its own simulated platform — the shard-per-core deployment where every
// core runs one matcher replica against its slice of the filter set, as a
// partitioned broker cluster would across machines.
//
// Writes (Insert/Remove) lock only their shard. Match fans out across all
// shards through a bounded worker set; each per-shard match charges a
// read-only snapshot span, so concurrent matches never perturb one
// another's simulated costs: aggregate sim-cycles and faults are
// bit-identical for any interleaving and any worker count. Match results
// merge into ascending subscription-ID order — deterministic across runs
// and across shard counts.
type ShardedIndex struct {
	shards  []*indexShard
	workers int
	// snapChecks accumulates comparison counts from snapshot matches, which
	// cannot write the per-Index counter lock-free.
	snapChecks atomic.Uint64
}

// NewShardedIndex builds the sharded store.
func NewShardedIndex(cfg ShardedIndexConfig) (*ShardedIndex, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	sx := &ShardedIndex{workers: cfg.Workers}
	for i := 0; i < cfg.Shards; i++ {
		sh := &indexShard{}
		icfg := IndexConfig{PayloadBytes: cfg.PayloadBytes, CheckCost: cfg.CheckCost}
		if cfg.Accounted {
			if cfg.ShardBytes == 0 {
				return nil, fmt.Errorf("scbr: accounted sharded index needs ShardBytes")
			}
			enc, arena, err := enclave.NewWorker(cfg.Platform, cfg.ShardBytes, fmt.Sprintf("scbr-shard-%d", i))
			if err != nil {
				return nil, err
			}
			icfg.Mem = enc.Memory()
			icfg.Arena = arena
			sh.enc = enc
			sh.mem = enc.Memory()
		}
		sh.ix = NewIndex(icfg)
		sx.shards = append(sx.shards, sh)
	}
	return sx, nil
}

// shardFor maps a subscription ID to its home shard.
func (sx *ShardedIndex) shardFor(id uint64) *indexShard {
	return sx.shards[id%uint64(len(sx.shards))]
}

// Shards returns the shard count.
func (sx *ShardedIndex) Shards() int { return len(sx.shards) }

// Insert registers a subscription in its home shard.
func (sx *ShardedIndex) Insert(s Subscription) {
	sh := sx.shardFor(s.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.ix.Insert(s)
}

// Remove unregisters a subscription, reporting whether it was present.
func (sx *ShardedIndex) Remove(id uint64) bool {
	sh := sx.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.ix.Remove(id)
}

// forEachShard runs fn(i) for every shard index across at most sx.workers
// concurrent workers.
func (sx *ShardedIndex) forEachShard(fn func(int)) {
	sim.ParallelFor(len(sx.shards), sx.workers, fn)
}

// Match returns the IDs of all subscriptions matching e, in ascending ID
// order, matching every shard in parallel against a read-only snapshot.
// Safe for concurrent use with itself; Insert/Remove serialize against the
// affected shard only.
func (sx *ShardedIndex) Match(e Event) []uint64 {
	parts := make([][]uint64, len(sx.shards))
	var checks atomic.Uint64
	sx.forEachShard(func(i int) {
		sh := sx.shards[i]
		sh.mu.RLock()
		ids, ck := sh.ix.MatchSnapshot(e)
		sh.mu.RUnlock()
		parts[i] = ids
		checks.Add(ck)
	})
	sx.snapChecks.Add(checks.Load())
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]uint64, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	slices.Sort(out)
	return out
}

// MatchNaive checks every stored subscription without pruning (reference
// matcher), in ascending ID order. It takes each shard's write lock (the
// naive walk uses the mutating accounting path).
func (sx *ShardedIndex) MatchNaive(e Event) []uint64 {
	var out []uint64
	for _, sh := range sx.shards {
		sh.mu.Lock()
		out = append(out, sh.ix.MatchNaive(e)...)
		sh.mu.Unlock()
	}
	slices.Sort(out)
	return out
}

// Count returns the number of stored subscriptions.
func (sx *ShardedIndex) Count() int {
	n := 0
	for _, sh := range sx.shards {
		sh.mu.RLock()
		n += sh.ix.Count()
		sh.mu.RUnlock()
	}
	return n
}

// MemoryBytes returns the total simulated occupancy across shards.
func (sx *ShardedIndex) MemoryBytes() int64 {
	var n int64
	for _, sh := range sx.shards {
		sh.mu.RLock()
		n += sh.ix.MemoryBytes()
		sh.mu.RUnlock()
	}
	return n
}

// Checks returns the cumulative cover/match comparisons across shards,
// including snapshot matches.
func (sx *ShardedIndex) Checks() uint64 {
	n := sx.snapChecks.Load()
	for _, sh := range sx.shards {
		sh.mu.RLock()
		n += sh.ix.Checks()
		sh.mu.RUnlock()
	}
	return n
}

// Depth returns the maximum forest depth across shards.
func (sx *ShardedIndex) Depth() int {
	d := 0
	for _, sh := range sx.shards {
		sh.mu.RLock()
		if sd := sh.ix.Depth(); sd > d {
			d = sd
		}
		sh.mu.RUnlock()
	}
	return d
}

// RootFanout returns the total number of forest roots across shards.
func (sx *ShardedIndex) RootFanout() int {
	n := 0
	for _, sh := range sx.shards {
		sh.mu.RLock()
		n += sh.ix.RootFanout()
		sh.mu.RUnlock()
	}
	return n
}

// Cycles returns the total simulated cycles charged across all shard
// memories (zero when unaccounted). Order-independent under concurrent
// snapshot matches, so equal workloads report equal totals at any
// parallelism.
func (sx *ShardedIndex) Cycles() sim.Cycles {
	var n sim.Cycles
	for _, sh := range sx.shards {
		if sh.mem != nil {
			n += sh.mem.Cycles()
		}
	}
	return n
}

// Faults returns total page faults across shard memories.
func (sx *ShardedIndex) Faults() uint64 {
	var n uint64
	for _, sh := range sx.shards {
		if sh.mem != nil {
			n += sh.mem.Faults()
		}
	}
	return n
}

// ShardCycles returns each shard's simulated cycle total (benchmark hook:
// per-op deltas give the critical-path/serial decomposition).
func (sx *ShardedIndex) ShardCycles() []sim.Cycles {
	out := make([]sim.Cycles, len(sx.shards))
	for i, sh := range sx.shards {
		if sh.mem != nil {
			out[i] = sh.mem.Cycles()
		}
	}
	return out
}

// ResetAccounting zeroes every shard memory's ledger and fault counter.
func (sx *ShardedIndex) ResetAccounting() {
	for _, sh := range sx.shards {
		if sh.mem != nil {
			sh.mem.ResetAccounting()
		}
	}
}
