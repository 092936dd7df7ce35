package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/sim"
)

// ShardedStoreConfig sizes a sharded secure key/value store.
type ShardedStoreConfig struct {
	// Shards is the number of store shards (0 = GOMAXPROCS). The shard
	// count is a *topology* parameter: it decides where each key lives and
	// therefore every simulated figure. Fix it when comparing runs; vary
	// Workers freely instead.
	Shards int
	// Workers bounds the fan-out of one batch operation across shards
	// (0 = GOMAXPROCS). Purely an execution parameter — simulated totals
	// are identical for any worker count.
	Workers int
	// Seed fixes each shard's skip-list geometry (shard i uses Seed+i).
	Seed int64
	// Accounted builds each shard on its own simulated platform + enclave
	// (shard-per-core), sized ShardBytes, configured by Platform. With
	// Accounted false the shards are plain data structures.
	Accounted  bool
	Platform   enclave.Config
	ShardBytes uint64
}

// storeShard is one shard: a Store plus the reader/writer lock that makes
// the snapshot-read discipline safe. Reads hold the read side and use
// Store.GetSnapshot (mutates nothing); Put/Delete/Range hold the write
// side.
type storeShard struct {
	mu  sync.RWMutex
	st  *Store
	enc *enclave.Enclave
	mem *enclave.Memory // nil when unaccounted
}

// ShardedStore is the concurrent form of the secure structured data store:
// keys are partitioned by hash across Shards independent Stores, each
// (when accounted) living in its own enclave on its own simulated platform
// — the shard-per-core deployment where every core owns a slice of the key
// space, as a partitioned storage cluster would across machines.
//
// Writes (Put/Delete and each shard's slice of a PutBatch) lock only their
// home shard. Point reads charge read-only snapshot spans under the shard's
// read lock, so concurrent reads never perturb one another's simulated
// costs. Batch operations fan out across shards through a bounded worker
// set while applying each shard's sub-batch in slice order, so aggregate
// sim-cycles and faults are bit-identical for any interleaving and any
// worker count; only the shard count changes the figures.
type ShardedStore struct {
	shards  []*storeShard
	workers int
}

// NewShardedStore builds the sharded store; every shard seals with key.
func NewShardedStore(key cryptbox.Key, cfg ShardedStoreConfig) (*ShardedStore, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	ss := &ShardedStore{workers: cfg.Workers}
	for i := 0; i < cfg.Shards; i++ {
		sh := &storeShard{}
		var acct Accounting
		if cfg.Accounted {
			if cfg.ShardBytes == 0 {
				return nil, errors.New("kvstore: accounted sharded store needs ShardBytes")
			}
			enc, arena, err := enclave.NewWorker(cfg.Platform, cfg.ShardBytes, fmt.Sprintf("kv-shard-%d", i))
			if err != nil {
				return nil, err
			}
			acct = Accounting{Mem: enc.Memory(), Arena: arena}
			sh.enc = enc
			sh.mem = enc.Memory()
		}
		st, err := NewStore(key, Options{Seed: cfg.Seed + int64(i), Accounting: acct})
		if err != nil {
			return nil, err
		}
		sh.st = st
		ss.shards = append(ss.shards, sh)
	}
	return ss, nil
}

// shardOf maps a key to its home shard index: inlined FNV-1a over the
// string, allocation-free on the batch hot path.
func (ss *ShardedStore) shardOf(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(len(ss.shards)))
}

// Shards returns the shard count.
func (ss *ShardedStore) Shards() int { return len(ss.shards) }

// Put stores value under key in its home shard.
func (ss *ShardedStore) Put(key string, value []byte) error {
	sh := ss.shards[ss.shardOf(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.st.Put(key, value)
}

// Get returns the value stored under key, charged through a read-only
// snapshot span. Safe for concurrent use with itself and GetBatch;
// Put/Delete serialize against the home shard only.
func (ss *ShardedStore) Get(key string) ([]byte, error) {
	sh := ss.shards[ss.shardOf(key)]
	sh.mu.RLock()
	v, err := sh.st.GetSnapshot(key)
	sh.mu.RUnlock()
	return v, err
}

// Delete removes key; it reports whether the key existed.
func (ss *ShardedStore) Delete(key string) bool {
	sh := ss.shards[ss.shardOf(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.st.Delete(key)
}

// forEachShard runs fn(i) for every shard index across at most ss.workers
// concurrent workers.
func (ss *ShardedStore) forEachShard(fn func(int)) {
	sim.ParallelFor(len(ss.shards), ss.workers, fn)
}

// firstErr returns the lowest-shard-index error, so batch failures are
// deterministic regardless of worker interleaving.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// PutBatch stores every pair, fanning out across shards. Within one shard
// pairs apply in slice order — later duplicates win, exactly as the
// sequential Store.PutBatch — so the resulting state and each shard's
// simulated costs are independent of the worker count.
func (ss *ShardedStore) PutBatch(pairs []Pair) error {
	if len(pairs) == 0 {
		return nil
	}
	groups := make([][]Pair, len(ss.shards))
	for _, p := range pairs {
		i := ss.shardOf(p.Key)
		groups[i] = append(groups[i], p)
	}
	errs := make([]error, len(ss.shards))
	ss.forEachShard(func(i int) {
		if len(groups[i]) == 0 {
			return
		}
		sh := ss.shards[i]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		errs[i] = sh.st.PutBatch(groups[i])
	})
	return firstErr(errs)
}

// GetBatch returns the values of keys, aligned by index, fanning out
// across shards with snapshot reads. Missing keys yield nil entries (no
// error); tampered records fail. Each shard reads its slice of the batch
// in request order under one read-lock hold, so totals are deterministic
// for any worker count.
func (ss *ShardedStore) GetBatch(keys []string) ([][]byte, error) {
	out := make([][]byte, len(keys))
	if len(keys) == 0 {
		return out, nil
	}
	groups := make([][]int, len(ss.shards))
	for i, k := range keys {
		s := ss.shardOf(k)
		groups[s] = append(groups[s], i)
	}
	errs := make([]error, len(ss.shards))
	ss.forEachShard(func(i int) {
		if len(groups[i]) == 0 {
			return
		}
		sh := ss.shards[i]
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		for _, idx := range groups[i] {
			v, err := sh.st.GetSnapshot(keys[idx])
			if err != nil {
				if errors.Is(err, ErrNotFound) {
					continue
				}
				errs[i] = err
				return
			}
			out[idx] = v
		}
	})
	return out, firstErr(errs)
}

// Len returns the number of stored records across shards.
func (ss *ShardedStore) Len() int {
	n := 0
	for _, sh := range ss.shards {
		sh.mu.RLock()
		n += sh.st.Len()
		sh.mu.RUnlock()
	}
	return n
}

// Keys returns all keys in global key order.
func (ss *ShardedStore) Keys() []string {
	var out []string
	for _, sh := range ss.shards {
		sh.mu.RLock()
		out = append(out, sh.st.Keys()...)
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Range returns all records with lo <= key < hi in global key order (empty
// hi means "to the end"), scanning shards in parallel and merging. The
// per-shard scan uses the mutating accounting path, so it takes each
// shard's write lock; per-shard costs stay deterministic because each
// shard runs exactly one sequential scan.
func (ss *ShardedStore) Range(lo, hi string) ([]Pair, error) {
	parts := make([][]Pair, len(ss.shards))
	errs := make([]error, len(ss.shards))
	ss.forEachShard(func(i int) {
		sh := ss.shards[i]
		sh.mu.Lock()
		parts[i], errs[i] = sh.st.Range(lo, hi)
		sh.mu.Unlock()
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]Pair, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// Cycles returns the total simulated cycles charged across all shard
// memories (zero when unaccounted). Order-independent under concurrent
// snapshot reads, so equal workloads report equal totals at any
// parallelism.
func (ss *ShardedStore) Cycles() sim.Cycles {
	var n sim.Cycles
	for _, sh := range ss.shards {
		if sh.mem != nil {
			n += sh.mem.Cycles()
		}
	}
	return n
}

// Faults returns total page faults across shard memories.
func (ss *ShardedStore) Faults() uint64 {
	var n uint64
	for _, sh := range ss.shards {
		if sh.mem != nil {
			n += sh.mem.Faults()
		}
	}
	return n
}

// ShardCycles returns each shard's simulated cycle total (benchmark hook:
// per-op deltas give the critical-path/serial decomposition).
func (ss *ShardedStore) ShardCycles() []sim.Cycles {
	out := make([]sim.Cycles, len(ss.shards))
	for i, sh := range ss.shards {
		if sh.mem != nil {
			out[i] = sh.mem.Cycles()
		}
	}
	return out
}

// ResetAccounting zeroes every shard memory's ledger and fault counter.
func (ss *ShardedStore) ResetAccounting() {
	for _, sh := range ss.shards {
		if sh.mem != nil {
			sh.mem.ResetAccounting()
		}
	}
}

// EqualSharded reports whether a sharded store and a plain store hold
// identical records (test helper; decrypts both sides).
func EqualSharded(a *ShardedStore, b *Store) (bool, error) {
	pa, err := a.Range("", "")
	if err != nil {
		return false, err
	}
	pb, err := b.Range("", "")
	if err != nil {
		return false, err
	}
	if len(pa) != len(pb) {
		return false, nil
	}
	for i := range pa {
		if pa[i].Key != pb[i].Key || !bytes.Equal(pa[i].Value, pb[i].Value) {
			return false, nil
		}
	}
	return true, nil
}
