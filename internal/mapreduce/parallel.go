package mapreduce

import (
	"encoding/json"
	"errors"
	"fmt"

	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/sim"
)

// ErrShuffleTampered is returned when sealed intermediate data fails
// authentication — the untrusted shuffle storage modified, dropped into
// the wrong partition, or replayed a record.
var ErrShuffleTampered = errors.New("mapreduce: shuffle record failed authentication")

// ShuffleHook receives the sealed shuffle partitions between the map and
// reduce phases — modelling an attacker with access to the intermediate
// storage. Fault-injection tests mutate records here.
type ShuffleHook func(partitions [][][]byte)

// shuffleAAD binds a sealed record to its job and partition.
func shuffleAAD(job string, p int) []byte {
	return []byte(fmt.Sprintf("shuffle|%s|%d", job, p))
}

// ParallelConfig sizes a parallel secure engine.
type ParallelConfig struct {
	// Workers is the number of worker enclaves, each on its own simulated
	// platform (enclave-per-worker). It is a *topology* parameter: it
	// decides how the input splits and which worker owns each shuffle
	// partition, and therefore every simulated figure. Fix it when
	// comparing runs; vary MaxParallel freely instead. Defaults to 4.
	Workers int
	// MaxParallel bounds how many workers execute at once (0 = Workers).
	// Purely an execution parameter — outputs and simulated totals are
	// identical for any value, because workers share no simulated state.
	MaxParallel int
	// Platform configures each worker's simulated platform.
	Platform enclave.Config
	// WorkerBytes is each worker enclave's size (default 16 MiB). The
	// enclave heap doubles as the staging region input records and sealed
	// shuffle records stream through, wrapping when the working set
	// exceeds it — exactly how a fixed enclave heap behaves.
	WorkerBytes uint64
}

// mrWorker is one enclave worker: a whole simulated platform, its enclave,
// and a staging region accounting for the records streamed through it.
type mrWorker struct {
	enc  *enclave.Enclave
	mem  *enclave.Memory
	base uint64
	size uint64
	off  uint64
}

// stage returns the simulated address where the next n staged bytes land,
// bumping the staging cursor and wrapping at the region end (a fixed
// enclave heap reused across records). Deterministic: the address sequence
// is a pure function of the record sizes streamed through this worker.
func (w *mrWorker) stage(n int) uint64 {
	sz := uint64(n)
	if sz > w.size {
		sz = w.size // clamp pathological records to the region
	}
	if w.off+sz > w.size {
		w.off = 0
	}
	addr := w.base + w.off
	w.off += sz
	return addr
}

// PhaseStats is the per-phase cycle accounting of one parallel run: per
// worker totals plus the serial-sum and critical-path decomposition, the
// same scaling statement the sharded SCBR broker reports (summed shard
// cycles over the slowest shard = the speedup an ideal enclave-per-core
// machine realises).
type PhaseStats struct {
	WorkerMapCycles      []sim.Cycles
	WorkerReduceCycles   []sim.Cycles
	MapSerialCycles      sim.Cycles
	MapCriticalCycles    sim.Cycles
	ReduceSerialCycles   sim.Cycles
	ReduceCriticalCycles sim.Cycles
	MapFaults            uint64
	ReduceFaults         uint64
	Faults               uint64 // MapFaults + ReduceFaults
}

// MapSpeedup returns serial-over-critical-path for the map phase (1 when
// the phase charged nothing).
func (s PhaseStats) MapSpeedup() float64 { return speedup(s.MapSerialCycles, s.MapCriticalCycles) }

// ReduceSpeedup returns serial-over-critical-path for the reduce phase.
func (s PhaseStats) ReduceSpeedup() float64 {
	return speedup(s.ReduceSerialCycles, s.ReduceCriticalCycles)
}

func speedup(serial, critical sim.Cycles) float64 {
	if critical == 0 {
		return 1
	}
	return float64(serial) / float64(critical)
}

// ParallelSecureEngine runs jobs across worker enclaves that each own a
// whole simulated platform — the enclave-per-worker deployment, extending
// the shard-per-core pattern from routing and storage to compute. The map
// phase splits the input across workers; every intermediate record is
// sealed before it leaves its enclave; shuffle partitions are hashed to
// workers (partition mod Workers) for the reduce phase. Because workers
// share no simulated state and the task-to-worker assignment is fixed by
// topology, outputs and per-worker cycle totals are bit-identical for any
// MaxParallel and any goroutine interleaving; only Workers (the topology)
// changes the figures.
//
// An engine is not safe for concurrent Run calls; each call reuses the
// worker pool.
type ParallelSecureEngine struct {
	cfg     ParallelConfig
	workers []*mrWorker
	rootKey cryptbox.Key
	hook    ShuffleHook
	stats   PhaseStats
}

// NewParallelSecureEngine builds the worker pool. The root key (provisioned
// via the CAS in a full deployment) derives the per-partition shuffle keys.
func NewParallelSecureEngine(rootKey cryptbox.Key, cfg ParallelConfig) (*ParallelSecureEngine, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.MaxParallel <= 0 {
		cfg.MaxParallel = cfg.Workers
	}
	if cfg.WorkerBytes == 0 {
		cfg.WorkerBytes = 16 << 20
	}
	e := &ParallelSecureEngine{cfg: cfg, rootKey: rootKey}
	for i := 0; i < cfg.Workers; i++ {
		enc, arena, err := enclave.NewWorker(cfg.Platform, cfg.WorkerBytes, fmt.Sprintf("mr-parallel-worker-%d", i))
		if err != nil {
			e.Close()
			return nil, err
		}
		size := arena.Capacity()
		base := arena.Alloc(int(size))
		e.workers = append(e.workers, &mrWorker{
			enc:  enc,
			mem:  enc.Memory(),
			base: base,
			size: size,
		})
	}
	return e, nil
}

// Close destroys the worker enclaves.
func (e *ParallelSecureEngine) Close() {
	for _, w := range e.workers {
		w.enc.Destroy()
	}
}

// Stats returns the phase accounting of the most recent Run.
func (e *ParallelSecureEngine) Stats() PhaseStats { return e.stats }

// partitionBoxes derives one sealing box per shuffle partition, shared
// read-only by all workers (Box is safe for concurrent Seal/Open).
func (e *ParallelSecureEngine) partitionBoxes(reducers int) ([]*cryptbox.Box, error) {
	boxes := make([]*cryptbox.Box, reducers)
	for p := range boxes {
		key, err := cryptbox.DeriveKey(e.rootKey, fmt.Sprintf("shuffle-partition-%d", p))
		if err != nil {
			return nil, err
		}
		boxes[p], err = cryptbox.NewBox(key)
		if err != nil {
			return nil, err
		}
	}
	return boxes, nil
}

// cyclesDelta subtracts a per-worker cycle snapshot, returning the deltas
// plus their sum and max (serial and critical path).
func (e *ParallelSecureEngine) cyclesDelta(before []sim.Cycles) ([]sim.Cycles, sim.Cycles, sim.Cycles) {
	deltas := make([]sim.Cycles, len(e.workers))
	var sum, max sim.Cycles
	for i, w := range e.workers {
		d := w.mem.Cycles() - before[i]
		deltas[i] = d
		sum += d
		if d > max {
			max = d
		}
	}
	return deltas, sum, max
}

func (e *ParallelSecureEngine) cyclesSnapshot() []sim.Cycles {
	out := make([]sim.Cycles, len(e.workers))
	for i, w := range e.workers {
		out[i] = w.mem.Cycles()
	}
	return out
}

func (e *ParallelSecureEngine) faultTotal() uint64 {
	var n uint64
	for _, w := range e.workers {
		n += w.mem.Faults()
	}
	return n
}

// Run executes the job across the worker pool with a sealed shuffle.
func (e *ParallelSecureEngine) Run(job Job) (map[string][]byte, error) {
	if err := job.defaults(); err != nil {
		return nil, err
	}
	boxes, err := e.partitionBoxes(job.Reducers)
	if err != nil {
		return nil, err
	}
	splits := splitInput(job.Input, len(e.workers))
	faults0 := e.faultTotal()

	// Map phase: worker w maps split w inside its enclave, sealing every
	// intermediate record before it leaves. One accounting span covers the
	// whole split (the worker owns its platform exclusively).
	mapBefore := e.cyclesSnapshot()
	perWorker := make([][][][]byte, len(e.workers)) // worker -> partition -> sealed records
	mapErrs := make([]error, len(e.workers))
	sim.ParallelFor(len(splits), e.cfg.MaxParallel, func(w int) {
		mapErrs[w] = e.runMapTask(job, boxes, splits[w], w, perWorker)
	})
	for _, err := range mapErrs {
		if err != nil {
			return nil, err
		}
	}
	mapCycles, mapSerial, mapCritical := e.cyclesDelta(mapBefore)
	faultsAfterMap := e.faultTotal()

	// The shuffle concatenates worker outputs in ascending worker order —
	// deterministic however the map tasks interleaved.
	partitions := make([][][]byte, job.Reducers)
	for p := 0; p < job.Reducers; p++ {
		for w := range perWorker {
			if perWorker[w] != nil {
				partitions[p] = append(partitions[p], perWorker[w][p]...)
			}
		}
	}
	if e.hook != nil {
		e.hook(partitions)
	}

	// Reduce phase: partitions hash to workers (p mod Workers); each
	// worker unseals and reduces its partitions in ascending order.
	reduceBefore := e.cyclesSnapshot()
	perWorkerOut := make([][]KV, len(e.workers))
	reduceErrs := make([]error, len(e.workers))
	sim.ParallelFor(len(e.workers), e.cfg.MaxParallel, func(w int) {
		reduceErrs[w] = e.runReduceTask(job, boxes, partitions, w, perWorkerOut)
	})
	for _, err := range reduceErrs {
		if err != nil {
			return nil, err
		}
	}
	reduceCycles, reduceSerial, reduceCritical := e.cyclesDelta(reduceBefore)

	faultsEnd := e.faultTotal()
	e.stats = PhaseStats{
		WorkerMapCycles:      mapCycles,
		WorkerReduceCycles:   reduceCycles,
		MapSerialCycles:      mapSerial,
		MapCriticalCycles:    mapCritical,
		ReduceSerialCycles:   reduceSerial,
		ReduceCriticalCycles: reduceCritical,
		MapFaults:            faultsAfterMap - faults0,
		ReduceFaults:         faultsEnd - faultsAfterMap,
		Faults:               faultsEnd - faults0,
	}

	out := make(map[string][]byte)
	for _, kvs := range perWorkerOut {
		for _, kv := range kvs {
			out[kv.Key] = kv.Value
		}
	}
	return out, nil
}

// runMapTask maps one split inside worker w's enclave.
func (e *ParallelSecureEngine) runMapTask(job Job, boxes []*cryptbox.Box, split []KV, w int, perWorker [][][][]byte) error {
	wk := e.workers[w]
	out := make([][][]byte, job.Reducers)
	if err := wk.enc.EEnter(); err != nil {
		return err
	}
	defer func() { _ = wk.enc.EExit() }()
	sp := wk.mem.BeginSpan()
	var failed error
	for _, rec := range split {
		// Staging the record into the enclave reads it once.
		sp.Access(wk.stage(len(rec.Key)+len(rec.Value)), len(rec.Key)+len(rec.Value), false)
		job.Map(rec.Key, rec.Value, func(k string, v []byte) {
			if failed != nil {
				return
			}
			p := partition(k, job.Reducers)
			raw, err := json.Marshal(KV{Key: k, Value: v})
			if err != nil {
				failed = err
				return
			}
			sealed, err := boxes[p].Seal(raw, shuffleAAD(job.Name, p))
			if err != nil {
				failed = err
				return
			}
			// The sealed record is assembled in enclave memory before the
			// copy-out to untrusted shuffle storage.
			sp.Access(wk.stage(len(sealed)), len(sealed), true)
			out[p] = append(out[p], sealed)
		})
		if failed != nil {
			break
		}
	}
	sp.End()
	if failed != nil {
		return failed
	}
	perWorker[w] = out
	return nil
}

// runReduceTask unseals and reduces worker w's partitions (p ≡ w mod
// Workers, ascending) inside its enclave.
func (e *ParallelSecureEngine) runReduceTask(job Job, boxes []*cryptbox.Box, partitions [][][]byte, w int, perWorkerOut [][]KV) error {
	owned := 0
	for p := w; p < job.Reducers; p += len(e.workers) {
		owned++
	}
	if owned == 0 {
		return nil
	}
	wk := e.workers[w]
	if err := wk.enc.EEnter(); err != nil {
		return err
	}
	defer func() { _ = wk.enc.EExit() }()
	sp := wk.mem.BeginSpan()
	var out []KV
	var failed error
	for p := w; p < job.Reducers && failed == nil; p += len(e.workers) {
		var recs []KV
		for _, sealed := range partitions[p] {
			// Staging the sealed record into the enclave reads it once.
			sp.Access(wk.stage(len(sealed)), len(sealed), false)
			raw, err := boxes[p].Open(sealed, shuffleAAD(job.Name, p))
			if err != nil {
				failed = fmt.Errorf("%w: partition %d", ErrShuffleTampered, p)
				break
			}
			var kv KV
			if err := json.Unmarshal(raw, &kv); err != nil {
				failed = err
				break
			}
			recs = append(recs, kv)
		}
		if failed != nil {
			break
		}
		grouped := groupByKey(recs)
		for _, k := range sortedKeys(grouped) {
			v, err := job.Reduce(k, grouped[k])
			if err != nil {
				failed = fmt.Errorf("mapreduce %s: reduce %q: %w", job.Name, k, err)
				break
			}
			// The reduced record is written before leaving the enclave.
			sp.Access(wk.stage(len(k)+len(v)), len(k)+len(v), true)
			out = append(out, KV{Key: k, Value: v})
		}
	}
	sp.End()
	if failed != nil {
		return failed
	}
	perWorkerOut[w] = out
	return nil
}

// RunWithShuffleHook is Run with the hook installed for one execution.
func (e *ParallelSecureEngine) RunWithShuffleHook(job Job, hook ShuffleHook) (map[string][]byte, error) {
	old := e.hook
	e.hook = hook
	defer func() { e.hook = old }()
	return e.Run(job)
}
