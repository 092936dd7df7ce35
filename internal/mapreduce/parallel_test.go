package mapreduce

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/sim"
)

// smallWorkerPlatform shrinks each worker's platform so map/reduce working
// sets exercise the cache and pager.
func smallWorkerPlatform() enclave.Config {
	return enclave.Config{
		EPCBytes:         128 * 4096,
		EPCReservedBytes: 16 * 4096,
		LLCBytes:         32 << 10,
		LLCWays:          4,
		LineSize:         64,
		PageSize:         4096,
	}
}

func parallelEngine(t testing.TB, workers, maxParallel int) *ParallelSecureEngine {
	t.Helper()
	var root cryptbox.Key
	root[0] = 0x44
	e, err := NewParallelSecureEngine(root, ParallelConfig{
		Workers:     workers,
		MaxParallel: maxParallel,
		Platform:    smallWorkerPlatform(),
		WorkerBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// parallelTestDocs is a deterministic corpus big enough that every worker
// count in {1,2,4,8} gets a non-trivial split.
func parallelTestDocs() map[string]string {
	docs := make(map[string]string)
	for i := 0; i < 64; i++ {
		docs[fmt.Sprintf("doc-%03d", i)] = fmt.Sprintf(
			"alpha beta gamma w%d w%d shared tail", i%7, i%13)
	}
	return docs
}

// TestParallelMatchesPlainAndSecureAcrossWorkerCounts pins the output
// property: for every worker count, the secure engine's results equal the
// plain reference engine's.
func TestParallelMatchesPlainAndSecureAcrossWorkerCounts(t *testing.T) {
	docs := parallelTestDocs()
	plain, err := Run(wordCountJob(docs))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			out, err := parallelEngine(t, workers, 0).Run(wordCountJob(docs))
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != len(plain) {
				t.Fatalf("parallel %d keys, plain %d", len(out), len(plain))
			}
			for k, v := range plain {
				if !bytes.Equal(out[k], v) {
					t.Fatalf("key %s: parallel %q plain %q", k, out[k], v)
				}
			}
		})
	}
}

// TestParallelDeterministicCyclesAcrossParallelism pins the concurrency
// contract: for a fixed worker count (topology), per-worker map and reduce
// cycle totals and fault counts are bit-identical at every MaxParallel
// (execution parallelism) and across repeated runs.
func TestParallelDeterministicCyclesAcrossParallelism(t *testing.T) {
	docs := parallelTestDocs()
	// One Job value shared across runs: wordCountJob iterates a Go map, so
	// rebuilding it would shuffle the input order — a different workload,
	// not a determinism failure.
	job := wordCountJob(docs)
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			run := func(maxParallel int) (PhaseStats, map[string][]byte) {
				e := parallelEngine(t, workers, maxParallel)
				out, err := e.Run(job)
				if err != nil {
					t.Fatal(err)
				}
				return e.Stats(), out
			}
			base, baseOut := run(1)
			if base.MapSerialCycles == 0 || base.ReduceSerialCycles == 0 {
				t.Fatal("phases charged no cycles")
			}
			if base.MapCriticalCycles > base.MapSerialCycles ||
				base.ReduceCriticalCycles > base.ReduceSerialCycles {
				t.Fatal("critical path exceeds serial sum")
			}
			for _, mp := range []int{2, workers, workers * 2} {
				st, out := run(mp)
				for w := range st.WorkerMapCycles {
					if st.WorkerMapCycles[w] != base.WorkerMapCycles[w] {
						t.Fatalf("maxParallel=%d worker %d map cycles %d, want %d",
							mp, w, st.WorkerMapCycles[w], base.WorkerMapCycles[w])
					}
					if st.WorkerReduceCycles[w] != base.WorkerReduceCycles[w] {
						t.Fatalf("maxParallel=%d worker %d reduce cycles %d, want %d",
							mp, w, st.WorkerReduceCycles[w], base.WorkerReduceCycles[w])
					}
				}
				if st.Faults != base.Faults {
					t.Fatalf("maxParallel=%d faults %d, want %d", mp, st.Faults, base.Faults)
				}
				if len(out) != len(baseOut) {
					t.Fatalf("maxParallel=%d output size drifted", mp)
				}
				for k, v := range baseOut {
					if !bytes.Equal(out[k], v) {
						t.Fatalf("maxParallel=%d key %s drifted", mp, k)
					}
				}
			}
		})
	}
}

// TestParallelShuffleIsCiphertext: intermediate records must be opaque in
// the shuffle.
func TestParallelShuffleIsCiphertext(t *testing.T) {
	e := parallelEngine(t, 4, 0)
	job := wordCountJob(map[string]string{"d": "SECRETWORD SECRETWORD"})
	var sawPlaintext bool
	if _, err := e.RunWithShuffleHook(job, func(parts [][][]byte) {
		for _, part := range parts {
			for _, rec := range part {
				if bytes.Contains(rec, []byte("SECRETWORD")) {
					sawPlaintext = true
				}
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if sawPlaintext {
		t.Fatal("intermediate data visible in shuffle storage")
	}
}

// TestParallelShuffleTamperDetected: a flipped sealed record fails
// authentication in the reduce phase.
func TestParallelShuffleTamperDetected(t *testing.T) {
	e := parallelEngine(t, 4, 0)
	job := wordCountJob(map[string]string{"d": "w1 w2 w3 w4 w5"})
	_, err := e.RunWithShuffleHook(job, func(parts [][][]byte) {
		for _, part := range parts {
			if len(part) > 0 {
				part[0][len(part[0])-1] ^= 1
				return
			}
		}
	})
	if !errors.Is(err, ErrShuffleTampered) {
		t.Fatalf("err = %v, want ErrShuffleTampered", err)
	}
}

// TestParallelShuffleInterchangeable pins the shuffle key derivation: every
// sealed record opens under DeriveKey(root, "shuffle-partition-<p>") with
// the job/partition AAD, so any holder of the root key can read the
// shuffle.
func TestParallelShuffleInterchangeable(t *testing.T) {
	var root cryptbox.Key
	root[0] = 0x44
	e := parallelEngine(t, 2, 0)
	job := wordCountJob(map[string]string{"d": "x y z"})
	var captured [][][]byte
	if _, err := e.RunWithShuffleHook(job, func(parts [][][]byte) {
		captured = parts
	}); err != nil {
		t.Fatal(err)
	}
	found := false
	for p, part := range captured {
		for _, sealed := range part {
			key, err := cryptbox.DeriveKey(root, fmt.Sprintf("shuffle-partition-%d", p))
			if err != nil {
				t.Fatal(err)
			}
			box, err := cryptbox.NewBox(key)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := box.Open(sealed, shuffleAAD(job.Name, p)); err != nil {
				t.Fatalf("partition %d record not openable with derived key: %v", p, err)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no sealed records captured")
	}
}

// TestParallelReduceErrorPropagates: a reducer failure surfaces with job
// context, deterministically.
func TestParallelReduceErrorPropagates(t *testing.T) {
	e := parallelEngine(t, 4, 0)
	job := wordCountJob(map[string]string{"d": "x"})
	job.Reduce = func(key string, values [][]byte) ([]byte, error) {
		return nil, errors.New("reduce exploded")
	}
	if _, err := e.Run(job); err == nil || !bytes.Contains([]byte(err.Error()), []byte("reduce exploded")) {
		t.Fatalf("err = %v", err)
	}
}

// TestParallelEmptyInput: an empty job yields an empty result and charges
// no map-phase record costs beyond the fixed enclave entries.
func TestParallelEmptyInput(t *testing.T) {
	e := parallelEngine(t, 4, 0)
	out, err := e.Run(wordCountJob(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("empty input produced %d keys", len(out))
	}
}

// TestParallelSpeedupReported sanity-checks the scaling statement on a
// skewed workload: serial >= critical, and with several workers carrying
// similar load the speedup exceeds 1.
func TestParallelSpeedupReported(t *testing.T) {
	docs := make(map[string]string)
	for i := 0; i < 128; i++ {
		docs[fmt.Sprintf("d%03d", i)] = "spread the load across every worker evenly now"
	}
	e := parallelEngine(t, 4, 0)
	if _, err := e.Run(wordCountJob(docs)); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.MapSpeedup() <= 1.0 {
		t.Fatalf("map speedup %.3f, want > 1 on a balanced 4-worker load", st.MapSpeedup())
	}
	if st.ReduceSpeedup() < 1.0 {
		t.Fatalf("reduce speedup %.3f < 1", st.ReduceSpeedup())
	}
	var sum sim.Cycles
	for _, c := range st.WorkerMapCycles {
		sum += c
	}
	if sum != st.MapSerialCycles {
		t.Fatalf("map serial %d != worker sum %d", st.MapSerialCycles, sum)
	}
}
