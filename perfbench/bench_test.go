package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestQuantileMatchesSortedReference checks the nearest-rank quantile
// against its definition, counted on a sorted copy: the smallest sample
// with at least q·n samples at or below it.
func TestQuantileMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000, 4097} {
		vs := make([]float64, n)
		for i := range vs {
			// Heavy tail and ties, like latency samples.
			vs[i] = math.Floor(math.Exp(rng.NormFloat64()*1.5) * 100)
		}
		sort.Float64s(vs)
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
			want := vs[0]
			for _, v := range vs {
				atOrBelow := 0
				for _, x := range vs {
					if x <= v {
						atOrBelow++
					}
				}
				if float64(atOrBelow) >= q*float64(n) {
					want = v
					break
				}
			}
			if got := quantile(vs, q); got != want {
				t.Errorf("n=%d q=%v: quantile = %v, reference %v", n, q, got, want)
			}
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		in := append([]float64(nil), c.in...)
		if got := median(in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Fatalf("median reordered its input: %v", in)
			}
		}
	}
}

// TestSelfTimes checks self time = span minus the union of its direct
// children, clipped to the span.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{id: 1, name: "bench.tick", start: 0, end: 100},
		// Two concurrent children overlapping on [20, 30).
		{id: 2, parent: 1, name: "microsvc.send", start: 10, end: 30},
		{id: 3, parent: 1, name: "microsvc.send", start: 20, end: 40},
		// A disjoint child.
		{id: 4, parent: 1, name: "microsvc.step", start: 60, end: 70},
		// A grandchild: subtracted from its parent only.
		{id: 5, parent: 2, name: "wire.send", start: 12, end: 28},
		{id: 6, parent: 5, name: "wire.handler", start: 15, end: 20},
		// A child that overruns its parent is clipped.
		{id: 7, parent: 4, name: "wire.handler", start: 65, end: 90},
		// A span whose parent is not in the set is a root.
		{id: 8, parent: 99, name: "wire.handler", start: 0, end: 5},
	}
	want := []int64{
		100 - 30 - 10, // children cover [10,40) and [60,70)
		20 - 16,       // wire.send covers 16 of 20
		20,            // no children
		10 - 5,        // clipped child covers [65,70)
		16 - 5,
		5,
		25,
		5,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self = %d, want %d", spans[i].id, spans[i].name, got[i], want[i])
		}
	}
}

func TestSpanLayer(t *testing.T) {
	for name, want := range map[string]string{"wire.send": "wire", "kvstore.put": "kvstore", "bench": "bench"} {
		if got := (span{name: name}).layer(); got != want {
			t.Errorf("layer(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	sp := tr.start(0, "wire.send", "k")
	sp.end()
	if sp.id != 0 {
		t.Fatalf("nil tracer span id = %d, want 0", sp.id)
	}
	tr = newTracer()
	root := tr.start(0, "bench.tick", "k")
	child := tr.start(root.id, "wire.send", "k")
	child.end()
	root.end()
	if len(tr.spans) != 2 || tr.spans[0].parent != root.id || tr.spans[1].parent != 0 {
		t.Fatalf("spans = %+v", tr.spans)
	}
}

const procStat = `cpu  4705 356 584 3699 23 23 0 12 0 0
cpu0 1393280 32966 572056 13343292 6130 0 17875 0 23933 0
intr 114930548 113199788 3 0 5 263 0 4 [... lots more numbers ...]
`

func TestParseProcStat(t *testing.T) {
	c, err := parseProcStat(strings.NewReader(procStat))
	if err != nil {
		t.Fatal(err)
	}
	if want := (cpuTimes{total: 4705 + 356 + 584 + 3699 + 23 + 23 + 0 + 12, steal: 12}); c != want {
		t.Fatalf("parsed %+v, want %+v", c, want)
	}
	later := cpuTimes{total: c.total + 1000, steal: c.steal + 250}
	if got := later.sub(c).stealFrac(); got != 0.25 {
		t.Errorf("steal share = %v, want 0.25", got)
	}
	if got := c.sub(later); got != (cpuTimes{}) {
		t.Errorf("a backwards interval = %+v, want zero", got)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4 5 6 7 8\n", "cpu 1 2 3\n", "cpu 1 2 x 4 5 6 7 8\n"} {
		if _, err := parseProcStat(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProcStat(%q) accepted malformed input", bad)
		}
	}
}

func TestCheckDeterminism(t *testing.T) {
	a := &round{det: map[string]float64{"sim_cycles_per_op": 1897, "faults": 0}}
	b := &round{det: map[string]float64{"sim_cycles_per_op": 1897, "faults": 0}}
	if err := checkDeterminism([]*round{a, b}); err != nil {
		t.Fatalf("equal rounds: %v", err)
	}
	if fingerprint(a.det) != fingerprint(b.det) {
		t.Fatal("equal metric maps have different fingerprints")
	}
	c := &round{det: map[string]float64{"sim_cycles_per_op": 1898, "faults": 0}}
	if err := checkDeterminism([]*round{a, b, c}); err == nil {
		t.Fatal("a changed cycle count passed the determinism check")
	}
	d := &round{det: map[string]float64{"sim_cycles_per_op": 1897}}
	if err := checkDeterminism([]*round{a, d}); err == nil {
		t.Fatal("a missing metric passed the determinism check")
	}
}

func TestLogUniformRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	small := 0
	for i := 0; i < 10000; i++ {
		v := logUniform(rng, 64, 4096)
		if v < 64 || v > 4096 {
			t.Fatalf("logUniform = %d outside [64, 4096]", v)
		}
		if v < 512 {
			small++
		}
	}
	// Log-uniform puts half the mass below the geometric midpoint 512.
	if small < 4700 || small > 5300 {
		t.Errorf("%d of 10000 draws below 512, want about half", small)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metrics the command prints
// in step with the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, command %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEndMetrics)
	same("per_layer", bj.PerLayer, perLayerMetrics)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command runs %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}

func TestLeastStolenKeepsQuarter(t *testing.T) {
	var ws []window
	for i, steal := range []uint64{30, 1, 50, 2, 0, 9, 7, 4, 3} {
		ws = append(ws, window{ops: i, steal: cpuTimes{total: 100, steal: steal}})
	}
	for _, c := range []struct {
		n    int
		want []int // least stolen first
	}{
		{9, []int{4, 1, 3}}, // a quarter of 9, rounded up
		{5, []int{4, 1}},    // at least two
		{2, []int{1, 0}},
		{1, []int{0}},
	} {
		got := leastStolen(ws[:c.n])
		if len(got) != len(c.want) {
			t.Fatalf("%d windows: kept %d, want %d", c.n, len(got), len(c.want))
		}
		for i, w := range c.want {
			if got[i].ops != w {
				t.Errorf("%d windows: kept[%d] is window %d, want %d", c.n, i, got[i].ops, w)
			}
		}
	}
	if ws[0].ops != 0 || ws[4].ops != 4 {
		t.Error("leastStolen reordered its input")
	}
}

func TestWallFigures(t *testing.T) {
	w := func(ops int, secs, cpu float64, lat ...float64) window {
		return window{ops: ops, measured: time.Duration(secs * 1e9), cpu: time.Duration(cpu * 1e9), lat: lat}
	}
	got := wallFigures([]window{w(100, 1, 0.5, 1, 2), w(100, 4, 0.7, 3), w(300, 2, 1.2, 4, 5)})
	want := map[string]float64{
		"ops_per_s":     100,  // median of 100, 25 and 150
		"cpu_us_per_op": 5000, // median of 5000, 7000 and 4000
		"p50_us":        3,    // pooled samples 1..5
		"p99_us":        5,
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9*math.Abs(v) {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}

func TestEndToEndSetupFromLeastStolenBuilds(t *testing.T) {
	b := func(ms, steal uint64) window {
		return window{measured: time.Duration(ms) * time.Millisecond, steal: cpuTimes{total: 100, steal: steal}}
	}
	rounds := []*round{
		{setups: []window{b(9, 40), b(3, 1)}, det: map[string]float64{"sim_cycles_per_op": 1897}},
		{setups: []window{b(5, 2), b(50, 90)}},
	}
	got := endToEnd(rounds)
	// The two least stolen builds take 3 and 5 ms.
	if math.Abs(got["setup_s"]-0.004) > 1e-12 || got["sim_cycles_per_op"] != 1897 {
		t.Errorf("endToEnd = %v, want setup_s 0.004 and sim_cycles_per_op 1897", got)
	}
}

func TestWindowFigures(t *testing.T) {
	w := window{ops: 400, measured: 2 * time.Second, cpu: time.Second, lat: []float64{5, 1, 4, 2, 3}}
	f := windowFigures(w)
	for k, want := range map[string]float64{"ops_per_s": 200, "cpu_us_per_op": 2500, "p50_us": 3, "p99_us": 5} {
		if f[k] != want {
			t.Errorf("%s = %v, want %v", k, f[k], want)
		}
	}
	if w.lat[0] != 5 {
		t.Error("windowFigures reordered the window's samples")
	}
}
