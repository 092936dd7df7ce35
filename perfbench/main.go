// Command perfbench is the repository benchmark: it runs one named
// workload as a fixed, seeded sequence of operations against the real
// SecureCloud stack, checks the outputs, and prints every metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.
// With -trace 1 the run alternates untraced and traced rounds and reports
// the per-layer metrics, the per-layer self times taken from the spans,
// and the tracing overhead against the untraced rounds.
//
// A run is a sequence of rounds. Each round builds a fresh stack (timed as
// set-up), runs the workload's fixed operation count (the measured phase,
// cut into windows) and checks the outputs. Rounds repeat until -seconds
// have passed, with a floor of minRounds, so set-up is sampled several
// times per run. The wall-clock figures come from the windows that saw the
// least host steal. Every round of a run uses the same seed, so every
// cycle, fault and count metric must repeat exactly from round to round; a
// mismatch fails the run. See README.md for the workloads and the metrics.
//
// Usage (from the repository root, via perfbench/run.sh which builds it):
//
//	perfbench --workload plane-rpc|scbr-pubsub|grid-durable --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// minRounds is the floor on rounds per run.
const minRounds = 3

// maxRunTime caps a run well inside the 180 s a run may take: no round
// starts after it.
const maxRunTime = 120 * time.Second

// check is one output check's verdict over a round.
type check struct {
	name     string
	passed   int
	total    int
	failures []string // first few failure descriptions
}

func (c *check) observe(ok bool, format string, args ...any) {
	c.total++
	if ok {
		c.passed++
		return
	}
	if len(c.failures) < 3 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

func (c *check) merge(o *check) {
	c.passed += o.passed
	c.total += o.total
	for _, f := range o.failures {
		if len(c.failures) < 3 {
			c.failures = append(c.failures, f)
		}
	}
}

// window is one stretch of a round's measured phase: the unit the
// wall-clock figures are computed over and selected by host steal.
type window struct {
	ops      int           // ops completed in the window
	measured time.Duration // wall time
	cpu      time.Duration // process user+sys CPU
	steal    cpuTimes      // /proc/stat delta
	lat      []float64     // per-op latency samples, µs
}

// round is what one fresh-stack pass of a workload measured.
type round struct {
	traced    bool
	setups    []window // stack builds (build, attestation, preload): wall time and steal
	windows   []window // the measured phase, in order
	ops       int      // completed ops over all windows
	attempted int      // ops attempted (failed_frac denominator)
	errors    int      // op errors, sheds and lost replies
	// det holds every deterministic metric (cycles, faults, counts): it
	// must be identical across rounds of one seed.
	det map[string]float64
	// layer holds wall-clock per-layer metrics the workload times directly
	// (phase times, set-up parts); span-derived ones are added from spans.
	layer  map[string]float64
	checks []*check
	spans  []span
}

func (r *round) failedChecks() int {
	n := 0
	for _, c := range r.checks {
		n += c.total - c.passed
	}
	return n
}

// workload runs one round. tr is nil for an untraced round.
type workload func(seed int64, tr *tracer) (*round, error)

var workloads = map[string]workload{
	"plane-rpc":    runPlane,
	"scbr-pubsub":  runSCBR,
	"grid-durable": runGrid,
}

func main() {
	name := flag.String("workload", "", "workload: plane-rpc, scbr-pubsub or grid-durable")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "how long to keep starting rounds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, budget time.Duration, traceMode bool) error {
	wl, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	start := time.Now()
	fmt.Printf("perfbench workload=%s seed=%d seconds=%.0f trace=%v\n", name, seed, budget.Seconds(), traceMode)

	var rounds []*round
	for i := 0; ; i++ {
		traced := traceMode && i%2 == 1
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		r, err := wl(seed, tr)
		if err != nil {
			return fmt.Errorf("round %d: %w", i+1, err)
		}
		r.traced = traced
		if tr != nil {
			r.spans = tr.spans
		}
		rounds = append(rounds, r)
		fmt.Printf("round %d traced=%v setups=%d windows=%d measured_s=%.4f ops=%d errors=%d failed_checks=%d steal_frac=%.4f\n",
			i+1, traced, len(r.setups), len(r.windows), r.measured().Seconds(), r.ops, r.errors, r.failedChecks(), r.steal().stealFrac())
		for j, w := range r.windows {
			f := windowFigures(w)
			fmt.Printf("  window %d ops=%d ops_per_s=%.2f p50_us=%.2f p99_us=%.2f cpu_us_per_op=%.3f steal_frac=%.4f\n",
				j+1, w.ops, f["ops_per_s"], f["p50_us"], f["p99_us"], f["cpu_us_per_op"], w.steal.stealFrac())
		}
		// A traced run ends on a traced round, so both kinds are measured.
		elapsed := time.Since(start)
		done := elapsed >= budget && len(rounds) >= minRounds && (!traceMode || len(rounds)%2 == 0)
		if done || elapsed >= maxRunTime {
			break
		}
	}

	prov := collectProvenance()
	fmt.Printf("provenance commit=%s dirty=%s source_sha256=%s go=%s cpu=%q nproc=%d gomaxprocs=%d steal_frac=%.4f\n",
		prov.commit, prov.dirty, prov.sourceDigest, prov.goVersion, prov.cpuModel, prov.nproc, prov.gomaxprocs, stealOf(rounds))

	// Output checks and the determinism self-check.
	attempted, failed := 0, 0
	for _, r := range rounds {
		attempted += r.attempted
		failed += r.errors + r.failedChecks()
	}
	printChecks(rounds)
	detErr := checkDeterminism(rounds)
	if detErr != nil {
		fmt.Printf("determinism FAIL: %v\n", detErr)
		failed++
	} else {
		fmt.Printf("determinism ok rounds=%d fingerprint=%s\n", len(rounds), fingerprint(rounds[0].det))
	}
	if attempted == 0 {
		return errors.New("no operation attempted")
	}
	failedFrac := float64(failed) / float64(attempted)
	fmt.Printf("metric failed_frac %.6g frac (failed=%d attempted=%d)\n", failedFrac, failed, attempted)

	var untraced, traced []*round
	for _, r := range rounds {
		if r.traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	var windows []window
	for _, r := range untraced {
		windows = append(windows, r.windows...)
	}
	quiet := leastStolen(windows)
	var qs cpuTimes
	for _, w := range quiet {
		qs = qs.add(w.steal)
	}
	fmt.Printf("wall-clock figures from the %d of %d untraced windows with the least host steal (steal_frac %.4f)\n",
		len(quiet), len(windows), qs.stealFrac())
	wall := wallFigures(quiet)
	printMetrics("wall", wall, wallMetrics)
	e2e := endToEnd(untraced)
	printMetrics("end_to_end", e2e, endToEndMetrics)
	var metrics map[string]float64
	var defs []metricDef
	if traceMode {
		layer := perLayer(wall, untraced, traced)
		printMetrics("per_layer", layer, perLayerMetrics)
		if err := writeSpans(name, seed, traced); err != nil {
			return err
		}
		metrics, defs = layer, perLayerMetrics
	} else {
		metrics, defs = e2e, endToEndMetrics
	}
	return printResult(failed == 0, attempted, failed, metrics, defs)
}

func (r *round) measured() time.Duration {
	var d time.Duration
	for _, w := range r.windows {
		d += w.measured
	}
	return d
}

func (r *round) steal() cpuTimes {
	var c cpuTimes
	for _, w := range r.windows {
		c = c.add(w.steal)
	}
	return c
}

// stealOf is the host steal share over the rounds' measured phases.
func stealOf(rounds []*round) float64 {
	var c cpuTimes
	for _, r := range rounds {
		c = c.add(r.steal())
	}
	return c.stealFrac()
}

func printChecks(rounds []*round) {
	sums := map[string]*check{}
	var order []string
	for _, r := range rounds {
		for _, c := range r.checks {
			if sums[c.name] == nil {
				sums[c.name] = &check{name: c.name}
				order = append(order, c.name)
			}
			sums[c.name].merge(c)
		}
	}
	for _, n := range order {
		c := sums[n]
		verdict := "ok"
		if c.passed != c.total {
			verdict = "FAIL " + strings.Join(c.failures, "; ")
		}
		fmt.Printf("check %s %d/%d %s\n", n, c.passed, c.total, verdict)
	}
}

// checkDeterminism compares every round's deterministic metrics with the
// first round's: all rounds ran the same seeded inputs.
func checkDeterminism(rounds []*round) error {
	ref := rounds[0].det
	for i, r := range rounds[1:] {
		if len(r.det) != len(ref) {
			return fmt.Errorf("round %d reports %d deterministic metrics, round 1 reports %d", i+2, len(r.det), len(ref))
		}
		for k, v := range ref {
			if got, ok := r.det[k]; !ok || got != v {
				return fmt.Errorf("%s: round 1 = %v, round %d = %v", k, v, i+2, got)
			}
		}
	}
	return nil
}

func printMetrics(kind string, vals map[string]float64, defs []metricDef) {
	for _, d := range defs {
		fmt.Printf("metric %s %s %.6g %s\n", kind, d.Name, vals[d.Name], d.Unit)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func printResult(correct bool, attempted, failed int, vals map[string]float64, defs []metricDef) error {
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// writeSpans writes the first traced round's spans as JSON lines under
// .bench_build/traces in the working directory (the checkout root). One
// round shows every span shape; the later rounds repeat it.
func writeSpans(name string, seed int64, traced []*round) error {
	if len(traced) == 0 {
		return nil
	}
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range traced[0].spans {
		if err := enc.Encode(spanJSON{ID: s.id, Parent: s.parent, Name: s.name, Key: s.key, StartNS: s.start, EndNS: s.end}); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("trace spans=%d of the first traced round written to %s\n", len(traced[0].spans), path)
	return nil
}

type spanJSON struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	Key     string `json:"key"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// sortedKeys returns m's keys in order.
func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
