// Command bench-check is the bench-regression gate: it flattens every
// deterministic simulated metric of a bench document written by
// scripts/bench_smoke.sh and fails when any value drifts from the committed
// baseline (scripts/bench_baseline.json).
//
// The document follows one contract:
//
//   - every top-level section carrying a flat "deterministic"
//     {name: number} map contributes <section minus "_bench">.<name>;
//     everything else in a section is informational;
//   - the raw `go test -bench` result lines under "go_bench" contribute
//     every custom unit of the benchmarks named in benchAlias, and each
//     such metric must agree across -cpu runs.
//
// Each bench driver enforces its own invariants (worker-sweep equality,
// assertion tables, warm-pull and delta statements) and exits nonzero when
// one fails, so bench-check only compares numbers. Deterministic metrics —
// sim-cycles, fault counts, figure values — are pure functions of the
// workload and the cost model, so any drift is a semantic change to the
// simulator or its data structures, never noise.
//
// Usage:
//
//	bench-check -bench BENCH.json [-baseline scripts/bench_baseline.json] [-update]
//
// -update rewrites the baseline from the bench file; do this deliberately
// in the PR that intentionally changes the cost model or workload, the
// same discipline as GOLDEN_UPDATE=1 for the golden tests.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// tolerance absorbs JSON float round-tripping, nothing more: deterministic
// metrics must match to better than one part per billion.
const tolerance = 1e-9

// benchAlias maps each gated Go benchmark to its metric prefix.
var benchAlias = map[string]string{
	"CacheMissVsSwap":       "cachemiss",
	"BrokerPublishParallel": "broker",
}

// wallUnits are the `go test -bench` units that measure the host.
var wallUnits = map[string]bool{"ns/op": true, "B/op": true, "allocs/op": true, "MB/s": true}

// cpuSuffix is the -N GOMAXPROCS suffix `go test` appends to a name.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

var unitName = strings.NewReplacer("-", "_", "/", "_per_")

type baseline struct {
	Source  string             `json:"source"`
	Metrics map[string]float64 `json:"metrics"`
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench-check: "+format+"\n", args...)
	os.Exit(1)
}

// extract flattens every deterministic metric of one bench document into a
// name → value map, and reports go_bench lines that cannot be gated or
// that disagree across -cpu runs.
func extract(doc map[string]any) (map[string]float64, []string) {
	metrics := make(map[string]float64)
	var problems []string

	for key, sec := range doc {
		obj, _ := sec.(map[string]any)
		det, ok := obj["deterministic"].(map[string]any)
		if !ok {
			continue
		}
		prefix := strings.TrimSuffix(key, "_bench") + "."
		for name, v := range det {
			if f, ok := v.(float64); ok {
				metrics[prefix+name] = f
			}
		}
	}

	lines, _ := doc["go_bench"].([]any)
	for _, l := range lines {
		line, _ := l.(string)
		fields := strings.Fields(line)
		if len(fields) < 2 || !strings.HasPrefix(fields[0], "Benchmark") {
			problems = append(problems, fmt.Sprintf("go_bench: malformed line %q", line))
			continue
		}
		name := cpuSuffix.ReplaceAllString(strings.TrimPrefix(fields[0], "Benchmark"), "")
		top, sub, _ := strings.Cut(name, "/")
		prefix, ok := benchAlias[top]
		if !ok {
			problems = append(problems, fmt.Sprintf("go_bench: Benchmark%s has no metric prefix", top))
			continue
		}
		if sub != "" {
			prefix += "." + sub
		}
		for i := 2; i+1 < len(fields); i += 2 {
			unit := fields[i+1]
			if wallUnits[unit] {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				problems = append(problems, fmt.Sprintf("go_bench: %s: bad value %q", fields[0], fields[i]))
				continue
			}
			metric := prefix + "." + unitName.Replace(unit)
			if prev, seen := metrics[metric]; seen && prev != v {
				problems = append(problems, fmt.Sprintf(
					"go_bench: %s differs across -cpu runs: %v vs %v (nondeterministic)", metric, prev, v))
				continue
			}
			metrics[metric] = v
		}
	}
	return metrics, problems
}

// compare returns one message per metric that is new, missing from the
// bench file, or drifted beyond tolerance, in name order.
func compare(metrics, base map[string]float64, benchPath string) []string {
	names := make([]string, 0, len(metrics)+len(base))
	for n := range metrics {
		names = append(names, n)
	}
	for n := range base {
		if _, ok := metrics[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	var drift []string
	for _, n := range names {
		got, haveGot := metrics[n]
		want, haveWant := base[n]
		switch {
		case !haveWant:
			drift = append(drift, fmt.Sprintf("new metric %s = %v not in baseline (refresh with -update)", n, got))
		case !haveGot:
			drift = append(drift, fmt.Sprintf("baseline metric %s missing from %s (benchmark dropped?)", n, benchPath))
		case math.Abs(got-want) > tolerance*math.Max(1, math.Abs(want)):
			drift = append(drift, fmt.Sprintf("DRIFT %s: %v, baseline %v", n, got, want))
		}
	}
	return drift
}

func main() {
	benchPath := flag.String("bench", "", "bench file to check (required; written by scripts/bench_smoke.sh)")
	basePath := flag.String("baseline", "scripts/bench_baseline.json", "committed baseline")
	update := flag.Bool("update", false, "rewrite the baseline from the bench file instead of checking")
	flag.Parse()

	if *benchPath == "" {
		fail("-bench is required")
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fail("%v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		fail("parsing %s: %v", *benchPath, err)
	}
	metrics, problems := extract(doc)
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "bench-check: %s: %s\n", *benchPath, p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
	if len(metrics) == 0 {
		fail("%s contained no deterministic metrics", *benchPath)
	}

	if *update {
		out, err := json.MarshalIndent(baseline{Source: filepath.Base(*benchPath), Metrics: metrics}, "", "  ")
		if err != nil {
			fail("%v", err)
		}
		if err := os.WriteFile(*basePath, append(out, '\n'), 0o644); err != nil {
			fail("%v", err)
		}
		fmt.Printf("bench-check: recorded %d metrics from %s into %s\n", len(metrics), *benchPath, *basePath)
		return
	}

	baseRaw, err := os.ReadFile(*basePath)
	if err != nil {
		fail("baseline missing (record with -update): %v", err)
	}
	var base baseline
	if err := json.Unmarshal(baseRaw, &base); err != nil {
		fail("parsing %s: %v", *basePath, err)
	}
	drift := compare(metrics, base.Metrics, *benchPath)
	for _, d := range drift {
		fmt.Fprintf(os.Stderr, "bench-check: %s\n", d)
	}
	if len(drift) > 0 {
		fail("%d deterministic metric(s) drifted vs %s — a semantic simulator change; update the baseline only if intended", len(drift), *basePath)
	}
	fmt.Printf("bench-check: %s: %d deterministic metrics match %s\n", *benchPath, len(metrics), *basePath)
}
