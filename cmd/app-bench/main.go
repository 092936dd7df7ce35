// Command app-bench drives the application plane's closed-loop
// fault-injection scenarios end to end: a deterministic load schedule
// flows through an attested ReplicaSet while the orchestrator samples
// queue depths and service cycles each simulated millisecond and adapts.
//
// Every scenario is a microsvc.ScenarioSpec run through microsvc.RunSpec,
// in two families. The four DefaultScenarios (replica crash, load spike,
// hot-key skew, slow replica) exercise the orchestrator's scaling rules;
// the lab matrix (overload, noisy-neighbor, cascade, slow-network,
// recovery) exercises tenant-aware admission control — token buckets,
// weighted-fair dequeue, shed-with-retry-after, hot-key splitting and
// client retry — and each lab spec carries its own assertion table, whose
// verdict is recorded in the JSON; a failed table fails the command.
//
// Each scenario runs once per worker count (default 1,2,4,8). Worker count
// is execution-only, so the adaptation trace, the per-replica cycle totals
// and every deterministic metric must be bit-identical across the sweep —
// the command verifies this itself, reports trace_equal_across_workers and
// exits nonzero if it is false; cmd/bench-check fails CI if any
// deterministic metric drifts from the committed baseline.
//
// The overload lab spec additionally runs a WithoutAdmission contrast arm:
// the same spike with the controller stripped. Admission on must bound the
// final backlog; admission off must let it grow past 8× that bound — the
// admission_contrast block records both figures and contrast_ok.
//
// Usage:
//
//	app-bench [-workers 1,2,4,8] [-ticks N] [-json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"securecloud/internal/microsvc"
)

type scenarioOut struct {
	Name                    string   `json:"name"`
	Ticks                   int      `json:"ticks"`
	WorkerCounts            []int    `json:"worker_counts"`
	TraceEqualAcrossWorkers bool     `json:"trace_equal_across_workers"`
	TraceHash               string   `json:"trace_hash"`
	Trace                   []string `json:"trace"`

	Sent               int     `json:"sent"`
	Served             uint64  `json:"served"`
	Failed             uint64  `json:"failed"`
	Backlog            int     `json:"backlog"`
	Launched           int     `json:"replicas_launched"`
	FinalReplicas      int     `json:"final_replicas"`
	RequestsPerReplica float64 `json:"requests_per_replica"`

	SerialCycles   uint64  `json:"sim_cycles_serial"`
	CriticalCycles uint64  `json:"sim_cycles_critical"`
	SimSpeedup     float64 `json:"sim_speedup"`
	Faults         uint64  `json:"faults"`
	FrontCycles    uint64  `json:"sim_cycles_front"`

	InjectTick        int     `json:"inject_tick"`
	FirstReactionTick int     `json:"first_reaction_tick"`
	AdaptLatencySimMS float64 `json:"adapt_latency_sim_ms"`
	WallNS            int64   `json:"wall_ns"`
}

// labOut is one declarative lab scenario's record: the worker-sweep
// determinism verdict, the spec's own assertion verdict, and the full
// deterministic metric table (admission, retry and per-tenant figures
// included).
type labOut struct {
	Name                    string   `json:"name"`
	Ticks                   int      `json:"ticks"`
	WorkerCounts            []int    `json:"worker_counts"`
	TraceEqualAcrossWorkers bool     `json:"trace_equal_across_workers"`
	TraceHash               string   `json:"trace_hash"`
	AssertionsPassed        bool     `json:"assertions_passed"`
	AssertionFailures       []string `json:"assertion_failures,omitempty"`

	Served           uint64 `json:"served"`
	Shed             uint64 `json:"shed"`
	Splits           uint64 `json:"splits"`
	RetriesSent      uint64 `json:"retries_sent"`
	RetriesAbandoned uint64 `json:"retries_abandoned"`
	Backlog          int    `json:"backlog"`

	Metrics map[string]float64 `json:"metrics"`
	WallNS  int64              `json:"wall_ns"`
}

// contrastOut is the overload A/B: identical spike, admission on vs
// stripped (WithoutAdmission). ContrastOK is the robustness statement the
// command enforces: with admission the backlog stays bounded, without it
// the backlog diverges.
type contrastOut struct {
	Scenario                string  `json:"scenario"`
	AdmissionBacklogFinal   float64 `json:"admission_backlog_final"`
	AdmissionShed           float64 `json:"admission_shed"`
	AdmissionMaxWaitSimMS   float64 `json:"admission_max_wait_sim_ms"`
	NoAdmissionBacklogFinal float64 `json:"noadmission_backlog_final"`
	NoAdmissionServed       float64 `json:"noadmission_served"`
	ContrastOK              bool    `json:"contrast_ok"`
}

func main() {
	workersFlag := flag.String("workers", "1,2,4,8", "comma-separated worker counts to sweep (execution-only)")
	ticks := flag.Int("ticks", 0, "override scenario tick count (0 = scenario default)")
	jsonOut := flag.Bool("json", false, "emit results as JSON")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "app-bench: "+format+"\n", args...)
		os.Exit(1)
	}

	var workerCounts []int
	for _, f := range strings.Split(*workersFlag, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || w <= 0 {
			fail("bad -workers value %q", f)
		}
		workerCounts = append(workerCounts, w)
	}
	if len(workerCounts) == 0 {
		fail("empty -workers sweep")
	}

	out := struct {
		Scenarios     []scenarioOut      `json:"scenarios"`
		Lab           []labOut           `json:"lab_scenarios"`
		Contrast      *contrastOut       `json:"admission_contrast,omitempty"`
		Deterministic map[string]float64 `json:"deterministic"`
	}{Deterministic: make(map[string]float64)}

	allEqual := true
	for _, sc := range microsvc.DefaultScenarios() {
		if *ticks > 0 {
			sc.Ticks = *ticks
		}
		var so scenarioOut
		var ref microsvc.ScenarioResult
		equal := true
		start := time.Now()
		for i, w := range workerCounts {
			sc.Workers = w
			res, err := microsvc.RunSpec(sc)
			if err != nil {
				fail("scenario %s workers=%d: %v", sc.Name, w, err)
			}
			if i == 0 {
				ref = res
				continue
			}
			if res.TraceHash != ref.TraceHash ||
				res.SerialCycles != ref.SerialCycles ||
				res.CriticalCycles != ref.CriticalCycles ||
				res.Faults != ref.Faults ||
				res.Served != ref.Served ||
				res.FrontCycles != ref.FrontCycles {
				equal = false
				fmt.Fprintf(os.Stderr,
					"app-bench: scenario %s NONDETERMINISTIC at workers=%d (trace %s vs %s, cycles %d vs %d)\n",
					sc.Name, w, res.TraceHash, ref.TraceHash, res.SerialCycles, ref.SerialCycles)
			}
		}
		so = scenarioOut{
			Name:                    ref.Name,
			Ticks:                   ref.Ticks,
			WorkerCounts:            workerCounts,
			TraceEqualAcrossWorkers: equal,
			TraceHash:               ref.TraceHash,
			Trace:                   ref.Trace,
			Sent:                    ref.Sent,
			Served:                  ref.Served,
			Failed:                  ref.Failed,
			Backlog:                 ref.Backlog,
			Launched:                ref.Launched,
			FinalReplicas:           ref.FinalReplicas,
			RequestsPerReplica:      ref.RequestsPerReplica,
			SerialCycles:            uint64(ref.SerialCycles),
			CriticalCycles:          uint64(ref.CriticalCycles),
			SimSpeedup:              ref.SimSpeedup,
			Faults:                  ref.Faults,
			FrontCycles:             uint64(ref.FrontCycles),
			InjectTick:              ref.InjectTick,
			FirstReactionTick:       ref.FirstReactionTick,
			AdaptLatencySimMS:       ref.AdaptLatencySimMS,
			WallNS:                  time.Since(start).Nanoseconds() / int64(len(workerCounts)),
		}
		out.Scenarios = append(out.Scenarios, so)
		allEqual = allEqual && equal

		p := func(metric string, v float64) {
			out.Deterministic[ref.Name+"_"+metric] = v
		}
		p("served", float64(ref.Served))
		p("failed", float64(ref.Failed))
		p("backlog", float64(ref.Backlog))
		p("replicas_launched", float64(ref.Launched))
		p("final_replicas", float64(ref.FinalReplicas))
		p("requests_per_replica", ref.RequestsPerReplica)
		p("sim_cycles_serial", float64(ref.SerialCycles))
		p("sim_cycles_critical", float64(ref.CriticalCycles))
		p("sim_cycles_front", float64(ref.FrontCycles))
		p("faults", float64(ref.Faults))
		p("trace_len", float64(len(ref.Trace)))
		p("first_reaction_tick", float64(ref.FirstReactionTick))
		p("adapt_latency_sim_ms", ref.AdaptLatencySimMS)
	}

	// Declarative lab matrix: every metric in the result table must be
	// bit-identical across the worker sweep, and every spec's assertion
	// table must pass. Both verdicts land in the JSON; either failing
	// fails the command.
	allAsserted := true
	var overloadRef microsvc.ScenarioResult
	for _, spec := range append(microsvc.LabScenarios(), microsvc.ClusterLabScenarios()...) {
		if *ticks > 0 {
			spec.Ticks = *ticks
		}
		var ref microsvc.ScenarioResult
		equal := true
		start := time.Now()
		for i, w := range workerCounts {
			spec.Workers = w
			res, err := microsvc.RunSpec(spec)
			if err != nil {
				fail("lab scenario %s workers=%d: %v", spec.Name, w, err)
			}
			if i == 0 {
				ref = res
				continue
			}
			if res.TraceHash != ref.TraceHash || !metricsEqual(res.Metrics, ref.Metrics) {
				equal = false
				fmt.Fprintf(os.Stderr,
					"app-bench: lab scenario %s NONDETERMINISTIC at workers=%d (trace %s vs %s)\n",
					spec.Name, w, res.TraceHash, ref.TraceHash)
			}
		}
		if spec.Name == "overload" {
			overloadRef = ref
		}
		out.Lab = append(out.Lab, labOut{
			Name:                    ref.Name,
			Ticks:                   ref.Ticks,
			WorkerCounts:            workerCounts,
			TraceEqualAcrossWorkers: equal,
			TraceHash:               ref.TraceHash,
			AssertionsPassed:        ref.AssertionsPassed,
			AssertionFailures:       ref.AssertionFailures,
			Served:                  ref.Served,
			Shed:                    ref.Shed,
			Splits:                  ref.Splits,
			RetriesSent:             ref.RetriesSent,
			RetriesAbandoned:        ref.RetriesAbandoned,
			Backlog:                 ref.Backlog,
			Metrics:                 ref.Metrics,
			WallNS:                  time.Since(start).Nanoseconds() / int64(len(workerCounts)),
		})
		allEqual = allEqual && equal
		allAsserted = allAsserted && ref.AssertionsPassed
		for _, f := range ref.AssertionFailures {
			fmt.Fprintf(os.Stderr, "app-bench: lab scenario %s ASSERTION FAILED: %s\n", ref.Name, f)
		}
		for m, v := range ref.Metrics {
			out.Deterministic["lab_"+ref.Name+"_"+m] = v
		}
		out.Deterministic["lab_"+ref.Name+"_assertions_passed"] = b2f(ref.AssertionsPassed)
	}

	// Contrast arm: the overload spike without the admission controller.
	// The run is deterministic, so one worker count suffices.
	if overloadRef.Name != "" && *ticks == 0 {
		for _, spec := range microsvc.LabScenarios() {
			if spec.Name != "overload" {
				continue
			}
			noadm := spec.WithoutAdmission()
			noadm.Workers = workerCounts[0]
			res, err := microsvc.RunSpec(noadm)
			if err != nil {
				fail("contrast arm %s: %v", noadm.Name, err)
			}
			admBacklog := overloadRef.Metrics["backlog_final"]
			noBacklog := res.Metrics["backlog_final"]
			c := &contrastOut{
				Scenario:                spec.Name,
				AdmissionBacklogFinal:   admBacklog,
				AdmissionShed:           overloadRef.Metrics["shed"],
				AdmissionMaxWaitSimMS:   overloadRef.Metrics["max_wait_sim_ms"],
				NoAdmissionBacklogFinal: noBacklog,
				NoAdmissionServed:       res.Metrics["served"],
				ContrastOK: overloadRef.Shed > 0 &&
					noBacklog >= 8*math.Max(1, admBacklog),
			}
			out.Contrast = c
			out.Deterministic["overload_noadm_backlog_final"] = noBacklog
			out.Deterministic["overload_noadm_served"] = res.Metrics["served"]
			out.Deterministic["overload_contrast_ok"] = b2f(c.ContrastOK)
			if !c.ContrastOK {
				fmt.Fprintf(os.Stderr,
					"app-bench: CONTRAST BROKEN: admission backlog %.0f vs no-admission backlog %.0f (shed %.0f)\n",
					admBacklog, noBacklog, overloadRef.Metrics["shed"])
			}
			allAsserted = allAsserted && c.ContrastOK
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fail("%v", err)
		}
	} else {
		for _, so := range out.Scenarios {
			fmt.Printf("%-14s served=%-5d launched=%d final=%d req/replica=%.1f latency=%.1f sim-ms speedup=%.2fx det=%v\n",
				so.Name, so.Served, so.Launched, so.FinalReplicas,
				so.RequestsPerReplica, so.AdaptLatencySimMS, so.SimSpeedup,
				so.TraceEqualAcrossWorkers)
		}
		for _, lo := range out.Lab {
			fmt.Printf("lab:%-14s served=%-5d shed=%-5d splits=%-4d retries=%d/%d backlog=%d det=%v asserts=%v\n",
				lo.Name, lo.Served, lo.Shed, lo.Splits,
				lo.RetriesSent, lo.RetriesAbandoned, lo.Backlog,
				lo.TraceEqualAcrossWorkers, lo.AssertionsPassed)
		}
		if c := out.Contrast; c != nil {
			fmt.Printf("contrast:%s admission backlog=%.0f (shed=%.0f, max-wait=%.0f sim-ms) vs no-admission backlog=%.0f ok=%v\n",
				c.Scenario, c.AdmissionBacklogFinal, c.AdmissionShed,
				c.AdmissionMaxWaitSimMS, c.NoAdmissionBacklogFinal, c.ContrastOK)
		}
	}
	if !allEqual {
		fail("adaptation traces differ across worker counts")
	}
	if !allAsserted {
		fail("lab scenario assertions or the admission contrast failed")
	}
}

// metricsEqual reports whether two deterministic metric tables are
// bit-identical — same keys, same float64 values.
func metricsEqual(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || v != w {
			return false
		}
	}
	return true
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
