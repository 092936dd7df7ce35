package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestExtract(t *testing.T) {
	for _, tc := range []struct {
		name         string
		doc          string
		want         map[string]float64
		wantProblems []string
	}{
		{
			name: "bench suffix trimmed",
			doc:  `{"kv_bench": {"deterministic": {"kv_put_faults": 12}, "kv": {"results_match_plain": true}}}`,
			want: map[string]float64{"kv.kv_put_faults": 12},
		},
		{
			name: "figure3 section",
			doc: `{"figure3": {"wall_clock_seconds": 3.2, "points": [{"OccupancyMB": 60}],
				"deterministic": {"60mb.TimeRatio": 1.15, "60mb.InsideFaults": 0}}}`,
			want: map[string]float64{"figure3.60mb.TimeRatio": 1.15, "figure3.60mb.InsideFaults": 0},
		},
		{
			name: "section without deterministic ignored",
			doc:  `{"wire_timing": {"mode": "timing", "transports": {"http": {"payload_64": {"p50_us": 200}}}}, "host_cpus": 2}`,
			want: map[string]float64{},
		},
		{
			name: "go_bench units normalised and wall units skipped",
			doc: `{"go_bench": [
				"BenchmarkCacheMissVsSwap/store=40MB-2   1   99000 ns/op   0 faults/match   112620 sim-cycles/match",
				"BenchmarkBrokerPublishParallel-4   2000   5100 ns/op   64 B/op   1 allocs/op   3.04 sim-speedup"]}`,
			want: map[string]float64{
				"cachemiss.store=40MB.faults_per_match":     0,
				"cachemiss.store=40MB.sim_cycles_per_match": 112620,
				"broker.sim_speedup":                        3.04,
			},
		},
		{
			name: "cross-cpu disagreement",
			doc: `{"go_bench": [
				"BenchmarkBrokerPublishParallel     2000   9000 ns/op   82.64 faults/match",
				"BenchmarkBrokerPublishParallel-4   2000   5000 ns/op   83 faults/match"]}`,
			want:         map[string]float64{"broker.faults_per_match": 82.64},
			wantProblems: []string{"broker.faults_per_match differs across -cpu runs"},
		},
		{
			name:         "unknown benchmark",
			doc:          `{"go_bench": ["BenchmarkOther-2   1   10 ns/op   5 sim-cycles/op"]}`,
			want:         map[string]float64{},
			wantProblems: []string{"BenchmarkOther has no metric prefix"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var doc map[string]any
			if err := json.Unmarshal([]byte(tc.doc), &doc); err != nil {
				t.Fatal(err)
			}
			got, problems := extract(doc)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("metrics = %v, want %v", got, tc.want)
			}
			if len(problems) != len(tc.wantProblems) {
				t.Fatalf("problems = %q, want %d matching %q", problems, len(tc.wantProblems), tc.wantProblems)
			}
			for i, want := range tc.wantProblems {
				if !strings.Contains(problems[i], want) {
					t.Errorf("problem %d = %q, want it to contain %q", i, problems[i], want)
				}
			}
		})
	}
}

func TestCompareMissingMetricIsDrift(t *testing.T) {
	base := map[string]float64{"figure3.60mb.TimeRatio": 1.15, "kv.kv_put_faults": 12}
	got := map[string]float64{"kv.kv_put_faults": 12}
	drift := compare(got, base, "bench.json")
	if len(drift) != 1 || !strings.Contains(drift[0], "baseline metric figure3.60mb.TimeRatio missing") {
		t.Fatalf("drift = %q, want one missing-metric report", drift)
	}
	if drift := compare(base, base, "bench.json"); len(drift) != 0 {
		t.Fatalf("identical metrics drifted: %q", drift)
	}
}
