package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"sort"
	"strconv"
)

// metricDef names one reported metric. The lists below are the ones
// BENCHMARK.json declares (a test keeps the two in step).
type metricDef struct {
	Name string
	Unit string
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"sim_cycles_per_op", "cycles"},
}

// wallMetrics are the wall-clock figures of the whole stack. On a host
// whose steal swings between runs they move by more than any allowed bound
// (see README.md), so they are reported unbounded, first among the
// per-layer metrics, and printed on every run.
var wallMetrics = []metricDef{
	{"ops_per_s", "1/s"},
	{"p50_us", "us"},
	{"p99_us", "us"},
	{"cpu_us_per_op", "us"},
}

var perLayerMetrics = append(append([]metricDef(nil), wallMetrics...), []metricDef{
	{"wire.send_us", "us"},
	{"wire.poll_us", "us"},
	{"wire.handler_us", "us"},
	{"wire.empty_poll_frac", "frac"},
	{"wire.bytes_per_op", "B"},
	{"microsvc.seal_us", "us"},
	{"microsvc.open_us", "us"},
	{"microsvc.step_us", "us"},
	{"microsvc.steps_per_op", "count"},
	{"microsvc.admission_wait_p95_ms", "sim-ms"},
	{"microsvc.front_cycles_per_op", "cycles"},
	{"microsvc.replica_cycles_per_op", "cycles"},
	{"microsvc.launch_s", "s"},
	{"scbr.publish_us", "us"},
	{"scbr.subscribe_us", "us"},
	{"scbr.checks_per_publish", "count"},
	{"scbr.cycles_per_publish", "cycles"},
	{"scbr.cycles_per_subscribe", "cycles"},
	{"scbr.deliveries_per_publish", "count"},
	{"scbr.store_mb", "MB"},
	{"scbr.preload_s", "s"},
	{"enclave.faults_per_op", "count"},
	{"kvstore.put_us", "us"},
	{"kvstore.get_us", "us"},
	{"kvstore.cycles_per_put", "cycles"},
	{"kvstore.cycles_per_get", "cycles"},
	{"kvstore.wal_bytes_per_user_byte", "ratio"},
	{"kvstore.snapshot_ms", "ms"},
	{"kvstore.snapshot_bytes_per_user_byte", "ratio"},
	{"kvstore.shards_reused_frac", "frac"},
	{"kvstore.gc_ms", "ms"},
	{"kvstore.gc_bytes_retired", "B"},
	{"kvstore.scan_ms", "ms"},
	{"kvstore.recover_chunks_fetched", "count"},
	{"kvstore.replay_records", "count"},
	{"kvstore.recover_cycles", "cycles"},
	{"mapreduce.run_ms", "ms"},
	{"mapreduce.map_cycles", "cycles"},
	{"mapreduce.reduce_cycles", "cycles"},
	{"mapreduce.sim_speedup", "x"},
	{"batch_s", "s"},
	{"recover_s", "s"},
	{"bench.self_us", "us"},
	{"wire.self_us", "us"},
	{"microsvc.self_us", "us"},
	{"scbr.self_us", "us"},
	{"kvstore.self_us", "us"},
	{"mapreduce.self_us", "us"},
	{"trace.overhead_frac", "frac"},
	{"trace.spans_per_op", "count"},
	{"host.steal_frac", "frac"},
}...)

// spanMetrics derives per-call layer timings from spans: the mean span
// duration (or mean self time) per call, scaled from ns to the unit.
var spanMetrics = []struct {
	span, metric string
	self         bool
	scale        float64
}{
	{"wire.send", "wire.send_us", false, 1e-3},
	{"wire.poll", "wire.poll_us", false, 1e-3},
	{"wire.handler", "wire.handler_us", false, 1e-3},
	{"microsvc.send", "microsvc.seal_us", true, 1e-3},
	{"microsvc.poll", "microsvc.open_us", true, 1e-3},
	{"microsvc.step", "microsvc.step_us", false, 1e-3},
	{"scbr.publish", "scbr.publish_us", false, 1e-3},
	{"scbr.subscribe", "scbr.subscribe_us", false, 1e-3},
	{"kvstore.put", "kvstore.put_us", false, 1e-3},
	{"kvstore.get", "kvstore.get_us", false, 1e-3},
	{"kvstore.snapshot", "kvstore.snapshot_ms", false, 1e-6},
	{"kvstore.gc", "kvstore.gc_ms", false, 1e-6},
	{"kvstore.scan", "kvstore.scan_ms", false, 1e-6},
	{"mapreduce.run", "mapreduce.run_ms", false, 1e-6},
}

// spanLayers are the layers self time is reported for ("bench" is the
// benchmark's own client glue around the calls).
var spanLayers = []string{"bench", "wire", "microsvc", "scbr", "kvstore", "mapreduce"}

// quantile returns the q-quantile of sorted by the nearest-rank rule: the
// smallest sample with at least q·n samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}

// median returns the middle of vs (mean of the two middles when even).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// throughput is completed ops per measured wall second over rounds.
func throughput(rounds []*round) float64 {
	var ops, secs float64
	for _, r := range rounds {
		ops += float64(r.ops)
		secs += r.measured().Seconds()
	}
	return ratio(ops, secs)
}

// leastStolen returns the quarter of ws (rounded up, and at least two
// where there are two) that saw the least host steal. Steal on this class
// of host comes in episodes of seconds that slow every layer at once; the
// rounds the other windows belong to are still checked for correctness and
// determinism, those windows just do not set the wall-clock figures.
func leastStolen(ws []window) []window {
	ws = append([]window(nil), ws...)
	sort.SliceStable(ws, func(a, b int) bool { return ws[a].steal.stealFrac() < ws[b].steal.stealFrac() })
	return ws[:min(len(ws), max(2, (len(ws)+3)/4))]
}

// windowFigures are one window's wall-clock figures: throughput, latency
// quantiles from its raw samples, and CPU per op.
func windowFigures(w window) map[string]float64 {
	lat := append([]float64(nil), w.lat...)
	sort.Float64s(lat)
	return map[string]float64{
		"ops_per_s":     ratio(float64(w.ops), w.measured.Seconds()),
		"p50_us":        quantile(lat, 0.50),
		"p99_us":        quantile(lat, 0.99),
		"cpu_us_per_op": ratio(w.cpu.Seconds()*1e6, float64(w.ops)),
	}
}

// setupTime is the median wall time of the least stolen stack builds.
func setupTime(rounds []*round) float64 {
	var all []window
	for _, r := range rounds {
		all = append(all, r.setups...)
	}
	var ds []float64
	for _, w := range leastStolen(all) {
		ds = append(ds, w.measured.Seconds())
	}
	return median(ds)
}

// wallFigures reduces the kept windows: throughput and CPU per op as the
// median of the windows' own, latency quantiles from all their raw samples
// pooled.
func wallFigures(kept []window) map[string]float64 {
	var opsPerS, cpuPerOp, lat []float64
	for _, w := range kept {
		f := windowFigures(w)
		opsPerS = append(opsPerS, f["ops_per_s"])
		cpuPerOp = append(cpuPerOp, f["cpu_us_per_op"])
		lat = append(lat, w.lat...)
	}
	sort.Float64s(lat)
	return map[string]float64{
		"ops_per_s":     median(opsPerS),
		"p50_us":        quantile(lat, 0.50),
		"p99_us":        quantile(lat, 0.99),
		"cpu_us_per_op": median(cpuPerOp),
	}
}

// endToEnd is set-up time and the modeled cycles per op: the two figures
// that hold steady from run to run on a host whose steal varies.
func endToEnd(rounds []*round) map[string]float64 {
	out := map[string]float64{"setup_s": setupTime(rounds)}
	if len(rounds) > 0 {
		out["sim_cycles_per_op"] = rounds[0].det["sim_cycles_per_op"]
	}
	return out
}

// perLayer reduces a traced run: the wall-clock figures of its untraced
// rounds, deterministic layer metrics from the first round, directly timed
// ones as the median over all rounds, span timings and self times from
// the traced rounds, and the tracing overhead as the untraced-to-traced
// throughput ratio minus one.
func perLayer(wall map[string]float64, untraced, traced []*round) map[string]float64 {
	out := map[string]float64{}
	for k, v := range wall {
		out[k] = v
	}
	all := append(append([]*round(nil), untraced...), traced...)
	for k, v := range all[0].det {
		out[k] = v
	}
	timed := map[string][]float64{}
	for _, r := range all {
		for k, v := range r.layer {
			timed[k] = append(timed[k], v)
		}
	}
	for k, vs := range timed {
		out[k] = median(vs)
	}
	out["host.steal_frac"] = stealOf(all)

	type acc struct {
		n         int
		dur, self int64
	}
	byName := map[string]*acc{}
	layerSelf := map[string]int64{}
	ops, nspans := 0, 0
	for _, r := range traced {
		ops += r.ops
		nspans += len(r.spans)
		// Span IDs are per round: self times are computed round by round.
		self := selfTimes(r.spans)
		for i, s := range r.spans {
			a := byName[s.name]
			if a == nil {
				a = &acc{}
				byName[s.name] = a
			}
			a.n++
			a.dur += s.end - s.start
			a.self += self[i]
			layerSelf[s.layer()] += self[i]
		}
	}
	for _, m := range spanMetrics {
		a := byName[m.span]
		if a == nil || a.n == 0 {
			continue
		}
		v := a.dur
		if m.self {
			v = a.self
		}
		out[m.metric] = float64(v) / float64(a.n) * m.scale
	}
	for _, l := range spanLayers {
		out[l+".self_us"] = ratio(float64(layerSelf[l])/1e3, float64(ops))
	}
	out["trace.spans_per_op"] = ratio(float64(nspans), float64(ops))
	if t := throughput(traced); t > 0 {
		out["trace.overhead_frac"] = throughput(untraced)/t - 1
	}
	return out
}

// fingerprint hashes a deterministic metric map, so runs of one seed can
// be compared across processes by a single string.
func fingerprint(det map[string]float64) string {
	h := sha256.New()
	for _, k := range sortedKeys(det) {
		h.Write([]byte(k + "=" + strconv.FormatFloat(det[k], 'g', -1, 64) + "\n"))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
