// Command wire-bench measures the HTTP front end (internal/wire) with the
// closed-loop load harness (internal/loadgen): a seeded client population
// drives an admission-controlled ReplicaSet through warmup/inject/recover
// phases over real HTTP on a loopback listener, and an SCBR
// subscribe/publish/poll workload runs through the same server. A second,
// freshly built stack replays the identical workload; every deterministic
// counter must match bit-for-bit (runs_equal), because the counters are
// pure functions of the seed — HTTP moves the bytes but decides nothing.
//
// The command exits nonzero when the runs differ, when a request is never
// answered (plane_lost) or when the gateway rejects a well-formed frame
// (gw_rejected). The JSON splits cleanly: "deterministic" (sent/served/shed,
// bytes, payload-size histogram buckets, sim-cycle totals, SCBR delivery
// counts) is gated by cmd/bench-check against the committed baseline;
// "wallclock" (latency quantiles, throughput) measures the host and is
// informational.
//
// With -pprof the serving process exposes /debug/pprof on the same
// listener for profiling a longer -ticks run.
//
// Usage:
//
//	wire-bench [-json] [-ticks N] [-pprof]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"time"

	"securecloud/internal/attest"
	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/eventbus"
	"securecloud/internal/loadgen"
	"securecloud/internal/microsvc"
	"securecloud/internal/scbr"
	"securecloud/internal/stats"
	"securecloud/internal/wire"
)

const serviceName = "plane/wire-bench"

// authToken gates the bench server's /scbr/* and /plane/* surface so the
// measured path is the secured one (bearer check on every request).
const authToken = "wire-bench-token"

// planeDriver adapts the HTTP plane clients to the loadgen Driver.
type planeDriver struct {
	rs      *microsvc.ReplicaSet
	clients []*microsvc.PlaneClient
}

func (d *planeDriver) Send(client int, tenant string, reqs []loadgen.Request) ([]uint64, error) {
	pr := make([]microsvc.PlaneRequest, len(reqs))
	for i, r := range reqs {
		pr[i] = microsvc.PlaneRequest{Key: r.Key, Body: r.Body}
	}
	return d.clients[client].SendTenantIDs(tenant, pr)
}

func (d *planeDriver) Poll(client int) ([]loadgen.Reply, error) {
	reps, err := d.clients[client].Poll(0)
	if err != nil {
		return nil, err
	}
	out := make([]loadgen.Reply, len(reps))
	for i, r := range reps {
		out[i] = loadgen.Reply{ID: r.ID, Shed: r.Shed}
	}
	return out, nil
}

func (d *planeDriver) Step() error {
	_, err := d.rs.Step()
	return err
}

// stack is one fully built serving stack: attested plane + broker behind
// one wire server on a loopback listener.
type stack struct {
	bus    *eventbus.Bus
	rs     *microsvc.ReplicaSet
	gw     *wire.PlaneGateway
	broker *scbr.Broker
	keys   attest.ServiceKeys
	svc    *attest.Service
	policy attest.Policy
	srv    *http.Server
	url    string
}

func buildStack(inject int, pprofOn bool) (*stack, error) {
	bus := eventbus.New()
	svc := attest.NewService()
	kb := attest.NewKeyBroker(svc)
	var root cryptbox.Key
	root[0] = 0x9E
	keys, err := microsvc.NewServiceKeys(root, serviceName, "wire/req", "wire/resp")
	if err != nil {
		return nil, err
	}
	kb.Register(serviceName, attest.Policy{AllowedMRSigner: []cryptbox.Digest{microsvc.ReplicaSigner(serviceName)}}, keys)
	rs, err := microsvc.NewReplicaSet(bus, svc, kb, serviceName,
		func(req []byte) ([]byte, error) { return append([]byte("ok:"), req...), nil },
		microsvc.ReplicaSetConfig{
			Replicas: 2, InTopic: "wire/req", OutTopic: "wire/resp",
			Admission: &microsvc.AdmissionConfig{
				// Rate 2/tick with a 4-deep queue per tenant: the warmup
				// and recover phases (1 req/tick) sail through, the inject
				// phase (4 req/tick) saturates the bucket and sheds — the
				// deterministic overload the histogram should show.
				Default:         microsvc.TenantPolicy{Weight: 1, Rate: 2, Burst: 2, MaxQueue: 4},
				DispatchPerStep: inject,
			},
		})
	if err != nil {
		return nil, err
	}
	gw, err := wire.NewPlaneGateway(bus, serviceName, keys, "wire/req", "wire/resp")
	if err != nil {
		rs.Stop()
		return nil, err
	}

	p := enclave.NewPlatform(enclave.Config{})
	var signer cryptbox.Digest
	signer[0] = 0x5C
	e, err := p.ECreate(64<<20, signer)
	if err != nil {
		rs.Stop()
		return nil, err
	}
	if _, err := e.EAdd([]byte("scbr-broker-v1")); err != nil {
		rs.Stop()
		return nil, err
	}
	if err := e.EInit(); err != nil {
		rs.Stop()
		return nil, err
	}
	broker, err := scbr.NewBroker(e, scbr.DefaultBrokerConfig())
	if err != nil {
		rs.Stop()
		return nil, err
	}
	quoter, err := svc.Provision(p, "wire-bench-platform")
	if err != nil {
		rs.Stop()
		return nil, err
	}

	ws := wire.NewServer(wire.Config{
		Broker: broker, Quoter: quoter, AuthToken: authToken,
		Sources: []stats.Source{rs}, Pprof: pprofOn,
	})
	ws.RegisterPlane(serviceName, gw)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rs.Stop()
		return nil, err
	}
	srv := &http.Server{Handler: ws.Handler()}
	go func() { _ = srv.Serve(ln) }()
	return &stack{
		bus: bus, rs: rs, gw: gw, broker: broker, keys: keys, svc: svc,
		policy: attest.Policy{AllowedMRSigner: []cryptbox.Digest{signer}},
		srv:    srv, url: "http://" + ln.Addr().String(),
	}, nil
}

func (s *stack) close() {
	_ = s.srv.Close()
	s.gw.Close()
	s.rs.Stop()
}

// runOnce builds a fresh stack, replays the whole workload over HTTP, and
// returns the deterministic counter map plus the informational wall-clock
// figures. A nonzero rps switches the generator open-loop: requests arrive
// at the target aggregate rate (inject at 4×) on the generator's clock
// instead of one batch per closed-loop round trip.
func runOnce(ticks int, rps float64, pprofOn bool) (map[string]float64, map[string]float64, error) {
	s, err := buildStack(64, pprofOn)
	if err != nil {
		return nil, nil, err
	}
	defer s.close()

	const clients = 4
	spec := loadgen.Spec{
		Clients:    clients,
		Seed:       1109,
		Keys:       32,
		Tenants:    []string{"t0", "t1", "t2", "t3"},
		PayloadMin: 48,
		PayloadMax: 768,
		Phases: []loadgen.Phase{
			{Name: "warmup", Ticks: ticks, PerClient: 1},
			{Name: "inject", Ticks: 2 * ticks, PerClient: 4},
			{Name: "recover", Ticks: ticks, PerClient: 1},
		},
		DrainTicks: 3 * ticks,
	}
	if rps > 0 {
		spec.OpenLoop = &loadgen.OpenLoopSpec{TargetRPS: rps}
	}
	drv := &planeDriver{rs: s.rs}
	for c := 0; c < clients; c++ {
		tr := wire.NewPlaneTransport(s.url, serviceName, http.DefaultClient).WithAuth(authToken)
		pc, err := microsvc.NewPlaneClientTransport(serviceName, s.keys.Request, tr)
		if err != nil {
			return nil, nil, err
		}
		defer pc.Close()
		drv.clients = append(drv.clients, pc)
	}
	res, err := loadgen.Run(spec, drv)
	if err != nil {
		return nil, nil, err
	}

	// SCBR over the same server: six subscribers on adjacent price bands,
	// one publisher sweeping the range — every delivery count is a pure
	// function of the band layout. Every dial attests the broker enclave
	// against the bench's signer policy before handing over its filters,
	// so the measured path includes the wire attestation round trip.
	dialOpts := wire.SCBRDialOpts{Auth: authToken, Service: s.svc, Policy: s.policy}
	sub := make([]*wire.SCBRClient, 6)
	var delivered, polled int
	for i := range sub {
		sc, err := wire.DialSCBROpts(s.url, fmt.Sprintf("sub-%d", i), http.DefaultClient, dialOpts)
		if err != nil {
			return nil, nil, err
		}
		if _, err := sc.Subscribe(scbr.Subscription{Preds: []scbr.Predicate{
			{Attr: "price", Interval: scbr.Interval{Lo: float64(i * 10), Hi: float64(i*10 + 14)}},
		}}); err != nil {
			return nil, nil, err
		}
		sub[i] = sc
	}
	pubc, err := wire.DialSCBROpts(s.url, "pub-0", http.DefaultClient, dialOpts)
	if err != nil {
		return nil, nil, err
	}
	for v := 0; v < 60; v += 3 {
		n, err := pubc.Publish(scbr.Event{Attrs: map[string]float64{"price": float64(v)}, Payload: []byte{byte(v)}})
		if err != nil {
			return nil, nil, err
		}
		delivered += n
	}
	for _, sc := range sub {
		evs, err := sc.Poll()
		if err != nil {
			return nil, nil, err
		}
		polled += len(evs)
	}

	det := map[string]float64{
		"plane_sent":       float64(res.Sent),
		"plane_served":     float64(res.Served),
		"plane_shed":       float64(res.Shed),
		"plane_lost":       float64(res.Lost),
		"bytes_sent":       float64(res.BytesSent),
		"phase_warmup":     float64(res.PhaseSent["warmup"]),
		"phase_inject":     float64(res.PhaseSent["inject"]),
		"phase_recover":    float64(res.PhaseSent["recover"]),
		"scbr_delivered":   float64(delivered),
		"scbr_polled":      float64(polled),
		"scbr_subscribers": float64(len(sub)),
	}
	for i, c := range res.Sizes.BucketCounts() {
		det[fmt.Sprintf("sizehist_b%02d", i)] = float64(c)
	}
	for k, v := range s.rs.Snapshot() {
		det["sim_"+k] = v
	}
	for k, v := range s.gw.Snapshot() {
		det["gw_"+k] = v
	}

	lat := res.Latency
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	wall := map[string]float64{
		"p50_us":     us(lat.Quantile(0.50)),
		"p95_us":     us(lat.Quantile(0.95)),
		"p99_us":     us(lat.Quantile(0.99)),
		"max_us":     us(lat.Max()),
		"mean_us":    lat.Mean() / 1e3,
		"elapsed_ms": float64(res.Elapsed.Milliseconds()),
		"rps":        float64(res.Sent) / res.Elapsed.Seconds(),
	}
	return det, wall, nil
}

// timingQuantiles summarizes one latency histogram for the timing report.
func timingQuantiles(h *loadgen.Histogram) map[string]float64 {
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	return map[string]float64{
		"p50_us":  us(h.Quantile(0.50)),
		"p95_us":  us(h.Quantile(0.95)),
		"max_us":  us(h.Max()),
		"mean_us": h.Mean() / 1e3,
	}
}

// runTiming measures per-request round-trip latency through two paths to
// the same plane — the HTTP PlaneTransport on a loopback listener vs an
// in-process PlaneClient on the event bus — across payload sizes, one
// request per step so queueing never blurs the transport cost. Everything
// it reports is wall-clock: informational only, never gated.
func runTiming(requests int, sizes []int) (map[string]map[string]map[string]float64, error) {
	s, err := buildStack(64, false)
	if err != nil {
		return nil, err
	}
	defer s.close()

	httpTr := wire.NewPlaneTransport(s.url, serviceName, http.DefaultClient).WithAuth(authToken)
	httpClient, err := microsvc.NewPlaneClientTransport(serviceName, s.keys.Request, httpTr)
	if err != nil {
		return nil, err
	}
	defer httpClient.Close()
	busClient, err := microsvc.NewPlaneClient(s.bus, serviceName, s.keys, "wire/req", "wire/resp")
	if err != nil {
		return nil, err
	}
	defer busClient.Close()

	out := map[string]map[string]map[string]float64{
		"http":   make(map[string]map[string]float64),
		"inproc": make(map[string]map[string]float64),
	}
	measure := func(c *microsvc.PlaneClient, size int) (*loadgen.Histogram, error) {
		h := loadgen.NewHistogram(loadgen.LatencyBounds())
		body := make([]byte, size)
		for i := range body {
			body[i] = byte(i)
		}
		for r := 0; r < requests; r++ {
			t0 := time.Now()
			// Tenant rotation keeps the admission bucket (rate 2/tick) from
			// ever shedding the serial probe stream.
			tenant := fmt.Sprintf("t%d", r%4)
			if _, err := c.SendTenantIDs(tenant, []microsvc.PlaneRequest{{Key: "k0000", Body: body}}); err != nil {
				return nil, err
			}
			var got int
			for step := 0; got == 0 && step < 64; step++ {
				if _, err := s.rs.Step(); err != nil {
					return nil, err
				}
				reps, err := c.Poll(0)
				if err != nil {
					return nil, err
				}
				got = len(reps)
			}
			if got == 0 {
				return nil, fmt.Errorf("timing: no reply after 64 steps (size %d)", size)
			}
			h.Observe(time.Since(t0).Nanoseconds())
		}
		return h, nil
	}
	for _, size := range sizes {
		key := fmt.Sprintf("payload_%d", size)
		hh, err := measure(httpClient, size)
		if err != nil {
			return nil, fmt.Errorf("http %s: %w", key, err)
		}
		out["http"][key] = timingQuantiles(hh)
		hb, err := measure(busClient, size)
		if err != nil {
			return nil, fmt.Errorf("inproc %s: %w", key, err)
		}
		out["inproc"][key] = timingQuantiles(hb)
	}
	return out, nil
}

func main() {
	jsonOut := flag.Bool("json", false, "emit JSON")
	ticks := flag.Int("ticks", 8, "warmup phase ticks (inject is 2x, drain 3x)")
	rps := flag.Float64("rps", 0, "open-loop target RPS (0 = closed-loop, the gated default)")
	timing := flag.Bool("timing", false, "measure HTTP-vs-in-process per-request latency instead of the load run")
	timingReqs := flag.Int("timing-requests", 200, "requests per transport per payload size in -timing mode")
	pprofOn := flag.Bool("pprof", false, "expose /debug/pprof on the bench server")
	flag.Parse()

	if *timing {
		start := time.Now()
		sizes := []int{64, 512, 4096}
		res, err := runTiming(*timingReqs, sizes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wire-bench:", err)
			os.Exit(1)
		}
		if *jsonOut {
			out := struct {
				Mode        string                                   `json:"mode"`
				Requests    int                                      `json:"requests"`
				Sizes       []int                                    `json:"payload_sizes"`
				Transports  map[string]map[string]map[string]float64 `json:"transports"`
				TotalWallMS int64                                    `json:"total_wall_ms"`
			}{"timing", *timingReqs, sizes, res, time.Since(start).Milliseconds()}
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(out); err != nil {
				fmt.Fprintln(os.Stderr, "wire-bench:", err)
				os.Exit(1)
			}
			return
		}
		for _, tr := range []string{"http", "inproc"} {
			for _, size := range sizes {
				q := res[tr][fmt.Sprintf("payload_%d", size)]
				fmt.Printf("%-7s payload=%-5d p50=%.0fus p95=%.0fus mean=%.0fus max=%.0fus\n",
					tr, size, q["p50_us"], q["p95_us"], q["mean_us"], q["max_us"])
			}
		}
		return
	}

	start := time.Now()
	det1, wall, err := runOnce(*ticks, *rps, *pprofOn)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wire-bench:", err)
		os.Exit(1)
	}
	det2, _, err := runOnce(*ticks, *rps, *pprofOn)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wire-bench:", err)
		os.Exit(1)
	}
	runsEqual := len(det1) == len(det2)
	if runsEqual {
		for k, v := range det1 {
			if det2[k] != v {
				fmt.Fprintf(os.Stderr, "wire-bench: %s differs across runs: %v vs %v\n", k, v, det2[k])
				runsEqual = false
			}
		}
	}
	ok := runsEqual
	if lost := det1["plane_lost"]; lost != 0 {
		fmt.Fprintf(os.Stderr, "wire-bench: %v requests never answered within the run, want 0 (reply loss over HTTP)\n", lost)
		ok = false
	}
	if rej := det1["gw_rejected"]; rej != 0 {
		fmt.Fprintf(os.Stderr, "wire-bench: gateway rejected %v well-formed frames, want 0\n", rej)
		ok = false
	}

	out := struct {
		Ticks         int                `json:"ticks"`
		Deterministic map[string]float64 `json:"deterministic"`
		RunsEqual     bool               `json:"runs_equal"`
		Wallclock     map[string]float64 `json:"wallclock"`
		TotalWallMS   int64              `json:"total_wall_ms"`
	}{*ticks, det1, runsEqual, wall, time.Since(start).Milliseconds()}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "wire-bench:", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	fmt.Printf("wire-bench: %d ticks, runs_equal=%v\n", *ticks, runsEqual)
	keys := make([]string, 0, len(det1))
	for k := range det1 {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-24s %g\n", k, det1[k])
	}
	fmt.Printf("  wallclock: p50=%.0fus p95=%.0fus p99=%.0fus max=%.0fus rps=%.0f\n",
		wall["p50_us"], wall["p95_us"], wall["p99_us"], wall["max_us"], wall["rps"])
	if !ok {
		os.Exit(1)
	}
}
