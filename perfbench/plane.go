package main

// plane-rpc: sealed request/reply over HTTP to an attested,
// admission-controlled 2-replica microsvc.ReplicaSet behind wire.Server.
//
// Closed loop: 2 tenant clients each send a batch of planeBatch requests
// per tick, the bench runs ReplicaSet.Step, and both clients poll until
// the tick's replies are in. The plane only serves when its caller steps
// it, and each caller waits for its replies, so the loop is closed with 2
// clients. Payloads are log-uniform from 64 B to 4 KiB over planeKeys
// routing keys. The admission buckets are sized so nothing sheds: a shed
// counts as a failure. Loads wire, microsvc and eventbus; scbr and kvstore
// stay idle and the replica enclaves fit in EPC.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"securecloud/internal/attest"
	"securecloud/internal/cryptbox"
	"securecloud/internal/eventbus"
	"securecloud/internal/microsvc"
	"securecloud/internal/stats"
	"securecloud/internal/wire"
)

const (
	planeService  = "plane/perfbench"
	planeTicks    = 300
	planeBatch    = 8
	planeKeys     = 1024
	planeMaxSteps = 64 // steps a tick may take before its missing replies count as lost
	// planeSetupReps stacks are built per round (the last one serves):
	// a build takes milliseconds, so set-up is sampled several times.
	planeSetupReps = 2
	authToken      = "perfbench-token"
)

// server is a wire handler on a loopback listener.
type server struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serveLocal(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// close stops the server and waits for its accept loop to exit.
func (s *server) close() {
	_ = s.srv.Close()
	<-s.done
}

// handler wraps h in the span middleware when the round is traced.
func handler(h http.Handler, tr *tracer) http.Handler {
	if tr == nil {
		return h
	}
	return tr.middleware(h)
}

// timedTransport wraps the HTTP plane transport: it records a span around
// every SendFrames/RecvFrames, links the HTTP requests to it, and counts
// polls that returned nothing.
type timedTransport struct {
	inner      *wire.PlaneTransport
	tr         *tracer
	hc         *httpClient
	parent     int64
	key        string
	polls      int
	emptyPolls int
}

func (t *timedTransport) SendFrames(frames [][]byte) error {
	sp := t.tr.start(t.parent, "wire.send", t.key)
	t.hc.link(sp.id, t.key)
	err := t.inner.SendFrames(frames)
	sp.end()
	return err
}

func (t *timedTransport) RecvFrames() ([][]byte, error) {
	sp := t.tr.start(t.parent, "wire.poll", t.key)
	t.hc.link(sp.id, t.key)
	frames, err := t.inner.RecvFrames()
	sp.end()
	t.polls++
	if err == nil && len(frames) == 0 {
		t.emptyPolls++
	}
	return frames, err
}

func (t *timedTransport) Close() { t.inner.Close() }

type pendingReq struct {
	body []byte
	sent time.Time
}

// planeGen is one tenant client: its own HTTP connection, its own seeded
// input stream, and the replies it still waits for.
type planeGen struct {
	tenant  string
	pc      *microsvc.PlaneClient
	tt      *timedTransport
	hc      *httpClient
	tr      *tracer
	rng     *rand.Rand
	pending map[uint64]pendingReq
	lat     []float64
	errors  int
	replies *check
}

// logUniform draws an integer log-uniformly from [lo, hi].
func logUniform(rng *rand.Rand, lo, hi int) int {
	v := int(math.Exp(math.Log(float64(lo)) + rng.Float64()*(math.Log(float64(hi+1))-math.Log(float64(lo)))))
	return min(max(v, lo), hi)
}

func (g *planeGen) spanKey(tick int) string {
	if g.tr == nil {
		return ""
	}
	return fmt.Sprintf("%s:%d", g.tenant, tick*planeBatch+1)
}

func (g *planeGen) send(tick int, parent int64) {
	reqs := make([]microsvc.PlaneRequest, planeBatch)
	for i := range reqs {
		body := make([]byte, logUniform(g.rng, 64, 4096))
		g.rng.Read(body)
		reqs[i] = microsvc.PlaneRequest{Key: fmt.Sprintf("k%04d", g.rng.Intn(planeKeys)), Body: body}
	}
	key := g.spanKey(tick)
	t0 := time.Now()
	sp := g.tr.start(parent, "microsvc.send", key)
	g.tt.parent, g.tt.key = sp.id, key
	ids, err := g.pc.SendTenantIDs(g.tenant, reqs)
	sp.end()
	if err != nil {
		g.errors += len(reqs)
		return
	}
	for i, id := range ids {
		g.pending[id] = pendingReq{body: reqs[i].Body, sent: t0}
	}
}

func (g *planeGen) poll(tick int, parent int64) {
	key := g.spanKey(tick)
	sp := g.tr.start(parent, "microsvc.poll", key)
	g.tt.parent, g.tt.key = sp.id, key
	reps, err := g.pc.Poll(0)
	sp.end()
	now := time.Now()
	if err != nil {
		g.errors++
		return
	}
	for _, rep := range reps {
		p, ok := g.pending[rep.ID]
		if !ok {
			g.replies.observe(false, "%s: reply for unknown request %d", g.tenant, rep.ID)
			continue
		}
		delete(g.pending, rep.ID)
		if rep.Shed {
			g.errors++
			continue
		}
		g.replies.observe(bytes.HasPrefix(rep.Body, []byte("ok:")) && bytes.Equal(rep.Body[3:], p.body),
			"%s: reply %d does not echo its request", g.tenant, rep.ID)
		g.lat = append(g.lat, float64(now.Sub(p.sent).Nanoseconds())/1e3)
	}
}

// planeStack is one fully built plane: attested replica set, gateway and
// wire server.
type planeStack struct {
	rs   *microsvc.ReplicaSet
	gw   *wire.PlaneGateway
	keys attest.ServiceKeys
	srv  *server
}

func buildPlane(tr *tracer, r *round) (*planeStack, error) {
	bus := eventbus.New()
	svc := attest.NewService()
	kb := attest.NewKeyBroker(svc)
	var root cryptbox.Key
	root[0] = 0xB7
	keys, err := microsvc.NewServiceKeys(root, planeService, "bench/req", "bench/resp")
	if err != nil {
		return nil, err
	}
	kb.Register(planeService, attest.Policy{AllowedMRSigner: []cryptbox.Digest{microsvc.ReplicaSigner(planeService)}}, keys)
	t0 := time.Now()
	rs, err := microsvc.NewReplicaSet(bus, svc, kb, planeService,
		func(req []byte) ([]byte, error) { return append([]byte("ok:"), req...), nil },
		microsvc.ReplicaSetConfig{
			Replicas: 2, InTopic: "bench/req", OutTopic: "bench/resp",
			Admission: &microsvc.AdmissionConfig{
				// 8 requests per tenant per tick against a 64-token
				// bucket and a 256-deep queue: nothing sheds.
				Default: microsvc.TenantPolicy{Weight: 1, Rate: 64, Burst: 64, MaxQueue: 256},
			},
		})
	if err != nil {
		return nil, err
	}
	r.layer["microsvc.launch_s"] = time.Since(t0).Seconds()
	gw, err := wire.NewPlaneGateway(bus, planeService, keys, "bench/req", "bench/resp")
	if err != nil {
		rs.Stop()
		return nil, err
	}
	ws := wire.NewServer(wire.Config{AuthToken: authToken, Sources: []stats.Source{rs}})
	ws.RegisterPlane(planeService, gw)
	srv, err := serveLocal(handler(ws.Handler(), tr))
	if err != nil {
		gw.Close()
		rs.Stop()
		return nil, err
	}
	return &planeStack{rs: rs, gw: gw, keys: keys, srv: srv}, nil
}

func (s *planeStack) close() {
	s.srv.close()
	s.gw.Close()
	s.rs.Stop()
}

func runPlane(seed int64, tr *tracer) (*round, error) {
	r := &round{det: map[string]float64{}, layer: map[string]float64{}}
	var s *planeStack
	for i := 0; i < planeSetupReps; i++ {
		if s != nil {
			s.close()
		}
		if err := r.timeSetup(func() (err error) {
			s, err = buildPlane(tr, r)
			return err
		}); err != nil {
			return nil, err
		}
	}
	defer s.close()
	gens := make([]*planeGen, 2)
	for c := range gens {
		hc := newHTTPClient(tr != nil)
		defer hc.close()
		tt := &timedTransport{inner: wire.NewPlaneTransport(s.srv.url, planeService, hc.hc).WithAuth(authToken), tr: tr, hc: hc}
		pc, err := microsvc.NewPlaneClientTransport(planeService, s.keys.Request, tt)
		if err != nil {
			return nil, err
		}
		defer pc.Close()
		gens[c] = &planeGen{
			tenant: fmt.Sprintf("tenant-%d", c), pc: pc, tt: tt, hc: hc, tr: tr,
			rng:     rand.New(rand.NewSource(seed*1_000_003 + int64(c))),
			pending: map[uint64]pendingReq{}, replies: &check{name: "plane.reply_echo"},
		}
	}
	both := func(fn func(g *planeGen)) {
		var wg sync.WaitGroup
		for _, g := range gens {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fn(g)
			}()
		}
		wg.Wait()
	}

	tot0, gw0 := s.rs.Totals(), s.gw.Snapshot()
	var lat []float64
	served := 0
	meter := startPhase(r, &lat, &served)
	steps, shed, lost := 0, 0, 0
	for tick := 0; tick < planeTicks; tick++ {
		var key string
		if tr != nil {
			key = fmt.Sprintf("tick:%d", tick)
		}
		tsp := tr.start(0, "bench.tick", key)
		both(func(g *planeGen) { g.send(tick, tsp.id) })
		for n := 0; n < planeMaxSteps; n++ {
			ssp := tr.start(tsp.id, "microsvc.step", key)
			st, err := s.rs.Step()
			ssp.end()
			steps++
			shed += st.Shed
			if err != nil {
				gens[0].errors++
			}
			both(func(g *planeGen) { g.poll(tick, tsp.id) })
			if len(gens[0].pending)+len(gens[1].pending) == 0 {
				break
			}
		}
		for _, g := range gens {
			lost += len(g.pending)
			clear(g.pending)
		}
		tsp.end()
	}
	for _, g := range gens {
		lat = append(lat, g.lat...)
	}
	served = len(lat)
	meter.lap()

	tot, gw := s.rs.Totals(), s.gw.Snapshot()
	polls, empty := 0, 0
	replies := &check{name: "plane.reply_echo"}
	for _, g := range gens {
		replies.merge(g.replies)
		r.errors += g.errors
		polls += g.tt.polls
		empty += g.tt.emptyPolls
	}
	r.attempted = planeTicks * planeBatch * len(gens)
	r.errors += lost
	r.checks = []*check{replies}
	_, p95, _ := s.rs.LatencyPercentiles()
	ops := float64(r.ops)
	front := float64(tot.FrontCycles - tot0.FrontCycles)
	replica := float64(tot.SerialCycles - tot0.SerialCycles)
	faults := float64(tot.Faults + tot.FrontFaults - tot0.Faults - tot0.FrontFaults)
	wireBytes := gw["bytes_in"] + gw["bytes_out"] - gw0["bytes_in"] - gw0["bytes_out"]
	r.det = map[string]float64{
		"served":                         float64(tot.Served - tot0.Served),
		"replies_ok":                     float64(replies.passed),
		"shed":                           float64(shed),
		"lost":                           float64(lost),
		"steps":                          float64(steps),
		"polls":                          float64(polls),
		"sim_cycles_per_op":              ratio(front+replica, ops),
		"microsvc.front_cycles_per_op":   ratio(front, ops),
		"microsvc.replica_cycles_per_op": ratio(replica, ops),
		"microsvc.steps_per_op":          ratio(float64(steps), ops),
		"microsvc.admission_wait_p95_ms": p95,
		"enclave.faults_per_op":          ratio(faults, ops),
		"wire.bytes_per_op":              ratio(wireBytes, ops),
		"wire.empty_poll_frac":           ratio(float64(empty), float64(polls)),
	}
	return r, nil
}
