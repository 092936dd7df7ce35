package main

// scbr-pubsub: smart-grid publish/subscribe over HTTP to scbr.Broker.
//
// The broker runs 4 pinned index shards on a shrunk platform with 4 MiB of
// EPC per shard (as BenchmarkBrokerPublishParallel), preloaded with a fixed
// population of scbrPreload scbr.DefaultWorkload subscriptions from 8
// attested subscriber sessions. The seed drives the traffic, so the modeled
// cost per publish moves little from seed to seed. The measured phase
// publishes scbrPublishes events
// with one new subscription after every 4th publish, so index writes run
// beside reads, and polls every subscriber after each publish. Publishes
// and subscribes come from one generator goroutine (subscription IDs and
// index placement stay a function of the seed); the polls after a publish
// split over 2 goroutines with one connection each. Loads the scbr index
// and enclave EPC paging; microsvc and kvstore stay idle.

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"securecloud/internal/attest"
	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/scbr"
	"securecloud/internal/wire"
)

const (
	scbrSubscribers    = 8
	scbrPreload        = 20000
	scbrPublishes      = 4000
	scbrWindow         = 500 // publishes per measured window
	scbrSubscribeEvery = 4
	scbrSampleEvery    = 8 // brute-force check every 8th publish
	scbrStoreSeed      = 42
)

// scbrPlatform is the shrunk per-shard platform: 4 MiB of EPC, so the
// preloaded store pages.
func scbrPlatform() enclave.Config {
	return enclave.Config{
		EPCBytes:         4 << 20,
		EPCReservedBytes: 1 << 20,
		LLCBytes:         256 << 10,
		LLCWays:          8,
		LineSize:         64,
		PageSize:         4096,
	}
}

// scbrStack is one built broker behind a wire server.
type scbrStack struct {
	broker *scbr.Broker
	svc    *attest.Service
	policy attest.Policy
	srv    *server
}

func buildSCBR(tr *tracer) (*scbrStack, error) {
	p := enclave.NewPlatform(scbrPlatform())
	var signer cryptbox.Digest
	signer[0] = 0x5B
	enc, err := p.ECreate(2<<20, signer)
	if err != nil {
		return nil, err
	}
	if _, err := enc.EAdd([]byte("perfbench-scbr-broker")); err != nil {
		return nil, err
	}
	if err := enc.EInit(); err != nil {
		return nil, err
	}
	broker, err := scbr.NewBroker(enc, scbr.BrokerConfig{PayloadBytes: 600, CheckCost: 450, Shards: 4, ShardBytes: 24 << 20})
	if err != nil {
		return nil, err
	}
	svc := attest.NewService()
	quoter, err := svc.Provision(p, "perfbench-broker-platform")
	if err != nil {
		return nil, err
	}
	ws := wire.NewServer(wire.Config{Broker: broker, Quoter: quoter, AuthToken: authToken})
	srv, err := serveLocal(handler(ws.Handler(), tr))
	if err != nil {
		return nil, err
	}
	return &scbrStack{broker: broker, svc: svc, policy: attest.Policy{AllowedMRSigner: []cryptbox.Digest{signer}}, srv: srv}, nil
}

// brokerCycles is the broker's simulated cost so far: the front enclave
// plus every index shard.
func brokerCycles(b *scbr.Broker) (cycles, faults uint64) {
	ix := b.Index()
	m := b.Enclave().Memory()
	return uint64(ix.Cycles() + m.Cycles()), ix.Faults() + m.Faults()
}

// ownedSub is the bench's own copy of a registered subscription.
type ownedSub struct {
	sub   scbr.Subscription
	owner int
}

func runSCBR(seed int64, tr *tracer) (*round, error) {
	r := &round{det: map[string]float64{}, layer: map[string]float64{}}
	// The standing subscription store is a fixed population; the seed
	// drives the traffic: the events and the subscriptions added beside
	// them.
	store := scbr.NewWorkload(scbr.DefaultWorkload(scbrStoreSeed))
	w := scbr.NewWorkload(scbr.DefaultWorkload(seed))
	var (
		s     *scbrStack
		hcs   []*httpClient
		subs  []*wire.SCBRClient
		pub   *wire.SCBRClient
		owned []ownedSub
	)
	defer func() {
		for _, hc := range hcs {
			hc.close()
		}
		if s != nil {
			s.srv.close()
		}
	}()
	if err := r.timeSetup(func() (err error) {
		if s, err = buildSCBR(tr); err != nil {
			return err
		}
		// Two connections: generator 0 carries the publisher, the preload
		// and subscribers 0-3; generator 1 carries subscribers 4-7.
		hcs = []*httpClient{newHTTPClient(tr != nil), newHTTPClient(tr != nil)}
		opts := wire.SCBRDialOpts{Auth: authToken, Service: s.svc, Policy: s.policy}
		subs = make([]*wire.SCBRClient, scbrSubscribers)
		for i := range subs {
			if subs[i], err = wire.DialSCBROpts(s.srv.url, fmt.Sprintf("sub-%d", i), hcs[i*2/scbrSubscribers].hc, opts); err != nil {
				return fmt.Errorf("dial subscriber %d: %w", i, err)
			}
		}
		if pub, err = wire.DialSCBROpts(s.srv.url, "pub-0", hcs[0].hc, opts); err != nil {
			return fmt.Errorf("dial publisher: %w", err)
		}
		tp := time.Now()
		for i := 0; i < scbrPreload; i++ {
			sub := store.NextSubscription()
			if _, err := subs[i%scbrSubscribers].Subscribe(sub); err != nil {
				return fmt.Errorf("preload: %w", err)
			}
			owned = append(owned, ownedSub{sub, i % scbrSubscribers})
		}
		r.layer["scbr.preload_s"] = time.Since(tp).Seconds()
		return nil
	}); err != nil {
		return nil, err
	}

	delivered := &check{name: "scbr.polled_equals_delivered"}
	matched := &check{name: "scbr.sampled_brute_force"}
	contents := &check{name: "scbr.delivery_content"}
	c0, f0 := brokerCycles(s.broker)
	checks0 := s.broker.Index().Checks()
	var pubCycles, subCycles, pubChecks uint64
	deliveries, polls, emptyPolls, subscribes := 0, 0, 0, 0
	var lat []float64
	published := 0
	meter := startPhase(r, &lat, &published)
	for i := 0; i < scbrPublishes; i++ {
		var key string
		if tr != nil {
			key = fmt.Sprintf("event:%d", i)
		}
		root := tr.start(0, "bench.publish", key)
		ev := w.NextEvent()
		ev.Payload = []byte(fmt.Sprintf("reading-%d-%d", seed, i))
		cb, _ := brokerCycles(s.broker)
		kb := s.broker.Index().Checks()
		sp := tr.start(root.id, "scbr.publish", key)
		hcs[0].link(sp.id, key)
		t := time.Now()
		n, err := pub.Publish(ev)
		d := time.Since(t)
		sp.end()
		ca, _ := brokerCycles(s.broker)
		pubCycles += ca - cb
		pubChecks += s.broker.Index().Checks() - kb
		if err != nil {
			r.errors++
			root.end()
			continue
		}
		published++
		lat = append(lat, float64(d.Nanoseconds())/1e3)
		deliveries += n

		// Poll every subscriber: 0-3 on generator 0, 4-7 on generator 1.
		got := make([][]scbr.Event, scbrSubscribers)
		errs := make([]error, scbrSubscribers)
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := g * scbrSubscribers / 2; j < (g+1)*scbrSubscribers/2; j++ {
					psp := tr.start(root.id, "wire.poll", key)
					hcs[g].link(psp.id, key)
					got[j], errs[j] = subs[j].Poll()
					psp.end()
				}
			}()
		}
		wg.Wait()
		var receivers []int
		polledN := 0
		for j := range subs {
			polls++
			if errs[j] != nil {
				r.errors++
				continue
			}
			if len(got[j]) == 0 {
				emptyPolls++
			}
			for _, e := range got[j] {
				contents.observe(string(e.Payload) == string(ev.Payload), "publish %d: subscriber %d got payload %q", i, j, e.Payload)
				receivers = append(receivers, j)
			}
			polledN += len(got[j])
		}
		delivered.observe(polledN == n, "publish %d: broker reported %d deliveries, polls returned %d", i, n, polledN)
		if i%scbrSampleEvery == 0 {
			want := bruteForce(owned, ev)
			matched.observe(equalInts(receivers, want), "publish %d: receivers %v, brute force %v", i, receivers, want)
		}

		if (i+1)%scbrSubscribeEvery == 0 {
			sub := w.NextSubscription()
			owner := subscribes % scbrSubscribers
			cb, _ := brokerCycles(s.broker)
			ssp := tr.start(root.id, "scbr.subscribe", key)
			hcs[owner*2/scbrSubscribers].link(ssp.id, key)
			_, err := subs[owner].Subscribe(sub)
			ssp.end()
			ca, _ := brokerCycles(s.broker)
			subCycles += ca - cb
			subscribes++
			if err != nil {
				r.errors++
			} else {
				owned = append(owned, ownedSub{sub, owner})
			}
		}
		root.end()
		if (i+1)%scbrWindow == 0 {
			meter.lap()
		}
	}

	c1, f1 := brokerCycles(s.broker)
	r.attempted = scbrPublishes + subscribes
	r.checks = []*check{delivered, matched, contents}
	pubs := float64(scbrPublishes)
	r.det = map[string]float64{
		"publishes":                   pubs,
		"subscribes":                  float64(subscribes),
		"deliveries":                  float64(deliveries),
		"polls":                       float64(polls),
		"checks_passed":               float64(delivered.passed + matched.passed + contents.passed),
		"sim_cycles_per_op":           ratio(float64(c1-c0), pubs),
		"enclave.faults_per_op":       ratio(float64(f1-f0), pubs),
		"scbr.checks_per_publish":     ratio(float64(pubChecks), pubs),
		"scbr.cycles_per_publish":     ratio(float64(pubCycles), pubs),
		"scbr.cycles_per_subscribe":   ratio(float64(subCycles), float64(subscribes)),
		"scbr.deliveries_per_publish": ratio(float64(deliveries), pubs),
		"scbr.store_mb":               float64(s.broker.Index().MemoryBytes()) / (1 << 20),
		"scbr.index_checks":           float64(s.broker.Index().Checks() - checks0),
		"wire.empty_poll_frac":        ratio(float64(emptyPolls), float64(polls)),
	}
	return r, nil
}

// bruteForce returns the sorted distinct owners whose subscriptions match
// e, by testing every subscription.
func bruteForce(owned []ownedSub, e scbr.Event) []int {
	seen := map[int]bool{}
	for _, o := range owned {
		if !seen[o.owner] && o.sub.Matches(e) {
			seen[o.owner] = true
		}
	}
	out := make([]int, 0, len(seen))
	for o := range seen {
		out = append(out, o)
	}
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
