package scbr

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"

	"securecloud/internal/attest"
)

// TestBrokerConcurrentStress drives Publish, Subscribe, Unsubscribe and
// Drain from many goroutines at once. Run under -race it checks the whole
// locking architecture: the control-state RWMutex, the per-shard
// reader/writer locks, lock-free snapshot probes, and the queues mutex.
func TestBrokerConcurrentStress(t *testing.T) {
	_, enc := brokerEnclave(t)
	bk, err := NewBroker(enc, BrokerConfig{
		PayloadBytes: 256,
		CheckCost:    100,
		Shards:       3,
		MatchWorkers: 4,
		ShardBytes:   16 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}

	const nClients = 6
	clients := make([]*Client, nClients)
	for i := range clients {
		c, err := Connect(bk, "client-"+itoa(i), nil, nil, attest.Policy{})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	// A base population so publishes always have something to match.
	for i, c := range clients {
		s, _ := NewSubscription(0, map[string]Interval{"a": iv(0, float64(50+i))})
		if _, err := c.Subscribe(bk, s); err != nil {
			t.Fatal(err)
		}
	}

	var (
		wg        sync.WaitGroup
		delivered atomic.Uint64
		failures  atomic.Uint64
	)
	fail := func(err error) {
		if err != nil {
			failures.Add(1)
			t.Error(err)
		}
	}

	// Publishers.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := NewWorkload(DefaultWorkload(int64(g)))
			c := clients[g]
			for i := 0; i < 150; i++ {
				e := Event{Attrs: map[string]float64{"a": float64(i % 60)}, Payload: []byte("p")}
				if i%3 == 0 {
					e = w.NextEvent()
				}
				n, err := c.Publish(bk, e)
				fail(err)
				delivered.Add(uint64(n))
			}
		}(g)
	}
	// Subscriber churn: register and remove filters concurrently.
	for g := 3; g < 5; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := clients[g]
			var mine []uint64
			for i := 0; i < 100; i++ {
				s, _ := NewSubscription(0, map[string]Interval{"a": iv(float64(i%20), float64(40+i%20))})
				id, err := c.Subscribe(bk, s)
				fail(err)
				mine = append(mine, id)
				if len(mine) > 10 {
					fail(bk.Unsubscribe(c.ID, mine[0]))
					mine = mine[1:]
				}
			}
		}(g)
	}
	// Drainer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			bk.Drain(clients[i%nClients].ID)
		}
	}()
	wg.Wait()

	if failures.Load() > 0 {
		t.Fatalf("%d operations failed under concurrency", failures.Load())
	}
	if delivered.Load() == 0 {
		t.Fatal("no deliveries under stress; matching broke")
	}
	// The store must still be coherent: every remaining filter matchable.
	e := Event{Attrs: map[string]float64{"a": 10}}
	if got, want := bk.Index().Match(e), bk.Index().MatchNaive(e); !idsEqual(got, want) {
		t.Fatalf("post-stress matcher disagreement:\n got %v\nwant %v", got, want)
	}
}

// TestBrokerRefusesJSONPlaintext: the binary codec is the broker's only
// plaintext form. A JSON subscription or publication sealed under a valid
// session key authenticates but is refused by Subscribe and Publish, and
// nothing is indexed or delivered.
func TestBrokerRefusesJSONPlaintext(t *testing.T) {
	_, enc := brokerEnclave(t)
	bk, err := NewBroker(enc, DefaultBrokerConfig())
	if err != nil {
		t.Fatal(err)
	}
	sub, err := Connect(bk, "sub", nil, nil, attest.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := NewSubscription(0, map[string]Interval{"v": iv(0, 10)})
	if _, err := sub.Subscribe(bk, s); err != nil {
		t.Fatal(err)
	}
	pub, err := Connect(bk, "pub", nil, nil, attest.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	jsonEnvelope := func(c *Client, kind string, v any) Envelope {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		env, err := sealWith(c.box, c.ID, kind, raw)
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	if _, err := bk.Subscribe(jsonEnvelope(sub, KindSubscription, s)); err == nil {
		t.Fatal("JSON subscription accepted")
	}
	if n := bk.Index().Count(); n != 1 {
		t.Fatalf("index holds %d subscriptions, want 1", n)
	}
	ev := Event{Attrs: map[string]float64{"v": 6}, Payload: []byte("json")}
	if n, err := bk.Publish(jsonEnvelope(pub, KindPublication, ev)); err == nil || n != 0 {
		t.Fatalf("JSON publication: n=%d err=%v, want refusal", n, err)
	}
	if d := bk.Drain(sub.ID); len(d) != 0 {
		t.Fatalf("JSON publication delivered %d times", len(d))
	}
	// The same event in the binary form still matches.
	if n, err := pub.Publish(bk, ev); err != nil || n != 1 {
		t.Fatalf("binary publish: n=%d err=%v", n, err)
	}
}
