package sim

import (
	"sync"
	"testing"
)

func TestRegisterCauseIdempotent(t *testing.T) {
	a := RegisterCause("test-cause-idem")
	b := RegisterCause("test-cause-idem")
	if a != b {
		t.Fatalf("re-registering returned %d then %d", a, b)
	}
	if a.String() != "test-cause-idem" {
		t.Fatalf("Cause.String() = %q", a.String())
	}
	c, ok := LookupCause("test-cause-idem")
	if !ok || c != a {
		t.Fatalf("LookupCause = (%d, %v), want (%d, true)", c, ok, a)
	}
	if _, ok := LookupCause("never-registered-cause"); ok {
		t.Fatal("LookupCause found an unregistered name")
	}
}

func TestRegisterCauseConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	results := make([]Cause, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = RegisterCause("test-cause-concurrent")
		}(i)
	}
	wg.Wait()
	for _, r := range results[1:] {
		if r != results[0] {
			t.Fatal("concurrent registration produced distinct causes")
		}
	}
}

func TestChargeCauseNEquivalentToLoop(t *testing.T) {
	var batched, looped Counter
	c := RegisterCause("test-batched")
	batched.ChargeCauseN(c, 500, 5)
	for i := 0; i < 5; i++ {
		looped.ChargeCause(c, 100)
	}
	if batched.Total() != looped.Total() ||
		batched.CauseCost(c) != looped.CauseCost(c) ||
		batched.CauseEvents(c) != looped.CauseEvents(c) {
		t.Fatalf("ChargeCauseN(500,5) != 5×ChargeCause(100): %d/%d events %d/%d",
			batched.CauseCost(c), looped.CauseCost(c),
			batched.CauseEvents(c), looped.CauseEvents(c))
	}
}

// TestSnapshotNamesChargedCauses: a charged cause reads back its cost and
// events under the Cause its name interns to, and a cause registered but
// never charged on this counter reads zero.
func TestSnapshotNamesChargedCauses(t *testing.T) {
	var a Counter
	x := RegisterCause("test-batch-x")
	y := RegisterCause("test-batch-y")
	a.ChargeCauseN(x, 300, 3)
	a.ChargeCause(y, 40)
	for _, want := range []struct {
		name   string
		cost   Cycles
		events uint64
	}{{"test-batch-x", 300, 3}, {"test-batch-y", 40, 1}, {"test-cause-idem", 0, 0}} {
		c := RegisterCause(want.name)
		if c.String() != want.name || a.CauseCost(c) != want.cost || a.CauseEvents(c) != want.events {
			t.Fatalf("%s: cost %d events %d, want %d %d", c, a.CauseCost(c), a.CauseEvents(c), want.cost, want.events)
		}
	}
}

func TestClockAdvanceToConcurrent(t *testing.T) {
	c := NewClock()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Advance(3)
			}
		}()
	}
	wg.Wait()
	if got := c.Now(); got != 24000 {
		t.Fatalf("Now() = %d, want 24000", got)
	}
	c.AdvanceTo(30000)
	if got := c.Now(); got != 30000 {
		t.Fatalf("after AdvanceTo, Now() = %d, want 30000", got)
	}
}

func BenchmarkCounterChargeTyped(b *testing.B) {
	var a Counter
	c := RegisterCause("bench-typed")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.ChargeCause(c, 40)
	}
}

func BenchmarkClockAdvance(b *testing.B) {
	c := NewClock()
	for i := 0; i < b.N; i++ {
		c.Advance(1)
	}
}
