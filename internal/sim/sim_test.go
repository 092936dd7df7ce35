package sim

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestClockZeroValue(t *testing.T) {
	var c Clock
	if got := c.Now(); got != 0 {
		t.Fatalf("zero clock Now() = %d, want 0", got)
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	if got := c.Advance(10); got != 10 {
		t.Fatalf("Advance(10) = %d, want 10", got)
	}
	if got := c.Advance(5); got != 15 {
		t.Fatalf("second Advance = %d, want 15", got)
	}
	if got := c.Now(); got != 15 {
		t.Fatalf("Now() = %d, want 15", got)
	}
}

func TestClockAdvanceTo(t *testing.T) {
	c := NewClock()
	c.AdvanceTo(100)
	if got := c.Now(); got != 100 {
		t.Fatalf("Now() = %d, want 100", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo into the past did not panic")
		}
	}()
	c.AdvanceTo(50)
}

func TestClockConcurrentAdvance(t *testing.T) {
	c := NewClock()
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Advance(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Now(); got != goroutines*per {
		t.Fatalf("concurrent Now() = %d, want %d", got, goroutines*per)
	}
}

func TestCyclesDuration(t *testing.T) {
	// One full second of cycles must convert to ~1s.
	c := Cycles(CPUFrequencyHz)
	d := c.Duration()
	if d < 999*time.Millisecond || d > 1001*time.Millisecond {
		t.Fatalf("Duration of %d cycles = %v, want ~1s", c, d)
	}
}

func TestCounterChargeAndQuery(t *testing.T) {
	var a Counter
	fault, miss := RegisterCause("test-fault"), RegisterCause("test-miss")
	absent := RegisterCause("test-absent")
	a.ChargeCause(fault, 100)
	a.ChargeCause(fault, 50)
	a.ChargeCause(miss, 7)
	if got := a.Total(); got != 157 {
		t.Fatalf("Total = %d, want 157", got)
	}
	if got := a.CauseCost(fault); got != 150 {
		t.Fatalf("CauseCost(fault) = %d, want 150", got)
	}
	if got := a.CauseEvents(fault); got != 2 {
		t.Fatalf("CauseEvents(fault) = %d, want 2", got)
	}
	if got := a.CauseEvents(absent); got != 0 {
		t.Fatalf("CauseEvents(absent) = %d, want 0", got)
	}
}

func TestCounterReset(t *testing.T) {
	var a Counter
	x := RegisterCause("test-reset")
	a.ChargeCause(x, 9)
	a.Reset()
	if a.Total() != 0 || a.CauseCost(x) != 0 || a.CauseEvents(x) != 0 {
		t.Fatal("Reset did not clear the ledger")
	}
}

func TestCounterConcurrent(t *testing.T) {
	var a Counter
	c := RegisterCause("test-concurrent")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				a.ChargeCause(c, 2)
			}
		}()
	}
	wg.Wait()
	if got := a.Total(); got != 16000 {
		t.Fatalf("concurrent Total = %d, want 16000", got)
	}
}

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced diverging streams")
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRand(1)
	z := Zipf(r, 1.2, 1000)
	counts := make(map[uint64]int)
	const draws = 20000
	for i := 0; i < draws; i++ {
		counts[z.Uint64()]++
	}
	// Rank-0 must dominate rank-10 under any Zipf exponent > 1.
	if counts[0] <= counts[10] {
		t.Fatalf("Zipf not skewed: count[0]=%d count[10]=%d", counts[0], counts[10])
	}
}

func TestZipfDegenerateExponent(t *testing.T) {
	// s <= 1 must be clamped rather than panic (rand.NewZipf requires s > 1).
	r := NewRand(1)
	z := Zipf(r, 0.5, 10)
	if z == nil {
		t.Fatal("Zipf returned nil for clamped exponent")
	}
	_ = z.Uint64()
}

func TestPropClockAdvanceSums(t *testing.T) {
	f := func(steps []uint16) bool {
		c := NewClock()
		var want Cycles
		for _, s := range steps {
			want += Cycles(s)
			c.Advance(Cycles(s))
		}
		return c.Now() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropCounterTotalEqualsSumOfCauses(t *testing.T) {
	ca, cb := RegisterCause("test-prop-a"), RegisterCause("test-prop-b")
	f := func(costs []uint16) bool {
		var a Counter
		for i, cst := range costs {
			cause := ca
			if i%2 == 1 {
				cause = cb
			}
			a.ChargeCause(cause, Cycles(cst))
		}
		return a.Total() == a.CauseCost(ca)+a.CauseCost(cb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
