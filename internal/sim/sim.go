// Package sim provides the deterministic simulation substrate shared by the
// SecureCloud reproduction: a virtual cycle/time clock, cycle accounting, and
// seeded pseudo-random helpers.
//
// Every performance-sensitive component (the SGX enclave simulator, the SCBR
// broker, the GenPack scheduler) charges costs against a Clock instead of
// reading the wall clock. This makes all experiments reproducible bit-for-bit
// across runs and machines, which is what lets the benchmark harness
// regenerate the paper's figures deterministically.
//
// Accounting is organized around typed Causes: small integers interned once
// per process, indexing fixed-size arrays in Counter. Callers register
// their causes once (RegisterCause) and charge and query by Cause, so the
// hot path (the enclave memory model charging per-cache-line costs) never
// hashes a string or allocates.
package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// CPUFrequencyHz is the reference core frequency used to convert simulated
// cycles into simulated wall time. SGX v1 parts (Skylake) shipped around
// 3.4 GHz; the absolute value only scales reported times, never ratios.
const CPUFrequencyHz = 3_400_000_000

// Cycles counts simulated CPU cycles.
type Cycles uint64

// Duration converts a cycle count into simulated wall time.
func (c Cycles) Duration() time.Duration {
	return time.Duration(float64(c) / CPUFrequencyHz * float64(time.Second))
}

// SimMillis reports the cycle count as simulated milliseconds at the
// reference frequency — the unit the orchestration layer's QoS targets and
// adaptation latencies are stated in.
func (c Cycles) SimMillis() float64 {
	return float64(c) * 1000 / CPUFrequencyHz
}

// MillisToCycles converts simulated milliseconds into cycles at the
// reference frequency: the budget conversion for simulated-time control
// loops (a monitoring tick of T sim-ms grants each replica
// MillisToCycles(T) cycles of service).
func MillisToCycles(ms float64) Cycles {
	return Cycles(ms * CPUFrequencyHz / 1000)
}

// String renders the cycle count with its simulated-time equivalent.
func (c Cycles) String() string {
	return fmt.Sprintf("%d cycles (%v)", uint64(c), c.Duration())
}

// Clock is a monotonically advancing virtual clock measured in CPU cycles.
// The zero value is a clock at cycle 0, ready to use. Clock is safe for
// concurrent use; Advance is a single atomic add, so charging cycles never
// serializes unrelated goroutines behind a mutex.
type Clock struct {
	now atomic.Uint64
}

// NewClock returns a clock starting at cycle 0.
func NewClock() *Clock { return &Clock{} }

// Now returns the current simulated cycle.
func (c *Clock) Now() Cycles {
	return Cycles(c.now.Load())
}

// Advance moves the clock forward by d cycles and returns the new time.
func (c *Clock) Advance(d Cycles) Cycles {
	return Cycles(c.now.Add(uint64(d)))
}

// AdvanceTo moves the clock forward to cycle t. It panics if t is in the
// past: simulated time never runs backwards.
func (c *Clock) AdvanceTo(t Cycles) {
	for {
		cur := c.now.Load()
		if uint64(t) < cur {
			panic(fmt.Sprintf("sim: AdvanceTo(%d) before now (%d)", uint64(t), cur))
		}
		if c.now.CompareAndSwap(cur, uint64(t)) {
			return
		}
	}
}

// Cause identifies one accounting category (a cache miss, a page fault, an
// enclave transition, ...). Causes are interned process-wide: registering
// the same name twice returns the same Cause, and a Cause indexes directly
// into every Counter's fixed-size ledger.
type Cause uint32

// MaxCauses bounds the number of distinct causes a process may register.
// Causes name event *categories* of the cost model, not event instances, so
// a small fixed bound keeps every Counter a flat pair of arrays.
const MaxCauses = 64

var causeReg struct {
	sync.RWMutex
	byName map[string]Cause
	names  []string
}

// RegisterCause interns name and returns its Cause. It is idempotent and
// safe for concurrent use; it panics if more than MaxCauses distinct names
// are registered (a cost-model programming error, not a runtime condition).
func RegisterCause(name string) Cause {
	causeReg.RLock()
	c, ok := causeReg.byName[name]
	causeReg.RUnlock()
	if ok {
		return c
	}
	causeReg.Lock()
	defer causeReg.Unlock()
	if c, ok := causeReg.byName[name]; ok {
		return c
	}
	if causeReg.byName == nil {
		causeReg.byName = make(map[string]Cause)
	}
	if len(causeReg.names) >= MaxCauses {
		panic(fmt.Sprintf("sim: more than %d causes registered (%q)", MaxCauses, name))
	}
	c = Cause(len(causeReg.names))
	causeReg.names = append(causeReg.names, name)
	causeReg.byName[name] = c
	return c
}

// LookupCause returns the Cause registered under name, if any.
func LookupCause(name string) (Cause, bool) {
	causeReg.RLock()
	defer causeReg.RUnlock()
	c, ok := causeReg.byName[name]
	return c, ok
}

// String returns the name the cause was registered under.
func (c Cause) String() string {
	causeReg.RLock()
	defer causeReg.RUnlock()
	if int(c) < len(causeReg.names) {
		return causeReg.names[c]
	}
	return fmt.Sprintf("Cause(%d)", uint32(c))
}

// Counter accumulates per-cause cycle costs: a general-purpose accounting
// ledger for attributing simulated time to causes (cache misses, page
// faults, syscalls, ...). The zero value is ready to use. The ledger is a
// fixed-size array indexed by Cause, so charging is an array add — no
// hashing, no allocation. (The enclave memory model's hot path keeps its
// own platform-mutex-guarded ledger of the same shape; Counter serves the
// standalone users, e.g. the shield host kernel model.)
type Counter struct {
	mu     sync.Mutex
	total  Cycles
	costs  [MaxCauses]Cycles
	events [MaxCauses]uint64
}

// ChargeCause adds cost cycles under the given cause and counts one event.
func (a *Counter) ChargeCause(c Cause, cost Cycles) {
	a.mu.Lock()
	a.total += cost
	a.costs[c] += cost
	a.events[c]++
	a.mu.Unlock()
}

// ChargeCauseN adds total cycles and n events under the given cause in one
// step: the batched equivalent of n ChargeCause calls summing to total.
func (a *Counter) ChargeCauseN(c Cause, total Cycles, n uint64) {
	a.mu.Lock()
	a.total += total
	a.costs[c] += total
	a.events[c] += n
	a.mu.Unlock()
}

// Total returns the sum of all charged cycles.
func (a *Counter) Total() Cycles {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total
}

// CauseCost returns the cycles charged under c.
func (a *Counter) CauseCost(c Cause) Cycles {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.costs[c]
}

// CauseEvents returns how many times c was charged.
func (a *Counter) CauseEvents(c Cause) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.events[c]
}

// Reset zeroes the ledger.
func (a *Counter) Reset() {
	a.mu.Lock()
	a.total = 0
	a.costs = [MaxCauses]Cycles{}
	a.events = [MaxCauses]uint64{}
	a.mu.Unlock()
}

// NewRand returns a deterministic pseudo-random source for the given seed.
// All stochastic workload generators in the repository derive their
// randomness from here so experiments replay identically.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Zipf returns a Zipf-distributed generator over [0, n) with exponent s>1.
// Content-based workloads (SCBR attribute popularity, smart-grid topic
// popularity) are classically Zipfian.
func Zipf(r *rand.Rand, s float64, n uint64) *rand.Zipf {
	if s <= 1 {
		s = 1.0001
	}
	return rand.NewZipf(r, s, 1, n-1)
}
