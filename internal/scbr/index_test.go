package scbr

import (
	"reflect"
	"sort"
	"testing"

	"securecloud/internal/enclave"
)

func plainIndex() *Index { return NewIndex(IndexConfig{}) }

func TestInsertBuildsHierarchy(t *testing.T) {
	ix := plainIndex()
	wide, _ := NewSubscription(1, map[string]Interval{"a": iv(0, 100)})
	mid, _ := NewSubscription(2, map[string]Interval{"a": iv(10, 50)})
	narrow, _ := NewSubscription(3, map[string]Interval{"a": iv(20, 30)})
	ix.Insert(wide)
	ix.Insert(mid)
	ix.Insert(narrow)
	if ix.RootFanout() != 1 {
		t.Fatalf("RootFanout = %d, want 1 (everything under the widest filter)", ix.RootFanout())
	}
	if ix.Depth() != 3 {
		t.Fatalf("Depth = %d, want 3", ix.Depth())
	}
	if ix.Count() != 3 {
		t.Fatalf("Count = %d", ix.Count())
	}
}

func TestInsertReparentsOnGeneralArrival(t *testing.T) {
	// Insert specifics first, then a general filter that covers them: the
	// general one must adopt them.
	ix := plainIndex()
	n1, _ := NewSubscription(1, map[string]Interval{"a": iv(10, 20)})
	n2, _ := NewSubscription(2, map[string]Interval{"a": iv(30, 40)})
	ix.Insert(n1)
	ix.Insert(n2)
	if ix.RootFanout() != 2 {
		t.Fatalf("RootFanout = %d, want 2 before re-parenting", ix.RootFanout())
	}
	wide, _ := NewSubscription(3, map[string]Interval{"a": iv(0, 100)})
	ix.Insert(wide)
	if ix.RootFanout() != 1 {
		t.Fatalf("RootFanout = %d, want 1 after the general filter adopts both", ix.RootFanout())
	}
	if ix.Depth() != 2 {
		t.Fatalf("Depth = %d, want 2", ix.Depth())
	}
}

func TestEquivalentFiltersBucket(t *testing.T) {
	ix := plainIndex()
	for i := uint64(1); i <= 10; i++ {
		s, _ := NewSubscription(i, map[string]Interval{"a": iv(0, 10)})
		ix.Insert(s)
	}
	if ix.RootFanout() != 1 {
		t.Fatalf("RootFanout = %d, want 1 (equivalents bucketed)", ix.RootFanout())
	}
	if ix.Depth() != 1 {
		t.Fatalf("Depth = %d, want 1 (no chains of equivalent filters)", ix.Depth())
	}
	if ix.Count() != 10 {
		t.Fatalf("Count = %d, want 10", ix.Count())
	}
	got := ix.Match(Event{Attrs: map[string]float64{"a": 5}})
	if len(got) != 10 {
		t.Fatalf("matched %d of 10 equivalent filters", len(got))
	}
}

func TestMatchPrunesNonMatchingSubtrees(t *testing.T) {
	ix := plainIndex()
	wide, _ := NewSubscription(1, map[string]Interval{"a": iv(0, 100)})
	inner, _ := NewSubscription(2, map[string]Interval{"a": iv(10, 20)})
	other, _ := NewSubscription(3, map[string]Interval{"a": iv(200, 300)})
	otherInner, _ := NewSubscription(4, map[string]Interval{"a": iv(210, 220)})
	for _, s := range []Subscription{wide, inner, other, otherInner} {
		ix.Insert(s)
	}
	checksBefore := ix.Checks()
	got := ix.Match(Event{Attrs: map[string]float64{"a": 15}})
	spent := ix.Checks() - checksBefore
	if len(got) != 2 {
		t.Fatalf("matched %v, want filters 1 and 2", got)
	}
	// Pruning: the failed root (200..300) is checked once, its child never.
	if spent != 3 {
		t.Fatalf("match used %d checks, want 3 (wide, inner, other-pruned)", spent)
	}
}

// TestMatchEquivalentToNaive cross-validates the pruning matcher against
// the exhaustive one over the synthetic workload.
func TestMatchEquivalentToNaive(t *testing.T) {
	ix := plainIndex()
	w := NewWorkload(DefaultWorkload(7))
	for i := 0; i < 3000; i++ {
		ix.Insert(w.NextSubscription())
	}
	for i := 0; i < 200; i++ {
		e := w.NextEvent()
		a := append([]uint64(nil), ix.Match(e)...)
		b := append([]uint64(nil), ix.MatchNaive(e)...)
		sort.Slice(a, func(x, y int) bool { return a[x] < a[y] })
		sort.Slice(b, func(x, y int) bool { return b[x] < b[y] })
		if len(a) != len(b) {
			t.Fatalf("event %d: pruning matcher found %d, naive %d", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("event %d: result sets differ at %d", i, j)
			}
		}
	}
}

func TestContainmentIndexCheaperThanNaive(t *testing.T) {
	// The paper: "a reduced number of comparisons is required whenever a
	// message must be matched" — the containment ablation.
	ix := plainIndex()
	w := NewWorkload(DefaultWorkload(11))
	for i := 0; i < 5000; i++ {
		ix.Insert(w.NextSubscription())
	}
	e := w.NextEvent()
	base := ix.Checks()
	ix.Match(e)
	pruned := ix.Checks() - base
	base = ix.Checks()
	ix.MatchNaive(e)
	naive := ix.Checks() - base
	if pruned*2 >= naive {
		t.Fatalf("containment matcher used %d checks vs naive %d — expected >2x reduction", pruned, naive)
	}
}

func TestMemoryAccountingGrows(t *testing.T) {
	p := enclave.NewPlatform(enclave.Config{})
	mem := p.UntrustedMemory()
	base := p.AllocUntrusted(32 << 20)
	arena := enclave.NewArena(mem, base, 32<<20)
	ix := NewIndex(IndexConfig{Mem: mem, Arena: arena, PayloadBytes: 512, CheckCost: 60})
	w := NewWorkload(DefaultWorkload(3))
	for i := 0; i < 500; i++ {
		ix.Insert(w.NextSubscription())
	}
	if ix.MemoryBytes() < 500*512 {
		t.Fatalf("MemoryBytes = %d, want at least payload volume", ix.MemoryBytes())
	}
	if mem.Cycles() == 0 {
		t.Fatal("no cycles charged for accounted index")
	}
	if mem.Breakdown()[enclave.CauseCPU] == 0 {
		t.Fatal("no CPU cost charged for comparisons")
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	a := NewWorkload(DefaultWorkload(5))
	b := NewWorkload(DefaultWorkload(5))
	for i := 0; i < 100; i++ {
		sa, sb := a.NextSubscription(), b.NextSubscription()
		if len(sa.Preds) != len(sb.Preds) {
			t.Fatal("same seed diverged")
		}
		for j := range sa.Preds {
			if sa.Preds[j] != sb.Preds[j] {
				t.Fatal("same seed diverged in predicates")
			}
		}
	}
}

func TestWorkloadProducesCoveringStructure(t *testing.T) {
	ix := plainIndex()
	w := NewWorkload(DefaultWorkload(9))
	for i := 0; i < 2000; i++ {
		ix.Insert(w.NextSubscription())
	}
	if ix.Depth() < 2 {
		t.Fatalf("workload built a flat forest (depth %d); containment structure missing", ix.Depth())
	}
	if ix.RootFanout() > DefaultWorkload(9).Branches[0] {
		t.Fatalf("RootFanout %d exceeds hierarchy branch factor", ix.RootFanout())
	}
}

func TestWorkloadEventsMatchSomething(t *testing.T) {
	ix := plainIndex()
	w := NewWorkload(DefaultWorkload(13))
	for i := 0; i < 2000; i++ {
		ix.Insert(w.NextSubscription())
	}
	matched := 0
	for i := 0; i < 300; i++ {
		if len(ix.Match(w.NextEvent())) > 0 {
			matched++
		}
	}
	// Deep, specific filters mean most events match nothing — as in real
	// CBR deployments — but popular (Zipf-head) paths must be covered.
	if matched < 15 {
		t.Fatalf("only %d/300 events matched anything; workload mismatch", matched)
	}
}

func TestRemoveLeaf(t *testing.T) {
	ix := plainIndex()
	wide, _ := NewSubscription(1, map[string]Interval{"a": iv(0, 100)})
	narrow, _ := NewSubscription(2, map[string]Interval{"a": iv(10, 20)})
	ix.Insert(wide)
	ix.Insert(narrow)
	if !ix.Remove(2) {
		t.Fatal("Remove missed existing ID")
	}
	if ix.Count() != 1 {
		t.Fatalf("Count = %d", ix.Count())
	}
	got := ix.Match(Event{Attrs: map[string]float64{"a": 15}})
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("after removal Match = %v", got)
	}
	if ix.Remove(2) {
		t.Fatal("double remove reported true")
	}
}

func TestRemoveInteriorLiftsChildren(t *testing.T) {
	ix := plainIndex()
	wide, _ := NewSubscription(1, map[string]Interval{"a": iv(0, 100)})
	mid, _ := NewSubscription(2, map[string]Interval{"a": iv(10, 50)})
	narrow, _ := NewSubscription(3, map[string]Interval{"a": iv(20, 30)})
	ix.Insert(wide)
	ix.Insert(mid)
	ix.Insert(narrow)
	if !ix.Remove(2) {
		t.Fatal("Remove missed interior node")
	}
	// The narrow filter must still be reachable under the wide one.
	got := ix.Match(Event{Attrs: map[string]float64{"a": 25}})
	if len(got) != 2 {
		t.Fatalf("Match after interior removal = %v", got)
	}
	if ix.Depth() != 2 {
		t.Fatalf("Depth = %d, want 2 (child lifted)", ix.Depth())
	}
}

func TestRemoveFromBucket(t *testing.T) {
	ix := plainIndex()
	for i := uint64(1); i <= 3; i++ {
		s, _ := NewSubscription(i, map[string]Interval{"a": iv(0, 10)})
		ix.Insert(s)
	}
	// Remove the node owner (ID 1): a bucket member takes over.
	if !ix.Remove(1) {
		t.Fatal("Remove missed node owner")
	}
	got := ix.Match(Event{Attrs: map[string]float64{"a": 5}})
	if len(got) != 2 {
		t.Fatalf("Match = %v, want 2 survivors", got)
	}
	for _, id := range got {
		if id == 1 {
			t.Fatal("removed ID still delivered")
		}
	}
	// Remove a bucket member directly.
	if !ix.Remove(3) {
		t.Fatal("Remove missed bucket member")
	}
	if got := ix.Match(Event{Attrs: map[string]float64{"a": 5}}); len(got) != 1 {
		t.Fatalf("Match = %v, want 1 survivor", got)
	}
}

func TestRemoveMatchesNaiveAfterChurn(t *testing.T) {
	ix := plainIndex()
	w := NewWorkload(DefaultWorkload(21))
	var ids []uint64
	for i := 0; i < 1500; i++ {
		s := w.NextSubscription()
		ids = append(ids, s.ID)
		ix.Insert(s)
	}
	// Remove every third subscription.
	for i := 0; i < len(ids); i += 3 {
		if !ix.Remove(ids[i]) {
			t.Fatalf("Remove(%d) missed", ids[i])
		}
	}
	for i := 0; i < 50; i++ {
		e := w.NextEvent()
		a := append([]uint64(nil), ix.Match(e)...)
		b := append([]uint64(nil), ix.MatchNaive(e)...)
		sort.Slice(a, func(x, y int) bool { return a[x] < a[y] })
		sort.Slice(b, func(x, y int) bool { return b[x] < b[y] })
		if len(a) != len(b) {
			t.Fatalf("event %d: pruned %d vs naive %d", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatal("result sets diverged after churn")
			}
		}
		for _, id := range a {
			if id%3 == 1 { // ids start at 1; removed ids are 1,4,7,...
				t.Fatalf("removed subscription %d still matched", id)
			}
		}
	}
}

func TestFigure3SmokeTest(t *testing.T) {
	// A miniature sweep on a shrunken platform: verifies the ratio rises
	// once the database exceeds the EPC.
	cfg := Figure3Config{
		OccupanciesMB: []float64{1, 8},
		MeasureOps:    300,
		PayloadBytes:  1024,
		CheckCost:     60,
		Seed:          42,
		Platform: enclave.Config{
			EPCBytes:         4 << 20,
			EPCReservedBytes: 1 << 20,
			LLCBytes:         256 << 10,
		},
	}
	points, err := RunFigure3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	small, big := points[0], points[1]
	if big.TimeRatio <= small.TimeRatio {
		t.Fatalf("time ratio did not rise past EPC: %.2f -> %.2f", small.TimeRatio, big.TimeRatio)
	}
	if big.TimeRatio < 2 {
		t.Fatalf("beyond-EPC ratio %.2f implausibly low", big.TimeRatio)
	}
	if big.InsideFaults <= small.InsideFaults {
		t.Fatalf("inside faults did not rise: %d -> %d", small.InsideFaults, big.InsideFaults)
	}
}

// TestFigure3ParallelMatchesSequential pins the statement that makes the
// parallel sweep trustworthy: every occupancy point builds its own twin
// platforms, so fanning points across goroutines changes the wall clock
// and nothing else. The points straddle the golden platform's 3 MiB of
// usable EPC, so a point that leaked EPC or LLC state into another would
// shift its fault counts.
func TestFigure3ParallelMatchesSequential(t *testing.T) {
	cfg := Figure3Config{
		OccupanciesMB: []float64{1, 3, 6},
		MeasureOps:    100,
		PayloadBytes:  600,
		CheckCost:     450,
		Seed:          42,
		Platform:      goldenPlatform(),
	}
	cfg.Parallel = 1
	seq, err := RunFigure3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallel = 3
	par, err := RunFigure3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par, seq) {
		t.Fatalf("parallel sweep %+v != sequential %+v", par, seq)
	}
}
