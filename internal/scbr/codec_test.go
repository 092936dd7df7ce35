package scbr

import (
	"math"
	"reflect"
	"testing"
)

func mustEventBinary(t testing.TB, e Event) []byte {
	t.Helper()
	raw, err := appendEventBinary(nil, e)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func mustSubBinary(t testing.TB, s Subscription) []byte {
	t.Helper()
	raw, err := appendSubscriptionBinary(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestCodecEventRoundtrip(t *testing.T) {
	w := NewWorkload(DefaultWorkload(11))
	for i := 0; i < 50; i++ {
		e := w.NextEvent()
		raw := mustEventBinary(t, e)
		got, err := decodeEvent(raw)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got.Attrs, e.Attrs) || string(got.Payload) != string(e.Payload) {
			t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, e)
		}
	}
}

func TestCodecEventDeterministic(t *testing.T) {
	e := Event{Attrs: map[string]float64{"b": 2, "a": 1, "c": 3}, Payload: []byte("p")}
	a := mustEventBinary(t, e)
	for i := 0; i < 10; i++ {
		if string(mustEventBinary(t, e)) != string(a) {
			t.Fatal("equal events encoded to different bytes")
		}
	}
}

func TestCodecSubscriptionRoundtrip(t *testing.T) {
	w := NewWorkload(DefaultWorkload(12))
	for i := 0; i < 50; i++ {
		s := w.NextSubscription()
		raw := mustSubBinary(t, s)
		got, err := decodeSubscription(raw)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.ID != s.ID || !reflect.DeepEqual(got.Preds, s.Preds) {
			t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, s)
		}
	}
}

// TestCodecHandlesInfinities: the binary form carries ±Inf bounds (e.g.
// FullRange predicates) that encoding/json rejects outright.
func TestCodecHandlesInfinities(t *testing.T) {
	s := Subscription{ID: 7, Preds: []Predicate{{Attr: "any", Interval: FullRange()}}}
	got, err := decodeSubscription(mustSubBinary(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got.Preds[0].Interval.Lo, -1) || !math.IsInf(got.Preds[0].Interval.Hi, 1) {
		t.Fatalf("infinite bounds lost: %+v", got.Preds[0].Interval)
	}
}

func TestCodecTruncatedFrames(t *testing.T) {
	e := Event{Attrs: map[string]float64{"alpha": 1}, Payload: []byte("payload")}
	raw := mustEventBinary(t, e)
	for cut := 1; cut < len(raw); cut++ {
		if _, err := decodeEvent(raw[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	s := Subscription{ID: 1, Preds: []Predicate{{Attr: "alpha", Interval: Interval{Lo: 0, Hi: 1}}}}
	rawS := mustSubBinary(t, s)
	for cut := 1; cut < len(rawS); cut++ {
		if _, err := decodeSubscription(rawS[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// FuzzDecodeEvent guards the binary decoders against panics on malformed
// frames (out-of-range lengths, truncations).
func FuzzDecodeEvent(f *testing.F) {
	f.Add(mustEventBinary(f, Event{Attrs: map[string]float64{"a": 1}, Payload: []byte("x")}))
	f.Add([]byte{binMagic, binKindEvent, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(mustSubBinary(f, Subscription{ID: 9, Preds: []Predicate{{Attr: "a", Interval: Interval{Lo: 0, Hi: 1}}}}))
	f.Fuzz(func(t *testing.T, raw []byte) {
		_, _ = decodeEvent(raw)
		_, _ = decodeSubscription(raw)
	})
}

// TestCodecRejectsOversizeFields: lengths that would wrap the frame's
// prefixes are rejected at encode time instead of emitting corrupt frames.
func TestCodecRejectsOversizeFields(t *testing.T) {
	huge := string(make([]byte, 70000))
	if _, err := appendEventBinary(nil, Event{Attrs: map[string]float64{huge: 1}}); err == nil {
		t.Fatal("oversize attribute name encoded without error")
	}
	s := Subscription{ID: 1, Preds: []Predicate{{Attr: huge, Interval: Interval{Lo: 0, Hi: 1}}}}
	if _, err := appendSubscriptionBinary(nil, s); err == nil {
		t.Fatal("oversize predicate attribute encoded without error")
	}
}

// TestCodecRejectsTrailingGarbage: byte-distinct frames must not decode to
// equal values.
func TestCodecRejectsTrailingGarbage(t *testing.T) {
	eRaw := mustEventBinary(t, Event{Attrs: map[string]float64{"a": 1}, Payload: []byte("p")})
	if _, err := decodeEvent(append(eRaw, 0x00)); err == nil {
		t.Fatal("event frame with trailing byte accepted")
	}
	sRaw := mustSubBinary(t, Subscription{ID: 1, Preds: []Predicate{{Attr: "a", Interval: Interval{Lo: 0, Hi: 1}}}})
	if _, err := decodeSubscription(append(sRaw, 0x00)); err == nil {
		t.Fatal("subscription frame with trailing byte accepted")
	}
}
