package scbr

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"securecloud/internal/cryptbox"
)

func iv(lo, hi float64) Interval { return Interval{Lo: lo, Hi: hi} }

func sub(t *testing.T, id uint64, preds map[string]Interval) Subscription {
	t.Helper()
	s, err := NewSubscription(id, preds)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestIntervalBasics(t *testing.T) {
	if !iv(1, 3).Contains(2) || iv(1, 3).Contains(4) || iv(1, 3).Contains(0.5) {
		t.Fatal("Contains wrong")
	}
	if !iv(1, 3).Contains(1) || !iv(1, 3).Contains(3) {
		t.Fatal("closed endpoints excluded")
	}
	if !iv(0, 10).Covers(iv(2, 5)) || iv(2, 5).Covers(iv(0, 10)) {
		t.Fatal("Covers wrong")
	}
	if !iv(2, 5).Covers(iv(2, 5)) {
		t.Fatal("Covers not reflexive")
	}
	if iv(3, 2).Valid() {
		t.Fatal("empty interval valid")
	}
	if !FullRange().Contains(1e300) || !FullRange().Contains(-1e300) {
		t.Fatal("FullRange not full")
	}
}

func TestNewSubscriptionValidation(t *testing.T) {
	if _, err := NewSubscription(1, nil); err == nil {
		t.Fatal("empty subscription accepted")
	}
	if _, err := NewSubscription(1, map[string]Interval{"a": iv(5, 2)}); err == nil {
		t.Fatal("empty interval accepted")
	}
}

func TestMatches(t *testing.T) {
	s := sub(t, 1, map[string]Interval{"temp": iv(20, 30), "load": iv(0, 100)})
	if !s.Matches(Event{Attrs: map[string]float64{"temp": 25, "load": 50}}) {
		t.Fatal("in-range event rejected")
	}
	if s.Matches(Event{Attrs: map[string]float64{"temp": 35, "load": 50}}) {
		t.Fatal("out-of-range event accepted")
	}
	if s.Matches(Event{Attrs: map[string]float64{"temp": 25}}) {
		t.Fatal("event missing constrained attribute accepted")
	}
	if !s.Matches(Event{Attrs: map[string]float64{"temp": 25, "load": 50, "extra": 1}}) {
		t.Fatal("unconstrained extra attribute rejected")
	}
}

func TestCoversSemantics(t *testing.T) {
	general := sub(t, 1, map[string]Interval{"temp": iv(0, 100)})
	specific := sub(t, 2, map[string]Interval{"temp": iv(20, 30)})
	moreAttrs := sub(t, 3, map[string]Interval{"temp": iv(20, 30), "load": iv(0, 10)})

	if !general.Covers(specific) {
		t.Fatal("wider interval does not cover narrower")
	}
	if specific.Covers(general) {
		t.Fatal("narrower covers wider")
	}
	if !specific.Covers(moreAttrs) {
		t.Fatal("fewer constraints do not cover more constraints")
	}
	if moreAttrs.Covers(specific) {
		t.Fatal("extra constraint covers fewer constraints")
	}
	if !general.Covers(general) {
		t.Fatal("Covers not reflexive")
	}
}

func TestCoversDisjointAttrs(t *testing.T) {
	a := sub(t, 1, map[string]Interval{"x": iv(0, 1)})
	b := sub(t, 2, map[string]Interval{"y": iv(0, 1)})
	if a.Covers(b) || b.Covers(a) {
		t.Fatal("filters on disjoint attributes cover each other")
	}
}

// TestPropCoversSoundness: if s1 covers s2, every event matching s2 must
// match s1 — the semantic definition of covering, checked on random data.
func TestPropCoversSoundness(t *testing.T) {
	f := func(lo1, w1, lo2, w2, ev byte) bool {
		s1, _ := NewSubscription(1, map[string]Interval{
			"a": iv(float64(lo1), float64(lo1)+float64(w1)),
		})
		s2, _ := NewSubscription(2, map[string]Interval{
			"a": iv(float64(lo2), float64(lo2)+float64(w2)),
		})
		e := Event{Attrs: map[string]float64{"a": float64(ev)}}
		if s1.Covers(s2) && s2.Matches(e) && !s1.Matches(e) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestPropCoversTransitive checks transitivity on random nested intervals.
func TestPropCoversTransitive(t *testing.T) {
	f := func(a1, a2, b1, b2, c1, c2 byte) bool {
		mk := func(lo, hi byte) Subscription {
			l, h := float64(lo), float64(hi)
			if h < l {
				l, h = h, l
			}
			s, _ := NewSubscription(1, map[string]Interval{"a": iv(l, h)})
			return s
		}
		x, y, z := mk(a1, a2), mk(b1, b2), mk(c1, c2)
		if x.Covers(y) && y.Covers(z) && !x.Covers(z) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// testClient builds a client half directly from a session key, standing in
// for a completed handshake.
func testClient(t testing.TB, id string, key cryptbox.Key) *Client {
	t.Helper()
	box, err := cryptbox.NewBox(key)
	if err != nil {
		t.Fatal(err)
	}
	return newClient(id, box)
}

func TestEnvelopeRoundTrip(t *testing.T) {
	cli := testClient(t, "client-1", cryptbox.Key{1, 2, 3})
	s := sub(t, 7, map[string]Interval{"temp": iv(0, 10)})
	sealed, err := cli.SealSubscriptionBytes(s)
	if err != nil {
		t.Fatal(err)
	}
	env := Envelope{ClientID: cli.ID, Kind: KindSubscription, Sealed: sealed}
	raw, err := openEnvelopeWith(cli.box, env)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeSubscription(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != s.ID || !reflect.DeepEqual(got.Preds, s.Preds) {
		t.Fatalf("roundtrip = %+v, want %+v", got, s)
	}
}

func TestEnvelopeRejectsWrongKeyAndKindSwap(t *testing.T) {
	cli := testClient(t, "c", cryptbox.Key{1})
	other := testClient(t, "c", cryptbox.Key{2})
	sealed, err := cli.SealEventBytes(Event{Attrs: map[string]float64{"a": 1}})
	if err != nil {
		t.Fatal(err)
	}
	env := Envelope{ClientID: cli.ID, Kind: KindPublication, Sealed: sealed}
	if _, err := openEnvelopeWith(other.box, env); err == nil {
		t.Fatal("wrong key opened envelope")
	}
	// Re-labelling a publication as a subscription must fail (AAD binds
	// the kind).
	env.Kind = KindSubscription
	if _, err := openEnvelopeWith(cli.box, env); err == nil {
		t.Fatal("kind swap undetected")
	}
}

func TestDeliveryRoundTripAndTamper(t *testing.T) {
	key := cryptbox.Key{5}
	box, _ := cryptbox.NewBox(key)
	payload, err := appendEventBinary(nil, Event{Attrs: map[string]float64{"a": 1}, Payload: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	sealed, _ := box.Seal(payload, []byte("delivery|sub-1"))
	e, err := testClient(t, "sub-1", key).OpenDeliverySealed(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if e.Attrs["a"] != 1 || string(e.Payload) != "x" {
		t.Fatalf("delivery decode wrong: %+v", e)
	}
	// Redirecting a delivery to another subscriber must break auth.
	if _, err := testClient(t, "sub-2", key).OpenDeliverySealed(sealed); !errors.Is(err, ErrBadEnvelope) {
		t.Fatalf("redirected delivery: err = %v, want ErrBadEnvelope", err)
	}
}

func TestStorageBytesGrowsWithPredicates(t *testing.T) {
	small := sub(t, 1, map[string]Interval{"a": iv(0, 1)})
	big := sub(t, 2, map[string]Interval{"a": iv(0, 1), "b": iv(0, 1), "c": iv(0, 1)})
	if big.StorageBytes() <= small.StorageBytes() {
		t.Fatal("storage accounting ignores predicate count")
	}
}
