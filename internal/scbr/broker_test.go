package scbr

import (
	"bytes"
	"errors"
	"testing"

	"securecloud/internal/attest"
	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
)

func brokerEnclave(t *testing.T) (*enclave.Platform, *enclave.Enclave) {
	t.Helper()
	p := enclave.NewPlatform(enclave.Config{})
	var signer cryptbox.Digest
	signer[0] = 0x5C
	e, err := p.ECreate(64<<20, signer)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EAdd([]byte("scbr-broker-v1")); err != nil {
		t.Fatal(err)
	}
	if err := e.EInit(); err != nil {
		t.Fatal(err)
	}
	return p, e
}

func TestBrokerEndToEnd(t *testing.T) {
	_, enc := brokerEnclave(t)
	b, err := NewBroker(enc, DefaultBrokerConfig())
	if err != nil {
		t.Fatal(err)
	}
	subCli, err := Connect(b, "subscriber-1", nil, nil, attest.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	pubCli, err := Connect(b, "publisher-1", nil, nil, attest.Policy{})
	if err != nil {
		t.Fatal(err)
	}

	s, _ := NewSubscription(0, map[string]Interval{"voltage": iv(220, 240)})
	if _, err := subCli.Subscribe(b, s); err != nil {
		t.Fatal(err)
	}

	n, err := pubCli.Publish(b, Event{
		Attrs:   map[string]float64{"voltage": 231},
		Payload: []byte("feeder-7 reading"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("delivered to %d subscribers, want 1", n)
	}
	events, err := subCli.Receive(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || string(events[0].Payload) != "feeder-7 reading" {
		t.Fatalf("received %v", events)
	}

	// Non-matching publication delivers nothing.
	n, err = pubCli.Publish(b, Event{Attrs: map[string]float64{"voltage": 190}})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("non-matching event delivered to %d", n)
	}
}

func TestBrokerRejectsUnknownClient(t *testing.T) {
	_, enc := brokerEnclave(t)
	b, _ := NewBroker(enc, DefaultBrokerConfig())
	env := Envelope{ClientID: "stranger", Kind: KindPublication, Sealed: []byte("x")}
	if _, err := b.Publish(env); !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("err = %v, want ErrUnknownClient", err)
	}
	if _, err := b.Subscribe(env); !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("err = %v, want ErrUnknownClient", err)
	}
}

func TestBrokerRejectsForgedEnvelope(t *testing.T) {
	_, enc := brokerEnclave(t)
	b, _ := NewBroker(enc, DefaultBrokerConfig())
	if _, err := Connect(b, "c1", nil, nil, attest.Policy{}); err != nil {
		t.Fatal(err)
	}
	// An attacker who knows the client ID but not the session key.
	sealed, err := testClient(t, "c1", cryptbox.Key{0xFF}).SealEventBytes(Event{Attrs: map[string]float64{"a": 1}})
	if err != nil {
		t.Fatal(err)
	}
	forged := Envelope{ClientID: "c1", Kind: KindPublication, Sealed: sealed}
	if _, err := b.Publish(forged); !errors.Is(err, ErrBadEnvelope) {
		t.Fatalf("err = %v, want ErrBadEnvelope", err)
	}
}

func TestEnvelopesOpaqueOnWire(t *testing.T) {
	_, enc := brokerEnclave(t)
	b, _ := NewBroker(enc, DefaultBrokerConfig())
	cli, _ := Connect(b, "c1", nil, nil, attest.Policy{})
	s, _ := NewSubscription(0, map[string]Interval{"secret-attr": iv(1, 2)})
	sealed, err := cli.SealSubscriptionBytes(s)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(sealed, []byte("secret-attr")) {
		t.Fatal("subscription filter readable on the wire")
	}
}

func TestDeliveriesEncryptedPerSubscriber(t *testing.T) {
	_, enc := brokerEnclave(t)
	b, _ := NewBroker(enc, DefaultBrokerConfig())
	alice, _ := Connect(b, "alice", nil, nil, attest.Policy{})
	bob, _ := Connect(b, "bob", nil, nil, attest.Policy{})
	pub, _ := Connect(b, "pub", nil, nil, attest.Policy{})

	s, _ := NewSubscription(0, map[string]Interval{"a": iv(0, 10)})
	if _, err := alice.Subscribe(b, s); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish(b, Event{Attrs: map[string]float64{"a": 5}, Payload: []byte("for alice")}); err != nil {
		t.Fatal(err)
	}
	// Bob cannot decrypt Alice's queued delivery.
	stolen := b.Drain("alice")
	if len(stolen) != 1 {
		t.Fatalf("queued %d deliveries", len(stolen))
	}
	// Bob's session key fails even when he claims Alice's identity.
	if _, err := newClient("alice", bob.box).OpenDeliverySealed(stolen[0].Sealed); err == nil {
		t.Fatal("bob decrypted alice's delivery")
	}
	if _, err := alice.OpenDeliverySealed(stolen[0].Sealed); err != nil {
		t.Fatalf("alice cannot decrypt her own delivery: %v", err)
	}
}

func TestBrokerAttestationGate(t *testing.T) {
	p, enc := brokerEnclave(t)
	svc := attest.NewService()
	quoter, err := svc.Provision(p, "broker-node")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewBroker(enc, DefaultBrokerConfig())
	m, _ := enc.Measurement()

	good := attest.Policy{AllowedMREnclave: []cryptbox.Digest{m}}
	if _, err := Connect(b, "c1", svc, quoter, good); err != nil {
		t.Fatalf("attested connect failed: %v", err)
	}
	var wrong cryptbox.Digest
	wrong[0] = 1
	bad := attest.Policy{AllowedMREnclave: []cryptbox.Digest{wrong}}
	if _, err := Connect(b, "c2", svc, quoter, bad); err == nil {
		t.Fatal("client connected to a broker failing its policy")
	}
}

func TestBrokerHandshakeBadKey(t *testing.T) {
	_, enc := brokerEnclave(t)
	b, _ := NewBroker(enc, DefaultBrokerConfig())
	if _, err := b.Handshake("c1", []byte("short")); err == nil {
		t.Fatal("malformed client key accepted")
	}
}

func TestBrokerOneDeliveryPerSubscriberManyFilters(t *testing.T) {
	_, enc := brokerEnclave(t)
	b, _ := NewBroker(enc, DefaultBrokerConfig())
	cli, _ := Connect(b, "c1", nil, nil, attest.Policy{})
	pub, _ := Connect(b, "pub", nil, nil, attest.Policy{})
	for i := 0; i < 5; i++ {
		s, _ := NewSubscription(0, map[string]Interval{"a": iv(0, float64(10+i))})
		if _, err := cli.Subscribe(b, s); err != nil {
			t.Fatal(err)
		}
	}
	n, err := pub.Publish(b, Event{Attrs: map[string]float64{"a": 5}})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("delivered %d copies to one subscriber with 5 matching filters", n)
	}
}

func TestBrokerUnsubscribe(t *testing.T) {
	_, enc := brokerEnclave(t)
	b, _ := NewBroker(enc, DefaultBrokerConfig())
	cli, _ := Connect(b, "c1", nil, nil, attest.Policy{})
	pub, _ := Connect(b, "pub", nil, nil, attest.Policy{})
	s, _ := NewSubscription(0, map[string]Interval{"a": iv(0, 10)})
	subID, err := cli.Subscribe(b, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Unsubscribe("c1", subID); err != nil {
		t.Fatal(err)
	}
	n, err := pub.Publish(b, Event{Attrs: map[string]float64{"a": 5}})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("delivered to %d after unsubscribe", n)
	}
}

func TestBrokerUnsubscribeOwnershipEnforced(t *testing.T) {
	_, enc := brokerEnclave(t)
	b, _ := NewBroker(enc, DefaultBrokerConfig())
	alice, _ := Connect(b, "alice", nil, nil, attest.Policy{})
	if _, err := Connect(b, "mallory", nil, nil, attest.Policy{}); err != nil {
		t.Fatal(err)
	}
	s, _ := NewSubscription(0, map[string]Interval{"a": iv(0, 10)})
	subID, _ := alice.Subscribe(b, s)
	if err := b.Unsubscribe("mallory", subID); err == nil {
		t.Fatal("foreign client removed alice's subscription")
	}
	if err := b.Unsubscribe("alice", 9999); err == nil {
		t.Fatal("unknown subscription removed")
	}
	if err := b.Unsubscribe("stranger", subID); !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("err = %v, want ErrUnknownClient", err)
	}
}

func TestBrokerChargesEnclaveTransitions(t *testing.T) {
	_, enc := brokerEnclave(t)
	b, _ := NewBroker(enc, DefaultBrokerConfig())
	cli, _ := Connect(b, "c1", nil, nil, attest.Policy{})
	before := enc.Memory().Breakdown()[enclave.CauseTransition]
	s, _ := NewSubscription(0, map[string]Interval{"a": iv(0, 1)})
	if _, err := cli.Subscribe(b, s); err != nil {
		t.Fatal(err)
	}
	after := enc.Memory().Breakdown()[enclave.CauseTransition]
	if after <= before {
		t.Fatal("subscription request did not charge an enclave entry")
	}
}

func TestHandshakeCannotDisplaceLiveSession(t *testing.T) {
	_, enc := brokerEnclave(t)
	b, _ := NewBroker(enc, DefaultBrokerConfig())
	victim, err := Connect(b, "c1", nil, nil, attest.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := NewSubscription(0, map[string]Interval{"a": iv(0, 10)})
	if _, err := victim.Subscribe(b, s); err != nil {
		t.Fatal(err)
	}

	// An attacker who knows only the client ID tries a fresh handshake.
	h, err := BeginHandshake("c1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Handshake("c1", h.Public()); !errors.Is(err, ErrSessionExists) {
		t.Fatalf("takeover handshake: err = %v, want ErrSessionExists", err)
	}

	// The victim's session is intact: deliveries still seal to its key.
	pub, _ := Connect(b, "pub", nil, nil, attest.Policy{})
	if _, err := pub.Publish(b, Event{Attrs: map[string]float64{"a": 5}, Payload: []byte("p")}); err != nil {
		t.Fatal(err)
	}
	events, err := victim.Receive(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("victim received %d events, want 1", len(events))
	}
}

func TestRehandshakeRotatesSessionWithProof(t *testing.T) {
	_, enc := brokerEnclave(t)
	b, _ := NewBroker(enc, DefaultBrokerConfig())
	cli, err := Connect(b, "c1", nil, nil, attest.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := NewSubscription(0, map[string]Interval{"a": iv(0, 10)})
	if _, err := cli.Subscribe(b, s); err != nil {
		t.Fatal(err)
	}

	// A proof sealed under the wrong key is rejected.
	forged, err := BeginHandshake("c1")
	if err != nil {
		t.Fatal(err)
	}
	wrongBox, _ := cryptbox.NewBox(cryptbox.Key{0xFF})
	badProof, _ := wrongBox.Seal(forged.Public(), aadRehandshake("c1"))
	if _, err := b.Rehandshake("c1", badProof); !errors.Is(err, ErrBadEnvelope) {
		t.Fatalf("forged proof: err = %v, want ErrBadEnvelope", err)
	}

	// The legitimate holder rotates and keeps receiving.
	h, err := BeginHandshake("c1")
	if err != nil {
		t.Fatal(err)
	}
	proof, err := cli.SealRehandshake(h)
	if err != nil {
		t.Fatal(err)
	}
	brokerPub, err := b.Rehandshake("c1", proof)
	if err != nil {
		t.Fatal(err)
	}
	rotated, err := h.Finish(brokerPub)
	if err != nil {
		t.Fatal(err)
	}
	pub, _ := Connect(b, "pub", nil, nil, attest.Policy{})
	if _, err := pub.Publish(b, Event{Attrs: map[string]float64{"a": 3}, Payload: []byte("post-rotate")}); err != nil {
		t.Fatal(err)
	}
	events, err := rotated.Receive(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || string(events[0].Payload) != "post-rotate" {
		t.Fatalf("rotated client received %v", events)
	}
	// The pre-rotation key no longer opens new deliveries.
	if _, err := pub.Publish(b, Event{Attrs: map[string]float64{"a": 3}, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	for _, d := range b.Drain("c1") {
		if _, err := cli.OpenDeliverySealed(d.Sealed); err == nil {
			t.Fatal("old session key still opens post-rotation deliveries")
		}
	}
}

func TestDrainSealedRejectsReplayAndForgery(t *testing.T) {
	_, enc := brokerEnclave(t)
	b, _ := NewBroker(enc, DefaultBrokerConfig())
	cli, err := Connect(b, "c1", nil, nil, attest.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := NewSubscription(0, map[string]Interval{"a": iv(0, 10)})
	if _, err := cli.Subscribe(b, s); err != nil {
		t.Fatal(err)
	}
	pub, _ := Connect(b, "pub", nil, nil, attest.Policy{})
	if _, err := pub.Publish(b, Event{Attrs: map[string]float64{"a": 1}, Payload: []byte("one")}); err != nil {
		t.Fatal(err)
	}

	// No proof at all.
	if _, err := b.DrainSealed("c1", []byte("junk")); !errors.Is(err, ErrBadEnvelope) {
		t.Fatalf("garbage token: err = %v, want ErrBadEnvelope", err)
	}
	// A valid token drains once...
	token, err := cli.SealPollToken()
	if err != nil {
		t.Fatal(err)
	}
	dels, err := b.DrainSealed("c1", token)
	if err != nil {
		t.Fatal(err)
	}
	if len(dels) != 1 {
		t.Fatalf("drained %d deliveries, want 1", len(dels))
	}
	// ...and a replay of the same bytes is rejected even with new mail.
	if _, err := pub.Publish(b, Event{Attrs: map[string]float64{"a": 2}, Payload: []byte("two")}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.DrainSealed("c1", token); !errors.Is(err, ErrReplayedToken) {
		t.Fatalf("replayed token: err = %v, want ErrReplayedToken", err)
	}
	// A fresh token still works; the pending delivery survived the replay.
	token2, err := cli.SealPollToken()
	if err != nil {
		t.Fatal(err)
	}
	dels, err = b.DrainSealed("c1", token2)
	if err != nil {
		t.Fatal(err)
	}
	if len(dels) != 1 {
		t.Fatalf("post-replay drain got %d deliveries, want 1", len(dels))
	}
	if _, err := b.DrainSealed("unknown", token2); !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("unknown client: err = %v, want ErrUnknownClient", err)
	}
}
