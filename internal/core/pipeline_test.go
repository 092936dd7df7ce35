package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"securecloud/internal/attest"
	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/eventbus"
	"securecloud/internal/microsvc"
	"securecloud/internal/smartgrid"
)

// tickMsg is the bus payload of one telemetry tick.
type tickMsg struct {
	Tick     int64               `json:"tick"`
	Readings []smartgrid.Reading `json:"readings"`
	FeederKW map[string]float64  `json:"feeder_kw"`
}

// tapTransport carries plane frames over the bus and keeps a copy of every
// frame in both directions: the view of the untrusted host the client
// runs on.
type tapTransport struct {
	pub  *eventbus.Publisher
	sub  *eventbus.Subscriber
	seen [][]byte
}

func (t *tapTransport) SendFrames(frames [][]byte) error {
	t.seen = append(t.seen, frames...)
	_, err := t.pub.PublishBatch(frames)
	return err
}

func (t *tapTransport) RecvFrames() ([][]byte, error) {
	frames, err := t.sub.Receive()
	t.seen = append(t.seen, frames...)
	return frames, err
}

func (t *tapTransport) Close() { t.sub.Close() }

// TestSmartGridPipelineFullStack is the §VI integration test: meter fleet
// → encrypted bus → attested enclave-hosted analytics replica → encrypted
// alert topic, with injected theft and a voltage sag that must both be
// detected, and no plaintext on the bus.
func TestSmartGridPipelineFullStack(t *testing.T) {
	svc := attest.NewService()
	cloud, err := NewCloud(1, svc)
	if err != nil {
		t.Fatal(err)
	}
	owner, err := NewOwner(svc)
	if err != nil {
		t.Fatal(err)
	}

	// The owner registers the analytics keys with a key broker: only an
	// enclave attesting under the service's replica signer receives them.
	const name = "grid/analytics"
	keys, err := microsvc.NewServiceKeys(owner.AppRoot, name, "readings", "alerts")
	if err != nil {
		t.Fatal(err)
	}
	kb := attest.NewKeyBroker(svc)
	kb.Register(name, attest.Policy{AllowedMRSigner: []cryptbox.Digest{microsvc.ReplicaSigner(name)}}, keys)

	detector := smartgrid.NewTheftDetector()
	quality := smartgrid.NewQualityMonitor()
	handler := func(req []byte) ([]byte, error) {
		var p tickMsg
		if err := json.Unmarshal(req, &p); err != nil {
			return nil, err
		}
		var out []string
		for _, a := range detector.Observe(p.Tick, p.Readings, p.FeederKW) {
			out = append(out, "THEFT "+a.Feeder+" "+fmt.Sprint(a.Suspects))
		}
		for _, e := range quality.Observe(p.Tick, p.Readings) {
			out = append(out, "QUALITY "+e.String())
		}
		if out == nil {
			return nil, nil
		}
		return json.Marshal(out)
	}
	// A cost model that charges only enclave transitions turns the
	// replica's cycle total into a count of enclave entries. One replica
	// and one routing key keep the stateful detectors' ticks in order.
	const transition = 8_000
	rs, err := microsvc.NewReplicaSet(cloud.Bus, svc, kb, name, handler, microsvc.ReplicaSetConfig{
		Replicas: 1, InTopic: "readings", OutTopic: "alerts", EnclaveBytes: 64 << 20,
		Platform: enclave.Config{Cost: enclave.CostModel{Transition: transition}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Stop()

	pub, err := eventbus.OpenPublisher(eventbus.EndpointConfig{Bus: cloud.Bus, Topic: "readings", Key: keys.Topics["readings"]})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := eventbus.OpenSubscriber(eventbus.EndpointConfig{Bus: cloud.Bus, Topic: "alerts", Key: keys.Topics["alerts"]})
	if err != nil {
		t.Fatal(err)
	}
	tap := &tapTransport{pub: pub, sub: sub}
	client, err := microsvc.NewPlaneClientTransport(name, keys.Request, tap)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	fleet := smartgrid.NewFleet(smartgrid.FleetConfig{
		Seed: 11, Meters: 150, MetersPerFeeder: 50, TicksPerDay: 2880,
	})
	const thief = 60 // feeder-001
	fleet.InjectTheft(thief, 120, 0.2)
	fleet.InjectSag(2, 150, 155, 0.8)

	const horizon = 240
	var alerts []string
	for tick := int64(0); tick < horizon; tick++ {
		readings, feederKW := fleet.Tick(tick)
		body, err := json.Marshal(tickMsg{Tick: tick, Readings: readings, FeederKW: feederKW})
		if err != nil {
			t.Fatal(err)
		}
		if err := client.Send("grid", body); err != nil {
			t.Fatal(err)
		}
		if st, err := rs.Step(); err != nil || st.Served != 1 {
			t.Fatalf("tick %d: step = %+v, err %v", tick, st, err)
		}
		replies, err := client.Replies()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range replies {
			var batch []string
			if err := json.Unmarshal(r.Body, &batch); err != nil {
				t.Fatal(err)
			}
			alerts = append(alerts, batch...)
		}
	}

	var sawTheft, sawQuality bool
	for _, a := range alerts {
		if bytes.HasPrefix([]byte(a), []byte("THEFT feeder-001")) {
			sawTheft = true
		}
		if bytes.HasPrefix([]byte(a), []byte("QUALITY feeder-002 sag")) {
			sawQuality = true
		}
	}
	if !sawTheft {
		t.Fatal("theft on feeder-001 not detected through the full stack")
	}
	if !sawQuality {
		t.Fatal("voltage sag on feeder-002 not detected through the full stack")
	}
	// Neither readings nor alerts cross the untrusted transport in the
	// clear: every frame carries only the routing key and a sealed body.
	for _, f := range tap.seen {
		for _, secret := range []string{`"meter_id"`, `"feeder_kw"`, "THEFT", "QUALITY"} {
			if bytes.Contains(f, []byte(secret)) {
				t.Fatalf("plaintext %s on the bus", secret)
			}
		}
	}
	// The analytics really ran inside the enclave: at least one entry per
	// tick was charged to the replica.
	if got := rs.Totals().SerialCycles; got < horizon*transition {
		t.Fatalf("replica charged %d transition cycles, want >= %d", got, horizon*transition)
	}
	if cloud.Bus.Depth("readings") != 0 {
		t.Fatal("readings left in the bus")
	}
}
