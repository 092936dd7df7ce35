package microsvc

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"strings"
	"testing"

	"securecloud/internal/attest"
	"securecloud/internal/container"
	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/eventbus"
	"securecloud/internal/image"
	"securecloud/internal/orchestrator"
	"securecloud/internal/registry"
	"securecloud/internal/sconert"
)

// planeFixture assembles the minimal plane: bus, attestation service, key
// broker with keys registered for name under its replica signer.
func planeFixture(t *testing.T, name string, topics ...string) (*eventbus.Bus, *attest.Service, *attest.KeyBroker, attest.ServiceKeys) {
	t.Helper()
	bus := eventbus.New()
	svc := attest.NewService()
	kb := attest.NewKeyBroker(svc)
	var root cryptbox.Key
	root[0] = 0x5E
	keys, err := NewServiceKeys(root, name, topics...)
	if err != nil {
		t.Fatal(err)
	}
	kb.Register(name, attest.Policy{AllowedMRSigner: []cryptbox.Digest{ReplicaSigner(name)}}, keys)
	return bus, svc, kb, keys
}

func TestReplicaSetServesOnPlane(t *testing.T) {
	bus, svc, kb, keys := planeFixture(t, "plane/upper", "up/req", "up/resp")
	rs, err := NewReplicaSet(bus, svc, kb, "plane/upper",
		func(req []byte) ([]byte, error) { return bytes.ToUpper(req), nil },
		ReplicaSetConfig{Replicas: 3, InTopic: "up/req", OutTopic: "up/resp"})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Stop()
	client, err := NewPlaneClient(bus, "plane/upper", keys, "up/req", "up/resp")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	reqs := make([]PlaneRequest, 20)
	for i := range reqs {
		reqs[i] = PlaneRequest{Key: fmt.Sprintf("meter-%02d", i), Body: []byte(fmt.Sprintf("reading %d", i))}
	}
	if _, err := client.SendTenantIDs("", reqs); err != nil {
		t.Fatal(err)
	}
	st, err := rs.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.Polled != 20 || st.Served != 20 || st.Failed != 0 {
		t.Fatalf("step = %+v", st)
	}
	replies, err := client.Replies()
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 20 {
		t.Fatalf("replies = %d", len(replies))
	}
	byKey := make(map[string]string, len(replies))
	for _, r := range replies {
		byKey[r.Key] = string(r.Body)
	}
	for i := range reqs {
		want := strings.ToUpper(fmt.Sprintf("reading %d", i))
		if got := byKey[fmt.Sprintf("meter-%02d", i)]; got != want {
			t.Fatalf("reply for meter-%02d = %q, want %q", i, got, want)
		}
	}
	tot := rs.Totals()
	if tot.Served != 20 || tot.Launched != 3 || tot.Live != 3 {
		t.Fatalf("totals = %+v", tot)
	}
	if tot.SerialCycles == 0 || tot.FrontCycles == 0 {
		t.Fatal("no cycles charged on the plane")
	}
}

// TestNoKeysWithoutAttestation is the acceptance property: a service whose
// enclaves do not satisfy the key broker's policy never comes up — there
// is no API path onto the plane that bypasses the verified-quote release.
func TestNoKeysWithoutAttestation(t *testing.T) {
	bus, svc, kb, _ := planeFixture(t, "plane/app", "a/req", "a/resp")
	// The broker's policy for "plane/app" allows ReplicaSigner("plane/app").
	// An impostor service reusing the same topics but a different identity
	// is denied keys, so its replica set cannot boot.
	var root cryptbox.Key
	root[0] = 0x66
	keys, err := NewServiceKeys(root, "plane/evil", "a/req", "a/resp")
	if err != nil {
		t.Fatal(err)
	}
	kb.Register("plane/evil",
		attest.Policy{AllowedMRSigner: []cryptbox.Digest{ReplicaSigner("plane/app")}}, keys)
	_, err = NewReplicaSet(bus, svc, kb, "plane/evil",
		func(req []byte) ([]byte, error) { return req, nil },
		ReplicaSetConfig{Replicas: 1, InTopic: "a/req", OutTopic: "a/resp"})
	if !errors.Is(err, attest.ErrPolicy) {
		t.Fatalf("impostor replica set booted: err = %v, want ErrPolicy", err)
	}
	// A service with no registration at all is denied outright.
	_, err = NewReplicaSet(bus, svc, kb, "plane/unknown",
		func(req []byte) ([]byte, error) { return req, nil },
		ReplicaSetConfig{Replicas: 1, InTopic: "a/req", OutTopic: "a/resp"})
	if !errors.Is(err, attest.ErrUnknownService) {
		t.Fatalf("unregistered service booted: err = %v, want ErrUnknownService", err)
	}
	// Revoking the service stops scale-out: the next Launch is denied keys.
	rs, err := NewReplicaSet(bus, svc, kb, "plane/app",
		func(req []byte) ([]byte, error) { return req, nil },
		ReplicaSetConfig{Replicas: 1, InTopic: "a/req", OutTopic: "a/resp"})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Stop()
	kb.Revoke("plane/app")
	if _, err := rs.Launch(); !errors.Is(err, attest.ErrServiceRevoked) {
		t.Fatalf("launch after revocation: err = %v, want ErrServiceRevoked", err)
	}
}

func TestReplicaSetKeyAffinity(t *testing.T) {
	bus, svc, kb, keys := planeFixture(t, "plane/aff", "f/req", "f/resp")
	rs, err := NewReplicaSet(bus, svc, kb, "plane/aff",
		func(req []byte) ([]byte, error) { return req, nil },
		ReplicaSetConfig{Replicas: 4, InTopic: "f/req", OutTopic: "f/resp"})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Stop()
	client, err := NewPlaneClient(bus, "plane/aff", keys, "f/req", "f/resp")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// All requests share one routing key: exactly one replica serves them.
	for tick := 0; tick < 3; tick++ {
		var batch []PlaneRequest
		for i := 0; i < 10; i++ {
			batch = append(batch, PlaneRequest{Key: "feeder-7", Body: []byte("x")})
		}
		if _, err := client.SendTenantIDs("", batch); err != nil {
			t.Fatal(err)
		}
		if _, err := rs.Step(); err != nil {
			t.Fatal(err)
		}
	}
	busy := 0
	for _, h := range rs.ReplicaHandles() {
		if h.(*Replica).Stats().Served > 0 {
			busy++
		}
	}
	if busy != 1 {
		t.Fatalf("single-key load spread over %d replicas, want 1", busy)
	}
}

func TestRetireRequeuesPending(t *testing.T) {
	bus, svc, kb, keys := planeFixture(t, "plane/rq", "q/req", "q/resp")
	rs, err := NewReplicaSet(bus, svc, kb, "plane/rq",
		func(req []byte) ([]byte, error) { return req, nil },
		ReplicaSetConfig{Replicas: 2, InTopic: "q/req", OutTopic: "q/resp",
			// A tiny budget: one request per replica per tick.
			TickBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Stop()
	client, err := NewPlaneClient(bus, "plane/rq", keys, "q/req", "q/resp")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var batch []PlaneRequest
	for i := 0; i < 12; i++ {
		batch = append(batch, PlaneRequest{Key: fmt.Sprintf("k%d", i), Body: []byte("b")})
	}
	if _, err := client.SendTenantIDs("", batch); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Step(); err != nil {
		t.Fatal(err)
	}
	if got := rs.Backlog(); got != 10 {
		t.Fatalf("backlog after budgeted step = %d, want 10", got)
	}
	// Retiring a replica must not lose its pending work.
	handles := rs.ReplicaHandles()
	if err := rs.Retire(handles[0].ID()); err != nil {
		t.Fatal(err)
	}
	if got := rs.Backlog(); got != 10 {
		t.Fatalf("backlog after retire = %d, want 10 (no work lost)", got)
	}
	// Unbudgeted steps drain everything through the survivor.
	rs.cfg.TickBudget = 0
	if _, err := rs.Step(); err != nil {
		t.Fatal(err)
	}
	if got := rs.Backlog(); got != 0 {
		t.Fatalf("backlog after drain = %d", got)
	}
	if tot := rs.Totals(); tot.Served != 12 {
		t.Fatalf("served = %d, want 12 (retired replica's work redistributed)", tot.Served)
	}
}

func TestStepWithNoReplicasRequeues(t *testing.T) {
	bus, svc, kb, keys := planeFixture(t, "plane/none", "n/req", "n/resp")
	rs, err := NewReplicaSet(bus, svc, kb, "plane/none",
		func(req []byte) ([]byte, error) { return req, nil },
		ReplicaSetConfig{Replicas: 1, InTopic: "n/req", OutTopic: "n/resp"})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Stop()
	client, _ := NewPlaneClient(bus, "plane/none", keys, "n/req", "n/resp")
	defer client.Close()
	if err := rs.Retire(rs.ReplicaHandles()[0].ID()); err != nil {
		t.Fatal(err)
	}
	if err := client.Send("k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Step(); !errors.Is(err, ErrNoLiveReplicas) {
		t.Fatalf("err = %v, want ErrNoLiveReplicas", err)
	}
	// The polled frame was not lost: a relaunched replica serves it.
	if _, err := rs.Launch(); err != nil {
		t.Fatal(err)
	}
	st, err := rs.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.Served != 1 {
		t.Fatalf("served = %d after relaunch, want 1", st.Served)
	}
}

// TestFrameCodec pins the frame layout byte for byte and the decoders'
// verdicts on malformed input, including the retired v1 layout (a bare
// key length where the magic belongs).
func TestFrameCodec(t *testing.T) {
	meta := frameMeta{tenant: "acme", id: 42}
	f := append(frameHeader("feeder-07", meta, 0, 0), "sealed-bytes"...)
	want := []byte{0xFF, 0xFF, 0x00, 4, 'a', 'c', 'm', 'e', 0, 0, 0, 0, 0, 0, 0, 42, 0x00, 9}
	want = append(append(want, "feeder-07"...), "sealed-bytes"...)
	if !bytes.Equal(f, want) {
		t.Fatalf("frame = %x, want %x", f, want)
	}
	if c := cap(frameHeader("feeder-07", meta, 0, len("sealed-bytes"))); c != len(want) {
		t.Fatalf("frameHeader capacity = %d, want %d", c, len(want))
	}
	q, shed, err := decodeFrame(f)
	if err != nil || shed || q.key != "feeder-07" || q.meta != meta || string(q.sealed) != "sealed-bytes" {
		t.Fatalf("roundtrip = %+v shed=%v err=%v", q, shed, err)
	}
	if tenant, shed, err := PeekFrameTenant(f); err != nil || shed || tenant != "acme" {
		t.Fatalf("PeekFrameTenant = %q %v %v", tenant, shed, err)
	}
	if err := CheckFrame(f); err != nil {
		t.Fatalf("CheckFrame = %v", err)
	}
	sf := frameHeader("k", meta, frameFlagShed, 0)
	if _, shed, err := decodeFrame(sf); err != nil || !shed {
		t.Fatalf("shed frame: shed=%v err=%v", shed, err)
	}
	if err := CheckFrame(sf); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("CheckFrame(shed) = %v, want ErrBadFrame", err)
	}
	for _, bad := range [][]byte{
		nil,
		{0xFF, 0xFF, 0x00},
		{0x00, 0x01, 'k', 's'},                 // retired v1 layout
		{0xFF, 0xFF, 0x00, 5, 'a', 'c'},        // tenant runs past the end
		want[:len(want)-len("sealed-bytes")-1], // key runs past the end
	} {
		if _, _, err := decodeFrame(bad); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("decodeFrame(%x) err = %v, want ErrBadFrame", bad, err)
		}
		if _, _, err := PeekFrameTenant(bad); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("PeekFrameTenant(%x) err = %v, want ErrBadFrame", bad, err)
		}
	}
}

// FuzzDecodeFrame: no input panics; PeekFrameTenant accepts exactly what
// decodeFrame accepts, with the same tenant and shed flag; CheckFrame
// accepts exactly the accepted frames without the shed flag; and every
// accepted frame re-encodes byte for byte.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(append(frameHeader("feeder-07", frameMeta{tenant: "acme", id: 7}, 0, 0), "sealed"...))
	f.Add(frameHeader("k", frameMeta{}, frameFlagShed, 0))
	f.Add([]byte{0x00, 0x01, 'k', 's'})
	f.Add([]byte{0xFF, 0xFF, 0x00})
	f.Fuzz(func(t *testing.T, b []byte) {
		q, shed, err := decodeFrame(b)
		tenant, pshed, perr := PeekFrameTenant(b)
		cerr := CheckFrame(b)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) || !errors.Is(perr, ErrBadFrame) || !errors.Is(cerr, ErrBadFrame) {
				t.Fatalf("rejected frame: decode %v, peek %v, check %v", err, perr, cerr)
			}
			return
		}
		if perr != nil || tenant != q.meta.tenant || pshed != shed {
			t.Fatalf("peek = %q %v %v, decode = %q %v", tenant, pshed, perr, q.meta.tenant, shed)
		}
		if (cerr == nil) == shed {
			t.Fatalf("CheckFrame = %v with shed=%v", cerr, shed)
		}
		if re := append(frameHeader(q.key, q.meta, b[2], 0), q.sealed...); !bytes.Equal(re, b) {
			t.Fatalf("re-encode = %x, want %x", re, b)
		}
	})
}

// fakeTransport hands Poll a fixed frame sequence and records sends.
type fakeTransport struct {
	sent, recv [][]byte
}

func (f *fakeTransport) SendFrames(frames [][]byte) error {
	f.sent = append(f.sent, frames...)
	return nil
}

func (f *fakeTransport) RecvFrames() ([][]byte, error) {
	out := f.recv
	f.recv = nil
	return out, nil
}

func (f *fakeTransport) Close() {}

// TestPollSkipsBadFrames: a forged or malformed reply frame among valid
// ones costs only itself. Poll returns every authentic reply, reports the
// skipped count through ErrSealedRequest, and leaves the forged frame's
// request in flight.
func TestPollSkipsBadFrames(t *testing.T) {
	const name = "plane/poll"
	var key cryptbox.Key
	key[0] = 0x71
	tr := &fakeTransport{}
	client, err := NewPlaneClientTransport(name, key, tr)
	if err != nil {
		t.Fatal(err)
	}
	client.EnableRetry(RetryPolicy{})
	ids, err := client.SendTenantIDs("t", []PlaneRequest{{Key: "a", Body: []byte("1")}, {Key: "b", Body: []byte("2")}, {Key: "c", Body: []byte("3")}})
	if err != nil {
		t.Fatal(err)
	}
	reply := func(k cryptbox.Key, id uint64, body string) []byte {
		box, err := cryptbox.NewBox(k)
		if err != nil {
			t.Fatal(err)
		}
		hdr := frameHeader("k", frameMeta{tenant: "t", id: id}, 0, 0)
		f, err := box.SealAppend(hdr, []byte(body), respAADFor(name))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	tr.recv = [][]byte{
		reply(key, ids[0], "one"),
		reply(cryptbox.Key{0xEE}, ids[1], "forged"),
		{0x00, 0x01, 'k'},
		reply(key, ids[2], "three"),
	}
	reps, err := client.Poll(0)
	if !errors.Is(err, ErrSealedRequest) || !strings.Contains(err.Error(), "2 reply frames skipped") {
		t.Fatalf("err = %v, want ErrSealedRequest counting 2 skipped", err)
	}
	if len(reps) != 2 || string(reps[0].Body) != "one" || string(reps[1].Body) != "three" {
		t.Fatalf("replies = %+v, want one and three", reps)
	}
	if _, _, inflight := client.RetryStats(); inflight != 1 {
		t.Fatalf("inflight = %d, want 1 (the forged reply's request)", inflight)
	}
	if reps, err := client.Poll(0); err != nil || len(reps) != 0 {
		t.Fatalf("empty poll = %+v, %v", reps, err)
	}
}

// TestContainerReplicaSetBootSequence: replicas launched through the
// container path run the full paper boot sequence — image pull + verify,
// enclave build, SCONE boot with SCF release, then service-key release —
// and serve exactly like direct-mode replicas.
func TestContainerReplicaSetBootSequence(t *testing.T) {
	reg := registry.New()
	svc := attest.NewService()
	cas := sconert.NewCAS(svc)
	bus := eventbus.New()
	kb := attest.NewKeyBroker(svc)

	_, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	img, err := image.NewBuilder("plane/worker", "1.0").
		AddLayer(map[string][]byte{container.EntrypointPath: []byte("PLANE-WORKER-BINARY")}).
		SetEntrypoint(container.EntrypointPath).
		SetEnclaveSize(2 << 20).
		Build(priv)
	if err != nil {
		t.Fatal(err)
	}
	client := container.NewSCONEClient(priv, cas)
	secured, secrets, err := client.BuildSecure(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Deploy(secured, secrets, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := reg.Push(secured); err != nil {
		t.Fatal(err)
	}

	// The key broker's policy pins the image's expected measurement: only
	// enclaves built from exactly this image receive the service keys.
	m, err := container.ExpectedMeasurement(secured)
	if err != nil {
		t.Fatal(err)
	}
	var root cryptbox.Key
	root[0] = 0x7C
	keys, err := NewServiceKeys(root, "plane/worker", "w/req", "w/resp")
	if err != nil {
		t.Fatal(err)
	}
	kb.Register("plane/worker", attest.Policy{AllowedMREnclave: []cryptbox.Digest{m}}, keys)

	rs, err := NewContainerReplicaSet(bus, svc, kb, "plane/worker",
		func(req []byte) ([]byte, error) { return append([]byte("ack:"), req...), nil },
		ReplicaSetConfig{Replicas: 2, InTopic: "w/req", OutTopic: "w/resp"},
		ContainerSpec{Registry: reg, CAS: cas, Image: "plane/worker", Tag: "1.0"})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Stop()

	pc, err := NewPlaneClient(bus, "plane/worker", keys, "w/req", "w/resp")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if err := pc.Send("tenant-1", []byte("job")); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Step(); err != nil {
		t.Fatal(err)
	}
	replies, err := pc.Replies()
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 1 || string(replies[0].Body) != "ack:job" {
		t.Fatalf("replies = %+v", replies)
	}

	// Scale-out goes through the same container path.
	if _, err := rs.Launch(); err != nil {
		t.Fatal(err)
	}
	if rs.Replicas() != 3 {
		t.Fatalf("replicas = %d", rs.Replicas())
	}
}

// TestContainerReplicaSetSharesBlobCache: the replicas of one set pull
// through one node-local blob cache, so only the very first boot (the
// front-end's) fetches chunks; every subsequent replica — including
// scale-out — boots warm, fetching zero.
func TestContainerReplicaSetSharesBlobCache(t *testing.T) {
	reg := registry.New()
	svc := attest.NewService()
	cas := sconert.NewCAS(svc)
	bus := eventbus.New()
	kb := attest.NewKeyBroker(svc)

	_, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	img, err := image.NewBuilder("plane/cached", "1.0").
		AddLayer(map[string][]byte{container.EntrypointPath: []byte("CACHED-WORKER-BINARY")}).
		SetEntrypoint(container.EntrypointPath).
		SetEnclaveSize(2 << 20).
		Build(priv)
	if err != nil {
		t.Fatal(err)
	}
	client := container.NewSCONEClient(priv, cas)
	secured, secrets, err := client.BuildSecure(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Deploy(secured, secrets, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := reg.Push(secured); err != nil {
		t.Fatal(err)
	}
	m, err := container.ExpectedMeasurement(secured)
	if err != nil {
		t.Fatal(err)
	}
	var root cryptbox.Key
	root[0] = 0x7D
	keys, err := NewServiceKeys(root, "plane/cached", "c/req", "c/resp")
	if err != nil {
		t.Fatal(err)
	}
	kb.Register("plane/cached", attest.Policy{AllowedMREnclave: []cryptbox.Digest{m}}, keys)

	cache := container.NewBlobCache()
	rs, err := NewContainerReplicaSet(bus, svc, kb, "plane/cached",
		func(req []byte) ([]byte, error) { return req, nil },
		ReplicaSetConfig{Replicas: 2, InTopic: "c/req", OutTopic: "c/resp"},
		ContainerSpec{Registry: reg, CAS: cas, Image: "plane/cached", Tag: "1.0", Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Stop()

	st := cache.Stats()
	if st.Stores == 0 {
		t.Fatal("first boot stored no chunks")
	}
	if st.Misses != st.Stores {
		t.Fatalf("misses %d != stores %d: some boot refetched", st.Misses, st.Stores)
	}
	// Front-end + 2 replicas = 3 boots; all chunks after the first boot hit.
	if st.Hits != 2*st.Stores {
		t.Fatalf("hits = %d, want %d (two warm boots)", st.Hits, 2*st.Stores)
	}
	// Scale-out boots warm too: no new stores, only hits.
	if _, err := rs.Launch(); err != nil {
		t.Fatal(err)
	}
	st2 := cache.Stats()
	if st2.Stores != st.Stores || st2.Misses != st.Misses {
		t.Fatalf("scale-out refetched: before %+v after %+v", st, st2)
	}
	if st2.Hits != 3*st.Stores {
		t.Fatalf("scale-out hits = %d, want %d", st2.Hits, 3*st.Stores)
	}
}

// TestOrchestratedReplicaSetClosedLoop drives a real ReplicaSet through
// the orchestrator: a burst overloads the budgeted replicas, the
// orchestrator scales out, the burst drains, and it scales back in.
func TestOrchestratedReplicaSetClosedLoop(t *testing.T) {
	bus, svc, kb, keys := planeFixture(t, "plane/loop", "l/req", "l/resp")
	rs, err := NewReplicaSet(bus, svc, kb, "plane/loop",
		func(req []byte) ([]byte, error) { return nil, nil },
		ReplicaSetConfig{Replicas: 1, InTopic: "l/req", OutTopic: "l/resp",
			RequestCycles: 100_000, TickBudget: 1_000_000}) // ~9 req/tick/replica
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Stop()
	o, err := orchestrator.New(orchestrator.Target{
		MaxQueueDepth: 8, MinReplicas: 1, MaxReplicas: 6, ScaleInBelow: 2,
	}, rs, rs.ReplicaHandles()...)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewPlaneClient(bus, "plane/loop", keys, "l/req", "l/resp")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	maxReplicas := 1
	for tick := 0; tick < 40; tick++ {
		if tick < 8 { // burst: 40 req/tick vs ~9/replica capacity
			var batch []PlaneRequest
			for i := 0; i < 40; i++ {
				batch = append(batch, PlaneRequest{Key: fmt.Sprintf("k%d", i%16), Body: []byte("r")})
			}
			if _, err := client.SendTenantIDs("", batch); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := rs.Step(); err != nil {
			t.Fatal(err)
		}
		if _, err := o.Observe(); err != nil {
			t.Fatal(err)
		}
		if n := o.Replicas(); n > maxReplicas {
			maxReplicas = n
		}
	}
	if maxReplicas < 2 {
		t.Fatal("burst never triggered scale-out")
	}
	if got := o.Replicas(); got != 1 {
		t.Fatalf("did not scale back in: %d replicas", got)
	}
	if rs.Backlog() != 0 {
		t.Fatalf("backlog = %d after drain", rs.Backlog())
	}
	if tot := rs.Totals(); tot.Served != 8*40 {
		t.Fatalf("served = %d, want %d", tot.Served, 8*40)
	}
}

// TestRetireUnderAdmissionNoLossNoDoubleServe drives the two recovery
// paths against each other: work a retired replica requeues re-enters
// Step ahead of admission (no second token charge, no second shed
// decision), while fresh arrivals keep flowing through the controller.
// Every request is either shed exactly once at arrival or served exactly
// once — nothing lost, nothing duplicated.
func TestRetireUnderAdmissionNoLossNoDoubleServe(t *testing.T) {
	bus, svc, kb, keys := planeFixture(t, "plane/armq", "aq/req", "aq/resp")
	rs, err := NewReplicaSet(bus, svc, kb, "plane/armq",
		func(req []byte) ([]byte, error) { return req, nil },
		ReplicaSetConfig{Replicas: 2, InTopic: "aq/req", OutTopic: "aq/resp",
			// One request per replica per tick, so retire catches pending work.
			TickBudget: 1,
			Admission: &AdmissionConfig{
				Default:         TenantPolicy{Weight: 4, MaxQueue: 8},
				DispatchPerStep: 4,
				TickMillis:      1,
			}})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Stop()
	client, err := NewPlaneClient(bus, "plane/armq", keys, "aq/req", "aq/resp")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var batch []PlaneRequest
	for i := 0; i < 12; i++ {
		batch = append(batch, PlaneRequest{Key: fmt.Sprintf("rq-%02d", i), Body: []byte{byte(i)}})
	}
	if _, err := client.SendTenantIDs("t", batch); err != nil {
		t.Fatal(err)
	}
	// Step 1: the tenant queue (MaxQueue 8) admits 8 and sheds 4 at
	// arrival; 4 dispatch, and the tick budget leaves some pending.
	st, err := rs.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.Shed != 4 {
		t.Fatalf("shed at arrival = %d, want 4", st.Shed)
	}
	// Retire one replica mid-backlog: its pending work requeues.
	if err := rs.Retire(rs.ReplicaHandles()[0].ID()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20 && rs.Backlog() > 0; i++ {
		if _, err := rs.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := rs.Backlog(); got != 0 {
		t.Fatalf("backlog = %d after drain", got)
	}

	replies, err := client.Replies()
	if err != nil {
		t.Fatal(err)
	}
	perKey := make(map[string]int)
	served, shed := 0, 0
	for _, r := range replies {
		perKey[r.Key]++
		if r.Shed {
			shed++
			if r.RetryAfterSimMS <= 0 {
				t.Fatalf("shed reply for %s has no retry-after", r.Key)
			}
		} else {
			served++
		}
	}
	if served != 8 || shed != 4 {
		t.Fatalf("served = %d, shed = %d; want 8 served, 4 shed", served, shed)
	}
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("rq-%02d", i)
		if perKey[key] != 1 {
			t.Fatalf("key %s got %d replies, want exactly 1", key, perKey[key])
		}
	}
	if tot := rs.Totals(); tot.Served != 8 || tot.Shed != 4 {
		t.Fatalf("totals = %+v, want Served 8 Shed 4", tot)
	}
	adm := rs.AdmissionStats()
	ts, ok := adm.ByTenant["t"]
	if !ok || ts.Admitted != 8 || ts.Dispatched != 8 || ts.Shed != 4 {
		t.Fatalf("tenant stats = %+v, want Admitted 8 Dispatched 8 Shed 4", ts)
	}
}

// upperPlane is a one-replica set that upper-cases requests, a client, and
// raw endpoints on both topics: a publisher on the request topic injects
// hand-built frames (what any holder of the topic key, or a replaying bus,
// can send) and a subscriber captures the reply frames the set publishes.
type upperPlane struct {
	rs     *ReplicaSet
	client *PlaneClient
	keys   attest.ServiceKeys
	rawIn  *eventbus.Publisher
	rawOut *eventbus.Subscriber
}

func newUpperPlane(t *testing.T, handler Handler) *upperPlane {
	t.Helper()
	const name = "plane/upper"
	bus, svc, kb, keys := planeFixture(t, name, "u/req", "u/resp")
	if handler == nil {
		handler = func(req []byte) ([]byte, error) { return bytes.ToUpper(req), nil }
	}
	rs, err := NewReplicaSet(bus, svc, kb, name, handler,
		ReplicaSetConfig{Replicas: 1, InTopic: "u/req", OutTopic: "u/resp"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rs.Stop)
	client, err := NewPlaneClient(bus, name, keys, "u/req", "u/resp")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	rawIn, err := eventbus.OpenPublisher(eventbus.EndpointConfig{Bus: bus, Topic: "u/req", Key: keys.Topics["u/req"]})
	if err != nil {
		t.Fatal(err)
	}
	rawOut, err := eventbus.OpenSubscriber(eventbus.EndpointConfig{Bus: bus, Topic: "u/resp", Key: keys.Topics["u/resp"]})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rawOut.Close)
	return &upperPlane{rs: rs, client: client, keys: keys, rawIn: rawIn, rawOut: rawOut}
}

// requestFrame seals body for service under key, as a client would.
func requestFrame(t *testing.T, key cryptbox.Key, service string, body []byte) []byte {
	t.Helper()
	box, err := cryptbox.NewBox(key)
	if err != nil {
		t.Fatal(err)
	}
	f, err := box.SealAppend(frameHeader("k", frameMeta{}, 0, 0), body, reqAADFor(service))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// expectRejected steps the set and requires every polled frame to count
// as Failed, with nothing served and no reply published.
func (p *upperPlane) expectRejected(t *testing.T, frames int) {
	t.Helper()
	st, err := p.rs.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.Polled != frames || st.Failed != frames || st.Served != 0 || st.Replies != 0 {
		t.Fatalf("step = %+v, want %d failed and nothing served", st, frames)
	}
	if msgs, err := p.rawOut.Receive(); err != nil || len(msgs) != 0 {
		t.Fatalf("rejected request answered: %d replies, err %v", len(msgs), err)
	}
}

// TestCallRoundTrip: one sealed request through the client comes back
// opened and transformed, counted once as served.
func TestCallRoundTrip(t *testing.T) {
	p := newUpperPlane(t, nil)
	if err := p.client.Send("meter-1", []byte("hello grid")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.rs.Step(); err != nil {
		t.Fatal(err)
	}
	replies, err := p.client.Replies()
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 1 || string(replies[0].Body) != "HELLO GRID" {
		t.Fatalf("replies = %+v", replies)
	}
	if tot := p.rs.Totals(); tot.Served != 1 || tot.Failed != 0 {
		t.Fatalf("totals = %+v", tot)
	}
}

// TestInvokeRejectsForgedRequest: a request frame with one flipped bit, or
// one sealed under a foreign key, fails closed inside the replica — it
// counts as Failed and gets no reply.
func TestInvokeRejectsForgedRequest(t *testing.T) {
	p := newUpperPlane(t, nil)
	flipped := requestFrame(t, p.keys.Request, "plane/upper", []byte("reading"))
	flipped[len(flipped)-5] ^= 0x10
	forged := requestFrame(t, cryptbox.Key{0xEE}, "plane/upper", []byte("reading"))
	for _, f := range [][]byte{flipped, forged} {
		if _, err := p.rawIn.Publish(f); err != nil {
			t.Fatal(err)
		}
	}
	p.expectRejected(t, 2)
	if st := p.rs.ReplicaHandles()[0].(*Replica).Stats(); st.Failed != 2 || st.Served != 0 {
		t.Fatalf("replica stats = %+v", st)
	}
}

// TestResponseCannotBeReplayedAsRequest: a sealed reply frame re-published
// on the request topic is rejected — the reply is sealed under
// "resp|<name>", the replica opens requests under "req|<name>".
func TestResponseCannotBeReplayedAsRequest(t *testing.T) {
	p := newUpperPlane(t, nil)
	if err := p.client.Send("k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if st, err := p.rs.Step(); err != nil || st.Replies != 1 {
		t.Fatalf("step = %+v, err %v", st, err)
	}
	replies, err := p.rawOut.Receive()
	if err != nil || len(replies) != 1 {
		t.Fatalf("captured %d replies, err %v", len(replies), err)
	}
	if _, err := p.rawIn.Publish(replies[0]); err != nil {
		t.Fatal(err)
	}
	p.expectRejected(t, 1)
}

// TestCrossServiceRequestRejected: a frame sealed for service A is rejected
// by a set serving service B, even when the two share a request key — the
// request AAD binds the service name.
func TestCrossServiceRequestRejected(t *testing.T) {
	p := newUpperPlane(t, nil) // service A: "plane/upper"
	const other = "plane/other"
	bus := eventbus.New()
	svc := attest.NewService()
	kb := attest.NewKeyBroker(svc)
	var root cryptbox.Key
	root[0] = 0x5E
	keysB, err := NewServiceKeys(root, other, "o/req", "o/resp")
	if err != nil {
		t.Fatal(err)
	}
	keysB.Request = p.keys.Request
	kb.Register(other, attest.Policy{AllowedMRSigner: []cryptbox.Digest{ReplicaSigner(other)}}, keysB)
	b, err := NewReplicaSet(bus, svc, kb, other,
		func(req []byte) ([]byte, error) { return req, nil },
		ReplicaSetConfig{Replicas: 1, InTopic: "o/req", OutTopic: "o/resp"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	pub, err := eventbus.OpenPublisher(eventbus.EndpointConfig{Bus: bus, Topic: "o/req", Key: keysB.Topics["o/req"]})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish(requestFrame(t, p.keys.Request, "plane/upper", []byte("x"))); err != nil {
		t.Fatal(err)
	}
	st, err := b.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.Polled != 1 || st.Failed != 1 || st.Served != 0 || st.Replies != 0 {
		t.Fatalf("request for service A served by service B: step = %+v", st)
	}
}

// TestHandlerErrorPropagates: a handler error reaches the set's counters
// as Failed, never as Served, and no reply leaves the enclave.
func TestHandlerErrorPropagates(t *testing.T) {
	p := newUpperPlane(t, func(req []byte) ([]byte, error) { return nil, errors.New("boom") })
	if err := p.client.Send("k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	p.expectRejected(t, 1)
	if tot := p.rs.Totals(); tot.Served != 0 || tot.Failed != 1 {
		t.Fatalf("totals = %+v", tot)
	}
}

// TestStoppedService: a stopped set fails closed — frames sent after Stop
// are never polled, opened or answered.
func TestStoppedService(t *testing.T) {
	p := newUpperPlane(t, nil)
	p.rs.Stop()
	if p.rs.Replicas() != 0 {
		t.Fatalf("%d replicas after Stop", p.rs.Replicas())
	}
	if err := p.client.Send("k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	st, err := p.rs.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.Polled != 0 || st.Served != 0 {
		t.Fatalf("stopped set stepped: %+v", st)
	}
	if replies, err := p.client.Replies(); err != nil || len(replies) != 0 {
		t.Fatalf("stopped set replied: %d replies, err %v", len(replies), err)
	}
}

func TestNilHandlerRejected(t *testing.T) {
	bus, svc, kb, _ := planeFixture(t, "plane/nil", "x/req", "x/resp")
	if _, err := NewReplicaSet(bus, svc, kb, "plane/nil", nil,
		ReplicaSetConfig{InTopic: "x/req", OutTopic: "x/resp"}); err == nil {
		t.Fatal("nil handler accepted")
	}
}

// TestInvokeChargesEnclaveEntry: serving a request enters the replica's
// enclave, so transition cycles are charged to its platform.
func TestInvokeChargesEnclaveEntry(t *testing.T) {
	p := newUpperPlane(t, nil)
	mem := p.rs.ReplicaHandles()[0].(*Replica).enc.Memory()
	before := mem.Breakdown()[enclave.CauseTransition]
	if err := p.client.Send("k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.rs.Step(); err != nil {
		t.Fatal(err)
	}
	if mem.Breakdown()[enclave.CauseTransition] <= before {
		t.Fatal("serving did not enter the enclave")
	}
}
