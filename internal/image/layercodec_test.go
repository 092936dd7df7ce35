package image

import (
	"bytes"
	"testing"
	"testing/quick"

	"securecloud/internal/sim"
)

func TestLayerCodecRoundTrip(t *testing.T) {
	l := Layer{Files: map[string][]byte{
		"/bin/app":        []byte("BINARY\x00WITH\x00NULS"),
		"/etc/empty":      nil,
		"/etc/model.cfg":  []byte("sensitivity=0.97"),
		"/data/blob\x00x": bytes.Repeat([]byte{0, 1, 2}, 1000),
	}}
	got, err := DecodeLayer(l.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != l.Digest() {
		t.Fatal("round trip changed the layer digest")
	}
	if len(got.Files) != len(l.Files) {
		t.Fatalf("round trip has %d files, want %d", len(got.Files), len(l.Files))
	}
	for p, want := range l.Files {
		if !bytes.Equal(got.Files[p], want) {
			t.Fatalf("file %q mismatch", p)
		}
	}
}

func TestLayerEncodeDeterministic(t *testing.T) {
	l := Layer{Files: map[string][]byte{"/a": []byte("1"), "/b": []byte("2"), "/c": []byte("3")}}
	first := l.Encode()
	for i := 0; i < 20; i++ {
		if !bytes.Equal(l.Encode(), first) {
			t.Fatal("Encode not deterministic across calls")
		}
	}
}

func TestDecodeLayerRejectsMalformed(t *testing.T) {
	l := Layer{Files: map[string][]byte{"/bin/app": []byte("code")}}
	enc := l.Encode()
	for cut := 1; cut < len(enc); cut++ {
		if _, err := DecodeLayer(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
	// A forged huge length prefix must not allocate.
	if _, err := DecodeLayer([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}); err == nil {
		t.Fatal("absurd length prefix decoded")
	}
	// Duplicate paths cannot smuggle content past digest checks.
	dup := append(append([]byte(nil), enc...), enc...)
	if _, err := DecodeLayer(dup); err == nil {
		t.Fatal("duplicate path decoded")
	}
}

func TestPropLayerCodec(t *testing.T) {
	f := func(seed int64, nFiles uint8) bool {
		rng := sim.NewRand(seed)
		l := Layer{Files: make(map[string][]byte)}
		for i := 0; i < int(nFiles%16); i++ {
			name := make([]byte, 1+rng.Intn(20))
			rng.Read(name)
			data := make([]byte, rng.Intn(500))
			rng.Read(data)
			l.Files["/"+string(name)] = data
		}
		got, err := DecodeLayer(l.Encode())
		if err != nil {
			return false
		}
		return got.Digest() == l.Digest()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodeLayer: a layer's encoding crosses the untrusted registry, so no
// input may panic the decoder, and every layer it accepts re-encodes to a
// fixed point — decoding its Encode() yields the same bytes and the same
// Digest.
func FuzzDecodeLayer(f *testing.F) {
	two := Layer{Files: map[string][]byte{"/bin/app": []byte("code\x00x"), "/etc/cfg": nil}}
	f.Add(two.Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := DecodeLayer(data)
		if err != nil {
			return
		}
		enc := l.Encode()
		again, err := DecodeLayer(enc)
		if err != nil {
			t.Fatalf("re-decoding an accepted layer: %v", err)
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatal("Encode is not a fixed point of DecodeLayer")
		}
		if again.Digest() != l.Digest() {
			t.Fatal("re-decoding changed the layer digest")
		}
	})
}
