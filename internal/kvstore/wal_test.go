package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"securecloud/internal/cryptbox"
	"securecloud/internal/fsshield"
)

func walTestKey(t testing.TB) cryptbox.Key {
	t.Helper()
	k, err := cryptbox.KeyFromBytes(bytes.Repeat([]byte{0x5A}, cryptbox.KeySize))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// walTestBatches is a deterministic multi-record op stream with puts,
// overwrites and deletes.
func walTestBatches() [][]WALOp {
	return [][]WALOp{
		{{Key: "a", Value: []byte("one")}, {Key: "b", Value: []byte("two")}},
		{{Key: "a", Value: []byte("one-again")}, {Key: "c", Value: bytes.Repeat([]byte{7}, 300)}},
		{{Key: "b", Delete: true}, {Key: "d", Value: nil}},
	}
}

func buildWAL(t testing.TB, key cryptbox.Key, name string, epoch uint64, batches [][]WALOp) *WAL {
	t.Helper()
	w := NewWAL(key, name, epoch)
	for _, b := range batches {
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// liveTail returns the live tail epoch's bytes: the last element of the
// durable medium Segments reports.
func liveTail(w *WAL) []byte {
	segs := w.Segments()
	return segs[len(segs)-1].Bytes
}

// recordBoundaries walks the frame lengths of a well-formed log.
func recordBoundaries(t testing.TB, buf []byte) []int {
	t.Helper()
	bounds := []int{0}
	off := 0
	for off < len(buf) {
		if len(buf[off:]) < 4 {
			t.Fatalf("trailing %d bytes", len(buf[off:]))
		}
		off += 4 + int(binary.BigEndian.Uint32(buf[off:]))
		bounds = append(bounds, off)
	}
	return bounds
}

func opsEqual(a, b []WALOp) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Delete != b[i].Delete || !bytes.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

func TestWALRoundtrip(t *testing.T) {
	key := walTestKey(t)
	batches := walTestBatches()
	w := buildWAL(t, key, "wal/test", 3, batches)
	buf := liveTail(w)
	got, prefix, err := DecodeWAL(key, "wal/test", 3, buf)
	if err != nil {
		t.Fatal(err)
	}
	if prefix != len(buf) {
		t.Fatalf("prefix %d, want full %d", prefix, len(buf))
	}
	if len(got) != len(batches) {
		t.Fatalf("decoded %d batches, want %d", len(got), len(batches))
	}
	for i := range batches {
		if !opsEqual(got[i], batches[i]) {
			t.Fatalf("batch %d mismatch: %v != %v", i, got[i], batches[i])
		}
	}
}

// TestWALDeterministic pins the dedup property: identical op streams at
// identical positions produce bit-identical log bytes.
func TestWALDeterministic(t *testing.T) {
	key := walTestKey(t)
	a := buildWAL(t, key, "wal/twin", 1, walTestBatches())
	b := buildWAL(t, key, "wal/twin", 1, walTestBatches())
	if !bytes.Equal(liveTail(a), liveTail(b)) {
		t.Fatal("identical appends produced different log bytes")
	}
}

// TestWALTornTail covers the clean-crash-point half of the discipline:
// damage confined to the final record truncates and continues.
func TestWALTornTail(t *testing.T) {
	key := walTestKey(t)
	batches := walTestBatches()
	w := buildWAL(t, key, "wal/torn", 1, batches)
	full := liveTail(w)
	bounds := recordBoundaries(t, full)
	lastStart := bounds[len(bounds)-2]

	cases := []struct {
		name string
		buf  []byte
		want int // surviving batches
	}{
		{"empty log", nil, 0},
		{"cut inside final length prefix", full[:lastStart+2], 2},
		{"cut mid final record", full[:lastStart+(len(full)-lastStart)/2], 2},
		{"final record missing one byte", full[:len(full)-1], 2},
		{"mac flip in final record", flip(full, len(full)-1), 2},
		{"body flip in final record", flip(full, lastStart+8), 2},
		{"only a partial first record", full[:bounds[1]/2], 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, prefix, err := DecodeWAL(key, "wal/torn", 1, tc.buf)
			if err != nil {
				t.Fatalf("torn tail must not be an error, got %v", err)
			}
			if len(got) != tc.want {
				t.Fatalf("survived %d batches, want %d", len(got), tc.want)
			}
			if prefix != bounds[tc.want] {
				t.Fatalf("prefix %d, want boundary %d", prefix, bounds[tc.want])
			}
		})
	}
}

// TestWALMidLogCorruption covers the hard-error half: the same damage
// before the final record cannot be a crash and must fail loudly.
func TestWALMidLogCorruption(t *testing.T) {
	key := walTestKey(t)
	w := buildWAL(t, key, "wal/mid", 1, walTestBatches())
	full := liveTail(w)
	bounds := recordBoundaries(t, full)

	cases := []struct {
		name string
		buf  []byte
	}{
		{"mac flip in first record", flip(full, bounds[1]-1)},
		{"body flip in first record", flip(full, 8)},
		{"mac flip in middle record", flip(full, bounds[2]-1)},
		{"length corruption mid-log", flip(full, bounds[1]+1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := DecodeWAL(key, "wal/mid", 1, tc.buf)
			switch {
			case err == nil:
				// Length corruption can swallow the rest of the log into one
				// declared extent, which is indistinguishable from a torn
				// tail; everything else must be a hard error.
				if tc.name != "length corruption mid-log" {
					t.Fatal("mid-log corruption decoded cleanly")
				}
			case !errors.Is(err, ErrWALCorrupt):
				t.Fatalf("want ErrWALCorrupt, got %v", err)
			}
		})
	}
}

// TestWALPositionBinding: a record authenticated at one (name, epoch, seq)
// must not verify at any other position — the chunkAAD cut-and-paste guard.
func TestWALPositionBinding(t *testing.T) {
	key := walTestKey(t)
	one := [][]WALOp{{{Key: "x", Value: []byte("y")}}}
	w := buildWAL(t, key, "wal/pos", 1, one)
	buf := liveTail(w)
	if _, _, err := DecodeWALRecord(key, "wal/pos", 1, 0, buf); err != nil {
		t.Fatal(err)
	}
	for name, decode := range map[string]func() error{
		"wrong seq":   func() error { _, _, err := DecodeWALRecord(key, "wal/pos", 1, 7, buf); return err },
		"wrong epoch": func() error { _, _, err := DecodeWALRecord(key, "wal/pos", 2, 0, buf); return err },
		"wrong name":  func() error { _, _, err := DecodeWALRecord(key, "wal/other", 1, 0, buf); return err },
	} {
		if err := decode(); !errors.Is(err, ErrWALTorn) {
			// Sole record == final record, so misplacement reads as torn.
			t.Fatalf("%s: want position rejection, got %v", name, err)
		}
	}
}

// TestWALAuthenticatedGarbage: a record whose MAC verifies but whose
// authenticated payload does not decode is a hard error even at the tail —
// a crash cannot produce validly MAC'd garbage.
func TestWALAuthenticatedGarbage(t *testing.T) {
	key := walTestKey(t)
	name, epoch, seq := "wal/forged", uint64(1), uint64(0)
	aad := fsshield.ChunkAAD(name, epoch, int(seq), 0)
	// A structurally broken body (wrapped-key length overruns), MAC'd
	// correctly under the log key.
	body := make([]byte, 12)
	binary.BigEndian.PutUint32(body, 1<<30)
	tag := fsshield.MACChunk(key, body, aad)
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)+cryptbox.MACSize))
	frame = append(frame, body...)
	frame = append(frame, tag[:]...)
	if _, _, err := DecodeWALRecord(key, name, epoch, seq, frame); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("authenticated garbage must be ErrWALCorrupt, got %v", err)
	}
	if _, _, err := DecodeWAL(key, name, epoch, frame); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("DecodeWAL must surface it too, got %v", err)
	}
}

// TestWALOpsCodecGuards exercises the forged-count and bounds guards of the
// op codec directly.
func TestWALOpsCodecGuards(t *testing.T) {
	huge := binary.BigEndian.AppendUint32(nil, 1<<31)
	if _, err := decodeWALOps(huge); err == nil {
		t.Fatal("forged count accepted")
	}
	if _, err := decodeWALOps([]byte{0, 0}); err == nil {
		t.Fatal("short buffer accepted")
	}
	valid, err := encodeWALOps([]WALOp{{Key: "k", Value: []byte("v")}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeWALOps(append(valid, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, err := encodeWALOps([]WALOp{{Key: string(make([]byte, 1<<17))}}); err == nil {
		t.Fatal("oversized key accepted")
	}
}

// flip returns a copy of buf with one bit flipped at i.
func flip(buf []byte, i int) []byte {
	cp := append([]byte(nil), buf...)
	cp[i] ^= 1
	return cp
}

// FuzzDecodeWALRecord mirrors the transfer/scbr forged-input guards: no
// input may panic or over-allocate, and every well-formed record the fuzzer
// mutates must either decode to the original ops or fail with a typed
// error.
func FuzzDecodeWALRecord(f *testing.F) {
	key, _ := cryptbox.KeyFromBytes(bytes.Repeat([]byte{0x5A}, cryptbox.KeySize))
	w := NewWAL(key, "wal/fuzz", 1)
	if err := w.Append([]WALOp{{Key: "a", Value: []byte("one")}, {Key: "b", Delete: true}}); err != nil {
		f.Fatal(err)
	}
	valid := liveTail(w)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(flip(valid, len(valid)-1))
	f.Add(flip(valid, 8))
	f.Add([]byte{})
	f.Add(binary.BigEndian.AppendUint32(nil, 1<<31))
	huge := binary.BigEndian.AppendUint32(nil, 16)
	f.Add(append(huge, make([]byte, 16)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		ops, n, err := DecodeWALRecord(key, "wal/fuzz", 1, 0, data)
		if err != nil {
			if !errors.Is(err, ErrWALTorn) && !errors.Is(err, ErrWALCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("frame length %d out of range", n)
		}
		// A record the fuzzer failed to break must re-encode losslessly.
		payload, err := encodeWALOps(ops)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeWALOps(payload)
		if err != nil || !opsEqual(ops, back) {
			t.Fatalf("roundtrip mismatch: %v", err)
		}
	})
}

// TestWALEpochReset pins the snapshot epoch contract: Roll starts an empty
// live tail in the next epoch whose records bind to the new position.
func TestWALEpochReset(t *testing.T) {
	key := walTestKey(t)
	w := buildWAL(t, key, "wal/epoch", 1, walTestBatches())
	w.Roll(2)
	if w.Records() != 0 || len(liveTail(w)) != 0 || w.Epoch() != 2 {
		t.Fatalf("roll left records=%d bytes=%d epoch=%d", w.Records(), len(liveTail(w)), w.Epoch())
	}
	if err := w.Append([]WALOp{{Key: "e2", Value: []byte("v")}}); err != nil {
		t.Fatal(err)
	}
	// Under the wrong epoch the sole record fails its MAC; as the final
	// record that reads as a torn tail — zero batches survive.
	if b, prefix, err := DecodeWAL(key, "wal/epoch", 1, liveTail(w)); err != nil || len(b) != 0 || prefix != 0 {
		t.Fatalf("epoch-1 decode of epoch-2 log: %v, %d batches, prefix %d", err, len(b), prefix)
	}
	got, _, err := DecodeWAL(key, "wal/epoch", 2, liveTail(w))
	if err != nil || len(got) != 1 {
		t.Fatalf("epoch-2 decode: %v, %d batches", err, len(got))
	}
}

// FuzzDecodeWAL walks whole multi-record logs: no input may panic, the
// clean prefix must stay inside the buffer, damage must come back typed,
// and a log that decodes cleanly must decode to the same batches again
// when cut at its reported prefix.
func FuzzDecodeWAL(f *testing.F) {
	key, _ := cryptbox.KeyFromBytes(bytes.Repeat([]byte{0x5A}, cryptbox.KeySize))
	valid := liveTail(buildWAL(f, key, "wal/fuzz", 1, walTestBatches()))
	bounds := recordBoundaries(f, valid)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:bounds[1]])
	f.Add(flip(valid, bounds[1]+10)) // damage in the middle record
	f.Add(append(append([]byte(nil), valid...), valid[:bounds[1]]...))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		batches, prefix, err := DecodeWAL(key, "wal/fuzz", 1, data)
		if prefix < 0 || prefix > len(data) {
			t.Fatalf("prefix %d outside %d bytes", prefix, len(data))
		}
		if err != nil {
			if !errors.Is(err, ErrWALCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		again, p2, err := DecodeWAL(key, "wal/fuzz", 1, data[:prefix])
		if err != nil || p2 != prefix || len(again) != len(batches) {
			t.Fatalf("clean prefix %d re-decodes to %d batches, prefix %d, err %v", prefix, len(again), p2, err)
		}
		for i := range batches {
			if !opsEqual(batches[i], again[i]) {
				t.Fatalf("batch %d differs on re-decode", i)
			}
		}
	})
}
