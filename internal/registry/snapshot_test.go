package registry

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"testing"

	"securecloud/internal/transfer"
)

func packSnapshot(t *testing.T, name string, payload []byte) (*transfer.Manifest, [][]byte) {
	t.Helper()
	m, chunks, err := transfer.PackConvergent(name, payload, 64)
	if err != nil {
		t.Fatal(err)
	}
	return m, chunks
}

func TestPutBlobSetDedup(t *testing.T) {
	r := New()
	payload := bytes.Repeat([]byte("shard-table."), 40)
	m, chunks := packSnapshot(t, "snap/a", payload)
	stored, err := r.PutBlobSet(m, chunks)
	if err != nil {
		t.Fatal(err)
	}
	// The repeating payload chunks convergently to repeating sealed bytes, so
	// duplicates dedup even within the first set: stored = unique leaves.
	unique := map[string]bool{}
	for _, d := range m.Leaves {
		unique[d.String()] = true
	}
	if stored != len(unique) {
		t.Fatalf("first publish stored %d, want %d unique of %d chunks", stored, len(unique), len(chunks))
	}
	before := r.Stats()
	// Re-publishing the identical blob set stores nothing new: every chunk
	// is a dedup hit against the convergent-sealed blobs already present.
	stored, err = r.PutBlobSet(m, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if stored != 0 {
		t.Fatalf("identical republish stored %d chunks", stored)
	}
	after := r.Stats()
	if after.Blobs != before.Blobs {
		t.Fatalf("blob count grew %d -> %d on identical blob set", before.Blobs, after.Blobs)
	}
	if got := after.DedupHits - before.DedupHits; got != uint64(len(chunks)) {
		t.Fatalf("dedup hits %d, want %d", got, len(chunks))
	}
}

func TestPutBlobSetRejectsMismatch(t *testing.T) {
	r := New()
	m, chunks := packSnapshot(t, "snap/a", bytes.Repeat([]byte("x"), 300))
	if _, err := r.PutBlobSet(m, chunks[:len(chunks)-1]); err == nil {
		t.Fatal("accepted short chunk list")
	}
	tampered := make([][]byte, len(chunks))
	copy(tampered, chunks)
	tampered[0] = append([]byte(nil), chunks[0]...)
	tampered[0][0] ^= 0xFF
	if _, err := r.PutBlobSet(m, tampered); err == nil {
		t.Fatal("accepted chunk that does not match its manifest digest")
	}
}

// TestPutBlobSetReusesStoredLeaves: a nil chunk references a leaf the
// registry already holds; a nil chunk for an absent leaf fails the whole
// set closed, storing nothing.
func TestPutBlobSetReusesStoredLeaves(t *testing.T) {
	r := New()
	m, chunks := packSnapshot(t, "snap/a", []byte("0123456789abcdef-first-set-of-chunks-in-the-registry-for-reuse"))
	if _, err := r.PutBlobSet(m, chunks); err != nil {
		t.Fatal(err)
	}
	reused := make([][]byte, len(chunks))
	stored, err := r.PutBlobSet(m, reused)
	if err != nil || stored != 0 {
		t.Fatalf("all-reused set: stored %d, err %v", stored, err)
	}
	other, otherChunks := packSnapshot(t, "snap/b", bytes.Repeat([]byte("new content "), 20))
	before := r.Stats().Blobs
	partial := append([][]byte(nil), otherChunks...)
	partial[len(partial)-1] = nil
	if _, err := r.PutBlobSet(other, partial); !errors.Is(err, ErrNotFound) {
		t.Fatalf("nil chunk for an absent leaf: %v", err)
	}
	if got := r.Stats().Blobs; got != before {
		t.Fatalf("failed set stored %d blobs", got-before)
	}
}

func TestPublishSnapshotRollbackRejected(t *testing.T) {
	r := New()
	if err := r.PublishSnapshot("svc/shard-0", 3, []byte("sealed-3")); err != nil {
		t.Fatal(err)
	}
	// Replaying an old (or equal) sequence is a rollback attempt and must
	// not displace the newer manifest.
	for _, seq := range []uint64{3, 2} {
		if err := r.PublishSnapshot("svc/shard-0", seq, []byte("stale")); !errors.Is(err, ErrConflict) {
			t.Fatalf("seq %d: got %v, want ErrConflict", seq, err)
		}
	}
	seq, sealed, ok := r.LatestSnapshot("svc/shard-0")
	if !ok || seq != 3 || !bytes.Equal(sealed, []byte("sealed-3")) {
		t.Fatalf("latest = %d %q %v", seq, sealed, ok)
	}
	if err := r.PublishSnapshot("svc/shard-0", 4, []byte("sealed-4")); err != nil {
		t.Fatal(err)
	}
	if seq, _, _ := r.LatestSnapshot("svc/shard-0"); seq != 4 {
		t.Fatalf("latest seq = %d after advance", seq)
	}
}

func TestLatestSnapshotMissing(t *testing.T) {
	if _, _, ok := New().LatestSnapshot("nope/shard-0"); ok {
		t.Fatal("found a snapshot in an empty registry")
	}
}

func TestSnapshotAtServesHistory(t *testing.T) {
	r := New()
	for seq := uint64(1); seq <= 3; seq++ {
		if err := r.PublishSnapshot("svc/shard-0", seq, []byte{byte(seq)}); err != nil {
			t.Fatal(err)
		}
	}
	// Every published link stays retrievable — delta chains walk backwards.
	for seq := uint64(1); seq <= 3; seq++ {
		sealed, ok := r.SnapshotAt("svc/shard-0", seq)
		if !ok || !bytes.Equal(sealed, []byte{byte(seq)}) {
			t.Fatalf("seq %d: %q %v", seq, sealed, ok)
		}
	}
	if _, ok := r.SnapshotAt("svc/shard-0", 4); ok {
		t.Fatal("found a record that was never published")
	}
	if _, ok := r.SnapshotAt("svc/shard-9", 1); ok {
		t.Fatal("found a record under an unbound name")
	}
}

func TestHTTPSnapshotRoundTrip(t *testing.T) {
	r := New()
	if err := r.PublishSnapshot("svc/shard-1", 7, []byte("sealed-manifest")); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	c := NewClient(srv.URL)
	seq, sealed, ok := c.LatestSnapshot("svc/shard-1")
	if !ok || seq != 7 || !bytes.Equal(sealed, []byte("sealed-manifest")) {
		t.Fatalf("client latest = %d %q %v", seq, sealed, ok)
	}
	if _, _, ok := c.LatestSnapshot("svc/shard-2"); ok {
		t.Fatal("client found a snapshot that was never published")
	}
	if err := r.PublishSnapshot("svc/shard-1", 8, []byte("sealed-manifest-8")); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.SnapshotAt("svc/shard-1", 7); !ok || !bytes.Equal(got, []byte("sealed-manifest")) {
		t.Fatalf("client seq 7 = %q %v", got, ok)
	}
	if _, ok := c.SnapshotAt("svc/shard-1", 9); ok {
		t.Fatal("client found a historical record that was never published")
	}
}
