// The snapshot image: how a shard's table is cut into chunks, and the chunk
// index that lets a snapshot re-read only the key ranges that changed.
//
// A shard's packed image is its records in key order, each encoded as a put
// WAL op (flags, key, value) with no count prefix, so any record-aligned
// slice of the image decodes on its own. The image is cut into
// record-aligned, content-defined chunks: a chunk ends after a record whose
// key hashes to snapChunkMaskBits low zero bits, or before a record that
// would carry it past snapChunkMaxBytes. A boundary depends on the key it
// follows and not on its byte offset, so an insert moves no boundary but
// its own chunk's (LBFS-style content-defined chunking). Each chunk then
// covers one contiguous key range, [its first key, the next chunk's first
// key), and the first chunk also covers every key below its own first.
//
// The boundary hash is an HMAC under a key derived from the shard's
// snapshot key. The registry sees chunk sizes; with a public hash it could
// test guessed keys against where the boundaries fall.
//
// The chunk index is the enclave-side copy of the shard's last published
// manifest: per chunk its first key, leaf digest, convergent key, plaintext
// length and a dirty bit. PutBatch, Delete and WAL replay set the dirty bit
// of the chunk holding each key (a binary search), so the index stays
// O(chunks) whatever the client traffic. A snapshot merges adjacent dirty
// chunks into runs, reads only each run's key range from the table,
// re-chunks and seals that run, and copies every clean leaf from the index
// unchanged. The index always holds at least one chunk: an empty shard is
// one zero-length chunk, the transfer package's empty-payload form.
package kvstore

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"sort"

	"securecloud/internal/cryptbox"
	"securecloud/internal/transfer"
)

const (
	// snapChunkMaskBits sets the mean chunk length to 2^5 = 32 records.
	snapChunkMaskBits = 5
	// snapChunkMaxBytes caps a chunk's plaintext. A single record larger
	// than the cap forms a chunk of its own.
	snapChunkMaxBytes = 4096
)

// snapChunk is one chunk of a shard's published image, as the chunk index
// keeps it.
type snapChunk struct {
	first  string // first key; "" for the zero-length chunk of an empty shard
	leaf   cryptbox.Digest
	key    cryptbox.Key // convergent key
	length int          // plaintext bytes
	dirty  bool
}

// chunkIndex is a shard's chunks in key order.
type chunkIndex []snapChunk

// emptyIndex is the index of a shard with nothing published yet: one dirty
// chunk covering every key, so the first snapshot reads the whole shard.
func emptyIndex() chunkIndex { return chunkIndex{{dirty: true}} }

// find returns the index of the chunk whose key range holds key.
func (x chunkIndex) find(key string) int {
	i := sort.Search(len(x), func(i int) bool { return x[i].first > key }) - 1
	if i < 0 {
		return 0
	}
	return i
}

// markDirty sets the dirty bit of the chunk holding key.
func (x chunkIndex) markDirty(key string) { x[x.find(key)].dirty = true }

// markAll sets every chunk's dirty bit (the full-snapshot baseline).
func (x chunkIndex) markAll() {
	for i := range x {
		x[i].dirty = true
	}
}

// anyDirty reports whether the shard changed since its last packed snapshot.
func (x chunkIndex) anyDirty() bool {
	for _, c := range x {
		if c.dirty {
			return true
		}
	}
	return false
}

// manifest builds the blob-set manifest listing the index's chunks.
func (x chunkIndex) manifest(name string) *transfer.Manifest {
	m := &transfer.Manifest{Name: name, ChunkSize: snapChunkMaxBytes}
	for _, c := range x {
		m.Size += int64(c.length)
		m.ChunkSize = max(m.ChunkSize, c.length)
		m.Leaves = append(m.Leaves, c.leaf)
		m.Keys = append(m.Keys, c.key)
		m.Lengths = append(m.Lengths, c.length)
	}
	m.Root = transfer.MerkleRoot(m.Leaves)
	return m
}

// chunker cuts a run of records into content-defined chunks.
type chunker struct {
	mac hash.Hash
	sum []byte
}

func newChunker(snapKey cryptbox.Key) (*chunker, error) {
	k, err := cryptbox.DeriveKey(snapKey, "kv-snap-chunk-boundary")
	if err != nil {
		return nil, err
	}
	return &chunker{mac: hmac.New(sha256.New, k[:])}, nil
}

// boundary reports whether a chunk ends after the record keyed key.
func (c *chunker) boundary(key string) bool {
	c.mac.Reset()
	c.mac.Write([]byte(key))
	c.sum = c.mac.Sum(c.sum[:0])
	return binary.BigEndian.Uint64(c.sum)&(1<<snapChunkMaskBits-1) == 0
}

// cut encodes pairs (in key order) and splits them into chunk plaintexts,
// returning each chunk's bytes and first key.
func (c *chunker) cut(pairs []Pair) (chunks [][]byte, firsts []string, err error) {
	var cur []byte
	for _, p := range pairs {
		recLen := walOpMinBytes + len(p.Key) + 4 + len(p.Value)
		if len(cur) > 0 && len(cur)+recLen > snapChunkMaxBytes {
			chunks = append(chunks, cur)
			cur = nil
		}
		if len(cur) == 0 {
			firsts = append(firsts, p.Key)
		}
		if cur, err = appendWALOp(cur, WALOp{Key: p.Key, Value: p.Value}); err != nil {
			return nil, nil, err
		}
		if c.boundary(p.Key) {
			chunks = append(chunks, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		chunks = append(chunks, cur)
	}
	return chunks, firsts, nil
}

// decodeSnapshotChunk decodes one chunk of a snapshot image: put records in
// strictly ascending key order, filling the chunk exactly. The bytes come
// from the registry behind a verified manifest, but the decoder checks
// every length itself all the same.
func decodeSnapshotChunk(buf []byte) ([]WALOp, error) {
	var ops []WALOp
	for len(buf) > 0 {
		op, n, err := decodeWALOp(buf, len(ops))
		if err != nil {
			return nil, fmt.Errorf("kvstore: snapshot chunk: %w", err)
		}
		if op.Delete {
			return nil, fmt.Errorf("kvstore: snapshot chunk record %d is a delete", len(ops))
		}
		if len(ops) > 0 && op.Key <= ops[len(ops)-1].Key {
			return nil, fmt.Errorf("kvstore: snapshot chunk record %d out of key order", len(ops))
		}
		ops = append(ops, op)
		buf = buf[n:]
	}
	return ops, nil
}

// decodeSnapshotImage splits a pulled image along its manifest's lengths,
// decodes every chunk on its own and rebuilds the chunk index (all chunks
// clean). Keys must ascend across chunks too, and only an empty shard's
// sole chunk may be empty.
func decodeSnapshotImage(m *transfer.Manifest, payload []byte) (chunkIndex, []WALOp, error) {
	if !m.Convergent() || int64(len(payload)) != m.Size {
		return nil, nil, fmt.Errorf("kvstore: snapshot image is %d bytes, manifest says %d (convergent %v)",
			len(payload), m.Size, m.Convergent())
	}
	idx := make(chunkIndex, 0, len(m.Leaves))
	var all []WALOp
	for j, n := range m.Lengths {
		if n < 0 || n > len(payload) {
			return nil, nil, fmt.Errorf("kvstore: snapshot chunk %d length %d overruns the image", j, n)
		}
		ops, err := decodeSnapshotChunk(payload[:n])
		if err != nil {
			return nil, nil, fmt.Errorf("chunk %d: %w", j, err)
		}
		payload = payload[n:]
		c := snapChunk{leaf: m.Leaves[j], key: m.Keys[j], length: n}
		if len(ops) > 0 {
			c.first = ops[0].Key
			if len(all) > 0 && c.first <= all[len(all)-1].Key {
				return nil, nil, fmt.Errorf("kvstore: snapshot chunk %d out of key order", j)
			}
		} else if len(m.Lengths) > 1 {
			return nil, nil, fmt.Errorf("kvstore: snapshot chunk %d is empty", j)
		}
		idx = append(idx, c)
		all = append(all, ops...)
	}
	return idx, all, nil
}
