package scbr

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Envelope plaintext codec. Publications and subscriptions cross the
// broker boundary thousands of times per second in one binary form: a
// flat length-prefixed layout that encodes in one append pass and decodes
// without reflection. It is the only plaintext the broker accepts (the
// Client seal methods produce it); anything else — a JSON document
// included — is refused before it reaches the index. Deliveries carry the
// publisher's plaintext verbatim.
//
// Layout (little-endian):
//
//	event:        magic kindEvent u32 nattrs { u16 len, attr, f64 value }* u32 plen payload
//	subscription: magic kindSub   u64 id u32 npreds { u16 len, attr, f64 lo, f64 hi }*
//
// Event attributes are encoded in sorted attribute order, so equal events
// encode to equal bytes (deterministic fixtures and cacheable frames).
const (
	binMagic     = 0xB5
	binKindEvent = 0x01
	binKindSub   = 0x02
)

// errTruncated is returned for structurally short binary frames.
var errTruncated = fmt.Errorf("scbr: truncated binary frame")

// errOversize rejects fields that would wrap the frame's length prefixes —
// encoding them anyway would emit a silently corrupt frame.
var errOversize = fmt.Errorf("scbr: field exceeds binary frame limits")

// appendEventBinary appends the binary encoding of e to dst.
func appendEventBinary(dst []byte, e Event) ([]byte, error) {
	attrs := make([]string, 0, len(e.Attrs))
	for a := range e.Attrs {
		if len(a) > math.MaxUint16 {
			return nil, fmt.Errorf("%w: attribute name %d bytes", errOversize, len(a))
		}
		attrs = append(attrs, a)
	}
	if uint64(len(e.Payload)) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: payload %d bytes", errOversize, len(e.Payload))
	}
	sort.Strings(attrs)
	dst = append(dst, binMagic, binKindEvent)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(attrs)))
	for _, a := range attrs {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(a)))
		dst = append(dst, a...)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Attrs[a]))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.Payload)))
	return append(dst, e.Payload...), nil
}

// appendSubscriptionBinary appends the binary encoding of s to dst.
func appendSubscriptionBinary(dst []byte, s Subscription) ([]byte, error) {
	dst = append(dst, binMagic, binKindSub)
	dst = binary.LittleEndian.AppendUint64(dst, s.ID)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.Preds)))
	for i := range s.Preds {
		p := &s.Preds[i]
		if len(p.Attr) > math.MaxUint16 {
			return nil, fmt.Errorf("%w: attribute name %d bytes", errOversize, len(p.Attr))
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(p.Attr)))
		dst = append(dst, p.Attr...)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Interval.Lo))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Interval.Hi))
	}
	return dst, nil
}

// binString reads one u16-length-prefixed string.
func binString(raw []byte, off int) (string, int, error) {
	if off+2 > len(raw) {
		return "", 0, errTruncated
	}
	n := int(binary.LittleEndian.Uint16(raw[off:]))
	off += 2
	if off+n > len(raw) {
		return "", 0, errTruncated
	}
	return string(raw[off : off+n]), off + n, nil
}

// decodeEvent decodes an appendEventBinary frame.
func decodeEvent(raw []byte) (Event, error) {
	if len(raw) < 6 || raw[0] != binMagic || raw[1] != binKindEvent {
		return Event{}, fmt.Errorf("scbr: not a binary event frame")
	}
	n := int(binary.LittleEndian.Uint32(raw[2:]))
	off := 6
	// Pre-size from the claimed count, clamped by what the frame could
	// physically hold (≥10 bytes per attribute) so a forged count cannot
	// force a huge allocation.
	hint := n
	if max := (len(raw) - off) / 10; hint > max {
		hint = max
	}
	e := Event{Attrs: make(map[string]float64, hint)}
	for i := 0; i < n; i++ {
		attr, next, err := binString(raw, off)
		if err != nil {
			return Event{}, err
		}
		off = next
		if off+8 > len(raw) {
			return Event{}, errTruncated
		}
		e.Attrs[attr] = math.Float64frombits(binary.LittleEndian.Uint64(raw[off:]))
		off += 8
	}
	if off+4 > len(raw) {
		return Event{}, errTruncated
	}
	plen := int(binary.LittleEndian.Uint32(raw[off:]))
	off += 4
	if off+plen != len(raw) {
		// Short frames are truncated; longer ones carry trailing garbage —
		// either way two byte-distinct frames must not decode equal.
		return Event{}, errTruncated
	}
	if plen > 0 {
		e.Payload = append([]byte(nil), raw[off:off+plen]...)
	}
	return e, nil
}

// decodeSubscription decodes an appendSubscriptionBinary frame.
func decodeSubscription(raw []byte) (Subscription, error) {
	if len(raw) < 14 || raw[0] != binMagic || raw[1] != binKindSub {
		return Subscription{}, fmt.Errorf("scbr: not a binary subscription frame")
	}
	s := Subscription{ID: binary.LittleEndian.Uint64(raw[2:])}
	n := int(binary.LittleEndian.Uint32(raw[10:]))
	off := 14
	// Clamp the pre-size as in decodeEvent (≥18 bytes per predicate).
	hint := n
	if max := (len(raw) - off) / 18; hint > max {
		hint = max
	}
	s.Preds = make([]Predicate, 0, hint)
	for i := 0; i < n; i++ {
		attr, next, err := binString(raw, off)
		if err != nil {
			return Subscription{}, err
		}
		off = next
		if off+16 > len(raw) {
			return Subscription{}, errTruncated
		}
		s.Preds = append(s.Preds, Predicate{Attr: attr, Interval: Interval{
			Lo: math.Float64frombits(binary.LittleEndian.Uint64(raw[off:])),
			Hi: math.Float64frombits(binary.LittleEndian.Uint64(raw[off+8:])),
		}})
		off += 16
	}
	if off != len(raw) {
		return Subscription{}, errTruncated // trailing garbage
	}
	return s, nil
}
