package main

import (
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer started; parent 0 means a root span. Spans of one op share a
// key.
type span struct {
	id, parent int64
	name, key  string
	start, end int64
}

// layer is the span name's prefix: "wire.send" belongs to "wire".
func (s span) layer() string {
	if i := strings.IndexByte(s.name, '.'); i >= 0 {
		return s.name[:i]
	}
	return s.name
}

// tracer keeps a round's spans in memory. A nil *tracer records nothing,
// so untraced rounds pay no tracing cost beyond a nil check.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span; end records it.
type spanRef struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	key    string
	start  int64
}

// start opens a span under parent (0 = root). On a nil tracer it returns a
// span whose id is 0 and whose end does nothing.
func (t *tracer) start(parent int64, name, key string) spanRef {
	if t == nil {
		return spanRef{}
	}
	return spanRef{t: t, id: t.next.Add(1), parent: parent, name: name, key: key, start: int64(time.Since(t.t0))}
}

func (s spanRef) end() {
	if s.t == nil {
		return
	}
	end := int64(time.Since(s.t.t0))
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, span{id: s.id, parent: s.parent, name: s.name, key: s.key, start: s.start, end: end})
	s.t.mu.Unlock()
}

// selfTimes returns, per span (same index), its duration minus the part
// of its interval that its direct children cover. Overlapping children
// (concurrent calls under one parent) count once.
func selfTimes(spans []span) []int64 {
	idx := make(map[int64]int, len(spans))
	for i, s := range spans {
		idx[s.id] = i
	}
	children := make(map[int][]span)
	for _, s := range spans {
		if p, ok := idx[s.parent]; ok && s.parent != 0 {
			children[p] = append(children[p], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = (s.end - s.start) - covered(s.start, s.end, children[i])
	}
	return out
}

// covered returns how much of [lo, hi) the union of the spans' intervals
// covers.
func covered(lo, hi int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.start, lo), min(k.end, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// Headers the client stamps so server spans link to the client span that
// caused them.
const (
	hdrSpan = "X-Perfbench-Span"
	hdrKey  = "X-Perfbench-Key"
)

// stampRT is a per-client RoundTripper that stamps the current client
// span on each request. One generator goroutine owns it, so the fields
// need no lock.
type stampRT struct {
	base   http.RoundTripper
	parent int64
	key    string
}

func (s *stampRT) RoundTrip(req *http.Request) (*http.Response, error) {
	r := req.Clone(req.Context())
	r.Header.Set(hdrSpan, strconv.FormatInt(s.parent, 10))
	r.Header.Set(hdrKey, s.key)
	return s.base.RoundTrip(r)
}

// middleware records a "wire.handler" span around every server request,
// parented on the client span named in the stamped header.
func (t *tracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		sp := t.start(parent, "wire.handler", r.Header.Get(hdrKey))
		h.ServeHTTP(w, r)
		sp.end()
	})
}

// httpClient is one generator's HTTP client: a single keep-alive
// connection, stamped when the round is traced.
type httpClient struct {
	hc    *http.Client
	tp    *http.Transport
	stamp *stampRT // nil when untraced
}

func newHTTPClient(traced bool) *httpClient {
	tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	c := &httpClient{tp: tp, hc: &http.Client{Transport: tp}}
	if traced {
		c.stamp = &stampRT{base: tp}
		c.hc.Transport = c.stamp
	}
	return c
}

// link makes the client's next requests children of span id with key.
func (c *httpClient) link(id int64, key string) {
	if c.stamp != nil {
		c.stamp.parent, c.stamp.key = id, key
	}
}

func (c *httpClient) close() { c.tp.CloseIdleConnections() }
