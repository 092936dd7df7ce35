package scbr

import (
	"fmt"
	"sync"
)

// Router is one node of an SCBR router overlay. SCBR deployments connect
// brokers in a tree: subscriptions propagate towards the root so that
// publications can flow back down only along branches with matching
// interest. Covering relations are exploited on the control path too — a
// router never announces a subscription to its parent when an
// already-announced filter covers it, which keeps upstream routing tables
// (and upstream enclave memory, cf. Figure 3) small.
//
// Each router's matching state lives in its own (optionally enclave-
// accounted) indexes: one for local clients, one per neighbour link.
type Router struct {
	id     string
	parent *Router

	mu       sync.Mutex
	children map[string]*Router
	// local matches subscriptions of clients attached to this router.
	local *Index
	// interests[neighbour] matches filters announced by that neighbour
	// (children and, implicitly, the parent's interest is whatever we
	// announced upward).
	interests map[string]*Index
	// announced tracks the filters this router forwarded to its parent,
	// used for the covering check.
	announced []Subscription
	// deliveries collects locally matched subscription IDs per publish.
	delivered map[uint64]int
	// hops counts inter-router forwards (the overlay-efficiency metric).
	hops uint64
}

// NewRouter creates a router; parent may be nil for the root.
func NewRouter(id string, parent *Router) *Router {
	r := &Router{
		id:        id,
		parent:    parent,
		children:  make(map[string]*Router),
		local:     NewIndex(IndexConfig{}),
		interests: make(map[string]*Index),
		delivered: make(map[uint64]int),
	}
	if parent != nil {
		parent.mu.Lock()
		parent.children[id] = r
		parent.interests[id] = NewIndex(IndexConfig{})
		parent.mu.Unlock()
	}
	return r
}

// ID returns the router identifier.
func (r *Router) ID() string { return r.id }

// Hops returns the number of inter-router forwards this router performed.
func (r *Router) Hops() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hops
}

// AnnouncedUpstream returns how many filters this router forwarded to its
// parent — the covering-aggregation metric.
func (r *Router) AnnouncedUpstream() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.announced)
}

// Subscribe registers a local client subscription and propagates interest
// towards the root, suppressed wherever a covering filter was already
// announced.
func (r *Router) Subscribe(s Subscription) {
	r.local.Insert(s)
	r.propagateUp(s)
}

// propagateUp announces s to the parent unless covered.
func (r *Router) propagateUp(s Subscription) {
	if r.parent == nil {
		return
	}
	r.mu.Lock()
	for _, a := range r.announced {
		if a.Covers(s) {
			r.mu.Unlock()
			return // upstream already receives a superset
		}
	}
	r.announced = append(r.announced, s)
	r.mu.Unlock()

	r.parent.mu.Lock()
	idx := r.parent.interests[r.id]
	r.parent.mu.Unlock()
	idx.Insert(s)
	// The parent in turn propagates towards the root.
	r.parent.propagateUp(s)
}

// Publish injects a publication at this router and routes it through the
// overlay. It returns the total number of local deliveries across all
// routers.
func (r *Router) Publish(e Event) int {
	return r.route(e, "")
}

// route delivers locally and forwards to every interested neighbour except
// the one the event came from.
func (r *Router) route(e Event, from string) int {
	delivered := len(r.local.Match(e))

	r.mu.Lock()
	var fwdChildren []*Router
	for id, child := range r.children {
		if id == from {
			continue
		}
		if len(r.interests[id].Match(e)) > 0 {
			fwdChildren = append(fwdChildren, child)
		}
	}
	parent := r.parent
	toParent := parent != nil && from != parentLink && r.parentInterested(e)
	if len(fwdChildren) > 0 || toParent {
		r.hops += uint64(len(fwdChildren))
		if toParent {
			r.hops++
		}
	}
	r.mu.Unlock()

	for _, child := range fwdChildren {
		delivered += child.route(e, parentLink)
	}
	if toParent {
		delivered += parent.route(e, r.id)
	}
	return delivered
}

// parentLink is the reserved neighbour name of the upstream link.
const parentLink = "\x00parent"

// parentInterested decides whether to forward an event upward. This
// overlay uses "gravity" routing: subscriptions propagate only towards
// the root, so a router holds no state about what is reachable through
// its parent and must forward every event upward; all pruning happens on
// the downward (per-child interest) links. Hops() measures the resulting
// traffic; the covering aggregation keeps the upward control state small.
func (r *Router) parentInterested(e Event) bool {
	return true
}

// Tree builds a rooted overlay from a parent map: parents[child] = parent
// ID, with exactly one absent entry (the root). It returns the routers by
// ID.
func Tree(edges map[string]string) (map[string]*Router, error) {
	routers := make(map[string]*Router)
	var build func(id string) (*Router, error)
	build = func(id string) (*Router, error) {
		if r, ok := routers[id]; ok {
			return r, nil
		}
		parentID, hasParent := edges[id]
		if !hasParent {
			r := NewRouter(id, nil)
			routers[id] = r
			return r, nil
		}
		if parentID == id {
			return nil, fmt.Errorf("scbr: router %q is its own parent", id)
		}
		p, err := build(parentID)
		if err != nil {
			return nil, err
		}
		r := NewRouter(id, p)
		routers[id] = r
		return r, nil
	}
	for id := range edges {
		if _, err := build(id); err != nil {
			return nil, err
		}
	}
	return routers, nil
}
