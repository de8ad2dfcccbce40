package telemetry

import (
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"github.com/meccdn/meccdn/internal/vclock"
)

// Resolution-path labels, the runtime counterpart of the paper's
// Fig 5 categories: answered from the L-DNS message cache, contained
// at the edge (authoritative zone or collocated C-DNS), escaped to an
// upstream resolver behind the core, or not answered at all.
const (
	PathCacheHit = "cache-hit"
	PathEdge     = "edge"
	PathUpstream = "upstream"
	PathRefused  = "refused"
	PathError    = "error"
)

// Indices of the resolution paths in Hub.Path.
const (
	pathCacheHit = iota
	pathEdge
	pathUpstream
	pathRefused
	pathError
)

var pathNames = []string{
	pathCacheHit: PathCacheHit, pathEdge: PathEdge, pathUpstream: PathUpstream,
	pathRefused: PathRefused, pathError: PathError,
}

// Hub ties the per-query instruments together for one server: it
// starts and finishes spans, feeds the serve-duration histogram and
// resolution-path counter, and head-samples finished spans into the
// query log. A nil *Hub is valid and disables all of it.
type Hub struct {
	// Clock times spans and hops. Nil means a wall clock created by
	// NewHub.
	Clock vclock.Clock
	// Registry holds this hub's metric families (and any component
	// collectors the process registers alongside them).
	Registry *Registry
	// Log receives head-sampled query records; nil disables logging.
	Log *QueryLog
	// SampleEvery keeps 1 in N queries for the log (decided at query
	// start — head sampling — so a kept query logs all of its hops).
	// Values <= 1 keep every query.
	SampleEvery int

	// ServeDuration observes every query's span total.
	ServeDuration *Histogram
	// Path counts finished queries by resolution path.
	Path *Family

	n     atomic.Uint64
	spans sync.Pool // finished spans, for BeginAddr to reuse
}

// NewHub builds a hub with a fresh registry, a 1024-entry query log,
// and the standard serve-duration and resolution-path families
// registered. clock nil means wall clock.
func NewHub(clock vclock.Clock) *Hub {
	if clock == nil {
		clock = vclock.NewReal()
	}
	h := &Hub{
		Clock:    clock,
		Registry: NewRegistry(),
		Log:      NewQueryLog(0),
		ServeDuration: NewHistogram("meccdn_dns_serve_duration_seconds",
			"Client-observed DNS serve time from packet in to response written."),
		Path: NewCounters("meccdn_dns_resolution_path_total",
			"Finished queries by resolution path (cache-hit, edge, upstream, refused, error).", "path", pathNames...),
	}
	h.Registry.MustRegister(h.ServeDuration, h.Path)
	return h
}

// sampleNext reports whether the next started query should be logged.
func (h *Hub) sampleNext() bool {
	if h.Log == nil {
		return false
	}
	if h.SampleEvery <= 1 {
		return true
	}
	return h.n.Add(1)%uint64(h.SampleEvery) == 1
}

// BeginAddr opens a span for one query, drawn from the hub's pool, and
// returns it; attach it to the request context with ContextWith. The
// client address is rendered only if the query is sampled into the
// log. Nil-hub safe (returns nil).
func (h *Hub) BeginAddr(name, qtype, transport string, client netip.AddrPort) *Span {
	if h == nil {
		return nil
	}
	sp, _ := h.spans.Get().(*Span)
	if sp == nil {
		sp = NewSpan(h.Clock, "", "")
	}
	sp.name, sp.qtype, sp.transport, sp.client = name, qtype, transport, client
	sp.sampled = h.sampleNext()
	sp.start = sp.clock.Now()
	return sp
}

// Finish ends the span with the response rcode, classifies its
// resolution path, feeds the histogram and path counter, and — when
// the span was head-sampled — appends a record to the query log. The
// span then goes back to the hub's pool: the caller must not touch it,
// or the context carrying it, again. Nil-hub and nil-span safe.
func (h *Hub) Finish(sp *Span, rcode string) {
	if h == nil || sp == nil {
		return
	}
	sp.mu.Lock()
	p := classifyPath(sp.hops, rcode)
	path := pathNames[p]
	sp.endLocked(path)
	total := sp.end - sp.start
	if h.Log != nil && sp.sampled {
		h.Log.addSpan(sp, rcode, path, time.Now())
	}
	sp.gen.Add(1) // a hop still open is dropped by its End
	sp.hops, sp.outcome, sp.ended = sp.hopsBuf[:0], "", false
	sp.name = "" // pooled, the span must not keep the name's bytes alive
	sp.mu.Unlock()
	if h.ServeDuration != nil {
		h.ServeDuration.Observe(total)
	}
	if h.Path != nil {
		h.Path.Inc(p)
	}
	h.spans.Put(sp)
}

// classifyPath maps a span's hops and final rcode onto the Fig 5
// resolution-path categories, as an index of pathNames. A query no
// upstream answered is refused when its rcode is REFUSED or one of the
// ingress's refusals (NOTIMP, FORMERR, BADVERS), which no link ran for.
func classifyPath(hops []Hop, rcode string) int {
	upstream := false
	for _, hop := range hops {
		switch hop.Layer {
		case "cache":
			if hop.Note == "hit" {
				return pathCacheHit
			}
		case "coalesce":
			// A coalesced waiter shared another query's upstream
			// exchange; classify like its leader.
			upstream = true
		case "upstream":
			upstream = true
		}
	}
	switch {
	case upstream:
		return pathUpstream
	case rcode == "REFUSED", rcode == "NOTIMP", rcode == "FORMERR", rcode == "BADVERS":
		return pathRefused
	case rcode == "SERVFAIL":
		return pathError
	default:
		return pathEdge
	}
}
