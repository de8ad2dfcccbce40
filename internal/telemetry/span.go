package telemetry

import (
	"context"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"github.com/meccdn/meccdn/internal/vclock"
)

// Span is one query's hop-by-hop timing record, the runtime analogue
// of the paper's Fig 5 decomposition: it tells you whether a
// resolution was answered from the L-DNS cache, contained at the edge
// (zone / C-DNS chain), or escaped to an upstream resolver — and how
// long each layer took.
//
// A span is created at the socket layer when a query arrives,
// propagated through the plugin chain via context.Context, annotated
// by each layer it crosses, and ended when the response is written. A
// Hub's span then serves a later query, so work that can outlive its
// query runs on a Fork. All methods are nil-safe so instrumentation
// points need no guards: a query served without telemetry carries a
// nil span and every annotation is a no-op.
type Span struct {
	clock vclock.Clock // kept when the span is reused
	node  spanCtx      // the context ContextWith returns

	// Query identity, set when the span is opened. The client address
	// is rendered only when a sampled query reaches the log.
	name, qtype, transport string
	client                 netip.AddrPort
	sampled                bool
	start                  time.Duration

	gen atomic.Uint64 // queries finished on the span; see HopTimer.End

	mu      sync.Mutex
	hops    []Hop
	outcome string
	end     time.Duration
	ended   bool

	// hopsBuf is the initial backing array for hops. Real resolutions
	// cross a handful of layers, so recording hops usually never
	// allocates beyond the span itself.
	hopsBuf [8]Hop
}

// spanCtx carries a span as the one value it adds to its parent.
type spanCtx struct {
	context.Context
	sp *Span
}

func (c *spanCtx) Value(key any) any {
	if _, ok := key.(spanKey); ok {
		return c.sp
	}
	return c.Context.Value(key)
}

// Hop is one timed crossing of an instrumented layer. Start is an
// offset from the span's start; zero-duration hops are point
// annotations (e.g. a stub-domain match).
type Hop struct {
	// Layer names the instrumented component: "cache", "coalesce",
	// "zone", "stub", "forward", "upstream", "cdn-router", ...
	Layer string
	// Note qualifies the crossing: "hit", "miss", an upstream address,
	// a selected cache server.
	Note  string
	Start time.Duration
	Dur   time.Duration
}

type spanKey struct{}

// NewSpan starts a span for one query using clock (nil means a wall
// clock anchored now).
func NewSpan(clock vclock.Clock, name, qtype string) *Span {
	if clock == nil {
		clock = vclock.NewReal()
	}
	s := &Span{clock: clock, name: name, qtype: qtype, start: clock.Now()}
	s.node.sp, s.hops = s, s.hopsBuf[:0]
	return s
}

// ContextWith returns ctx carrying sp, in a context node inside sp: it
// allocates nothing and, like the span, is the query's until Finish.
func ContextWith(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	sp.node.Context = ctx
	return &sp.node
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// HopTimer is an open hop. It is a value, so timing a layer allocates
// nothing; the zero HopTimer, from a nil span, closes as a no-op.
type HopTimer struct {
	s     *Span
	layer string
	begin time.Duration
	gen   uint64
}

// StartHop opens a timed hop on the span. Safe on a nil span.
func (s *Span) StartHop(layer string) HopTimer {
	if s == nil {
		return HopTimer{}
	}
	return HopTimer{s: s, layer: layer, begin: s.clock.Now(), gen: s.gen.Load()}
}

// End closes the hop with a note. A hop whose span has finished its
// query since is dropped, never recorded in the span's next query.
func (t HopTimer) End(note string) {
	s := t.s
	if s == nil {
		return
	}
	end := s.clock.Now()
	s.mu.Lock()
	if s.gen.Load() == t.gen {
		s.hops = append(s.hops, Hop{Layer: t.layer, Note: note, Start: t.begin - s.start, Dur: end - t.begin})
	}
	s.mu.Unlock()
}

// Annotate records a zero-duration point hop. Safe on a nil span.
func (s *Span) Annotate(layer, note string) {
	if s == nil {
		return
	}
	now := s.clock.Now()
	s.mu.Lock()
	s.hops = append(s.hops, Hop{Layer: layer, Note: note, Start: now - s.start})
	s.mu.Unlock()
}

// Fork opens a child of s (same clock, same start) for work that may
// outlive the query, and returns ctx re-rooted on it: given the context
// ContextWith made for s, the result does not lead back to s, which can
// then serve its next query. On a nil span Fork returns ctx and nil.
func (s *Span) Fork(ctx context.Context) (context.Context, *Span) {
	if s == nil {
		return ctx, nil
	}
	if ctx == context.Context(&s.node) {
		ctx = s.node.Context
	}
	child := NewSpan(s.clock, s.name, s.qtype)
	child.start = s.start
	return ContextWith(ctx, child), child
}

// Join appends the hops child has recorded so far to s; what child
// records later stays there. Safe on nil spans.
func (s *Span) Join(child *Span) {
	if s == nil || child == nil {
		return
	}
	child.mu.Lock()
	s.mu.Lock()
	s.hops = append(s.hops, child.hops...)
	s.mu.Unlock()
	child.mu.Unlock()
}

func (s *Span) endLocked(outcome string) {
	if !s.ended {
		s.ended = true
		s.end = s.clock.Now()
		s.outcome = outcome
	}
}

// Total returns the span duration: end−start once ended, elapsed so
// far otherwise. Zero on a nil span.
func (s *Span) Total() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totalLocked()
}

func (s *Span) totalLocked() time.Duration {
	if s.ended {
		return s.end - s.start
	}
	return s.clock.Now() - s.start
}

// Hops returns a copy of the recorded hops in completion order.
func (s *Span) Hops() []Hop {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Hop(nil), s.hops...)
}

// Outcome returns the outcome passed to End.
func (s *Span) Outcome() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.outcome
}

// Sampled reports whether this span was head-sampled into the query
// log by the Hub that created it.
func (s *Span) Sampled() bool { return s != nil && s.sampled }

// StartHop opens a timed hop on the span carried by ctx; the timer is
// a no-op when ctx carries none.
func StartHop(ctx context.Context, layer string) HopTimer {
	return FromContext(ctx).StartHop(layer)
}

// Annotate records a point hop on the span carried by ctx, if any.
func Annotate(ctx context.Context, layer, note string) {
	FromContext(ctx).Annotate(layer, note)
}
