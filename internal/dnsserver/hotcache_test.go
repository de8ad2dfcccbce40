package dnsserver

// Tests for the always-hot cache: refresh-ahead prefetch keeping hot
// names answered from cache across TTL expiry, and RFC 8767
// serve-stale turning upstream outages into clamped-TTL answers
// instead of SERVFAILs. Run with -race: the prefetch machinery is all
// about background goroutines.

import (
	"context"
	"errors"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/vclock"
)

// fakeOrigin is a terminal plugin standing in for the upstream: it
// counts how often the chain reaches it (atomically — prefetches
// arrive on background goroutines), can be switched into failure
// modes, blocked on a gate, and slowed down to make upstream latency
// observable from the client side.
type fakeOrigin struct {
	entered atomic.Int64 // chain reached the origin
	served  atomic.Int64 // origin finished (answer or failure)
	failing atomic.Bool  // true: return an error instead of answering
	gate    atomic.Pointer[chan struct{}]
	ttl     uint32
	delay   time.Duration
	addr    netip.Addr
}

func newFakeOrigin(ttl uint32) *fakeOrigin {
	return &fakeOrigin{ttl: ttl, addr: netip.MustParseAddr("192.0.2.80")}
}

// block installs a gate; origin calls park on it until release.
func (o *fakeOrigin) block() (release func()) {
	ch := make(chan struct{})
	o.gate.Store(&ch)
	return func() { close(ch) }
}

func (o *fakeOrigin) Name() string { return "fake-origin" }

func (o *fakeOrigin) ServeDNS(ctx context.Context, w ResponseWriter, r *Request, next Handler) (dnswire.Rcode, error) {
	o.entered.Add(1)
	defer o.served.Add(1)
	if g := o.gate.Load(); g != nil {
		<-*g
	}
	if o.delay > 0 {
		time.Sleep(o.delay)
	}
	if o.failing.Load() {
		return dnswire.RcodeServerFailure, errors.New("origin unreachable")
	}
	m := new(dnswire.Message)
	m.SetReply(r.Msg)
	m.Answers = []dnswire.RR{&dnswire.A{
		Hdr:  dnswire.RRHeader{Name: r.Name(), Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: o.ttl},
		Addr: o.addr,
	}}
	return m.Rcode, w.WriteMsg(m)
}

// TestRefreshAheadKeepsHotNameAnswered is the always-hot invariant: a
// hit in the last PrefetchFrac of its TTL is served from cache at
// cache-hit latency (never the origin's), triggers exactly one async
// re-resolve, and the refreshed entry carries the name across the
// original expiry without a single client-visible miss.
func TestRefreshAheadKeepsHotNameAnswered(t *testing.T) {
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	cache.PrefetchFrac = 0.1
	origin := newFakeOrigin(10)
	origin.delay = 200 * time.Millisecond
	h := Chain(cache, origin)
	q := queryFor("hot.test.")

	// t=0: cold miss pays the origin latency and warms the cache.
	Resolve(context.Background(), h, q)
	if got := origin.served.Load(); got != 1 {
		t.Fatalf("warming calls = %d, want 1", got)
	}

	// t=9.5s: remaining 0.5s ≤ 0.1 × 10s lifetime — inside the
	// refresh-ahead window. The hit must return without waiting on the
	// 200ms origin, with the prefetch running behind it.
	clock.Time += 9500 * time.Millisecond
	start := time.Now()
	resp := Resolve(context.Background(), h, queryFor("hot.test."))
	if lat := time.Since(start); lat > 150*time.Millisecond {
		t.Errorf("in-window hit took %v; upstream latency leaked to the client", lat)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("in-window hit answers = %v", resp.Answers)
	}
	if s := cache.Stats(); s.Hits != 1 || s.PrefetchIssued != 1 {
		t.Fatalf("after in-window hit: hits=%d prefetchIssued=%d, want 1/1", s.Hits, s.PrefetchIssued)
	}

	// Wait for the refreshed entry to land: a fresh store at t=9.5s
	// serves with the full TTL again, where the old entry is down to 1s.
	// (The clock must not advance while the prefetch goroutine can
	// still read it.)
	waitFor(t, 2*time.Second, func() bool {
		r := Resolve(context.Background(), h, queryFor("hot.test."))
		return len(r.Answers) == 1 && r.Answers[0].Header().TTL == 10
	})

	// t=10.5s: past the original expiry. Under a cold cache this is a
	// miss and an origin round trip; refresh-ahead makes it a hit.
	clock.Time += time.Second
	resp = Resolve(context.Background(), h, queryFor("hot.test."))
	if len(resp.Answers) != 1 || resp.Answers[0].Header().TTL != 9 {
		t.Errorf("post-expiry answer = %v, want the refreshed record aged to 9s", resp.Answers)
	}
	s := cache.Stats()
	if s.Misses != 1 || s.Expired != 0 {
		t.Errorf("misses=%d expired=%d after expiry; refresh-ahead did not keep the name hot", s.Misses, s.Expired)
	}
	if got := origin.served.Load(); got != 2 {
		t.Errorf("origin calls = %d, want 2 (warm + one prefetch)", got)
	}
}

// TestPrefetchDedupAndBound pins the two prefetch throttles: the
// per-entry latch collapses repeated in-window hits to one refresh,
// and the maxPrefetch semaphore sheds refreshes beyond the bound
// (counted, entry unlatched for a later retry).
func TestPrefetchDedupAndBound(t *testing.T) {
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	cache.PrefetchFrac = 0.5
	cache.maxPrefetch = 1
	origin := newFakeOrigin(10)
	h := Chain(cache, origin)

	Resolve(context.Background(), h, queryFor("a.dedup.test."))
	Resolve(context.Background(), h, queryFor("b.dedup.test."))
	clock.Time += 8 * time.Second // both entries inside the 50% window

	release := origin.block()
	for i := 0; i < 3; i++ {
		Resolve(context.Background(), h, queryFor("a.dedup.test."))
	}
	s := cache.Stats()
	if s.PrefetchIssued != 1 || s.PrefetchCoalesced < 2 {
		t.Errorf("issued=%d coalesced=%d after 3 in-window hits, want 1 issue and the rest coalesced",
			s.PrefetchIssued, s.PrefetchCoalesced)
	}
	// The single semaphore slot is parked on the gate; b's refresh
	// must be shed, not queued.
	Resolve(context.Background(), h, queryFor("b.dedup.test."))
	if s := cache.Stats(); s.PrefetchDropped != 1 {
		t.Errorf("dropped=%d after hitting the maxPrefetch bound, want 1", s.PrefetchDropped)
	}
	release()
	waitFor(t, 2*time.Second, func() bool { return origin.served.Load() == 3 })
}

// TestServeStaleOnUpstreamFailure is the RFC 8767 behaviour: with the
// upstream down, an expired entry inside the MaxStale window is served
// with its TTLs clamped to the stale lifetime — never the original
// TTL, never zero — instead of relaying SERVFAIL; past the window the
// failure comes through.
func TestServeStaleOnUpstreamFailure(t *testing.T) {
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	cache.MaxStale = time.Hour
	origin := newFakeOrigin(300)
	h := Chain(cache, origin)

	Resolve(context.Background(), h, queryFor("stale.test."))
	origin.failing.Store(true)

	// 100s past expiry, well inside the stale window.
	clock.Time += 400 * time.Second
	resp := Resolve(context.Background(), h, queryFor("stale.test."))
	if resp.Rcode != dnswire.RcodeSuccess || len(resp.Answers) != 1 {
		t.Fatalf("stale serve: rcode=%v answers=%v, want the cached answer", resp.Rcode, resp.Answers)
	}
	if got := resp.Answers[0].Header().TTL; got != 30 {
		t.Errorf("stale TTL = %d, want the 30s clamp (not the original 300, not 0)", got)
	}
	s := cache.Stats()
	if s.StaleServes != 1 || s.Expired != 1 {
		t.Errorf("staleServes=%d expired=%d, want 1/1", s.StaleServes, s.Expired)
	}

	// A wire-capable writer gets the same clamp as patched bytes.
	sink := &wireSink{}
	ResolveTo(context.Background(), h, sink, queryFor("stale.test."))
	if sink.wire == nil {
		t.Fatal("stale serve did not reach a wire-capable writer as wire bytes")
	}
	var m dnswire.Message
	if err := m.Unpack(sink.wire); err != nil {
		t.Fatal(err)
	}
	if got := m.Answers[0].Header().TTL; got != 30 {
		t.Errorf("wire-path stale TTL = %d, want 30", got)
	}

	// Past expiry + MaxStale the entry is gone and the failure relays.
	clock.Time += 2 * time.Hour
	resp = Resolve(context.Background(), h, queryFor("stale.test."))
	if resp.Rcode != dnswire.RcodeServerFailure {
		t.Errorf("beyond MaxStale: rcode = %v, want SERVFAIL", resp.Rcode)
	}

	// Upstream recovery refills normally.
	origin.failing.Store(false)
	resp = Resolve(context.Background(), h, queryFor("stale.test."))
	if resp.Rcode != dnswire.RcodeSuccess || len(resp.Answers) != 1 || resp.Answers[0].Header().TTL != 300 {
		t.Errorf("post-recovery answer = %v rcode=%v, want a fresh 300s record", resp.Answers, resp.Rcode)
	}
}

// TestServeStaleNeverExtendsShortTTLs: clamping is one-directional. A
// record that was stored with a TTL below the stale clamp keeps it —
// going stale must not grant lifetime.
func TestServeStaleNeverExtendsShortTTLs(t *testing.T) {
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	cache.MaxStale = time.Hour
	origin := newFakeOrigin(5)
	h := Chain(cache, origin)

	Resolve(context.Background(), h, queryFor("short.test."))
	origin.failing.Store(true)
	clock.Time += 10 * time.Second
	resp := Resolve(context.Background(), h, queryFor("short.test."))
	if resp.Rcode != dnswire.RcodeSuccess || len(resp.Answers) != 1 {
		t.Fatalf("stale serve: rcode=%v answers=%v", resp.Rcode, resp.Answers)
	}
	if got := resp.Answers[0].Header().TTL; got != 5 {
		t.Errorf("stale TTL = %d, want the original 5 (clamp must not extend)", got)
	}
}

// TestShutdownWaitsForPrefetch pins the drain contract across the
// cache/server boundary: a refresh-ahead prefetch in flight when
// Shutdown begins is covered by the server's in-flight WaitGroup, so
// the drain waits for it instead of leaking the goroutine — and no new
// background work can start once draining.
func TestShutdownWaitsForPrefetch(t *testing.T) {
	cache := NewCache(vclock.NewReal())
	cache.PrefetchFrac = 1.0 // every hit is in-window
	origin := newFakeOrigin(60)
	srv := &Server{Addr: "127.0.0.1:0", Handler: Chain(cache, origin)}
	cache.Background = srv // before Start, as dnsd.Build does: the serve goroutines read it
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	addr := srv.LocalAddr()

	if _, err := realClient().Query(context.Background(), addr, "drain.test.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	release := origin.block()
	if _, err := realClient().Query(context.Background(), addr, "drain.test.", dnswire.TypeA); err != nil {
		t.Fatal(err) // hit: served from cache while the prefetch parks on the gate
	}
	waitFor(t, 2*time.Second, func() bool { return origin.entered.Load() == 2 })

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(ctx) }()
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned %v with a prefetch still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	release()
	if err := <-done; err != nil {
		t.Fatalf("Shutdown = %v after the prefetch finished, want nil", err)
	}
	if got := origin.served.Load(); got != 2 {
		t.Errorf("origin completions = %d at shutdown return, want 2 (drain must cover the prefetch)", got)
	}
	if _, ok := srv.TrackBackground(); ok {
		t.Error("TrackBackground accepted work after drain")
	}
}
