package dnsserver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/keyhash"
	"github.com/meccdn/meccdn/internal/vclock"
)

func TestCacheHitAndTTLAging(t *testing.T) {
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	backend := &countingPlugin{h: answerHandler("192.0.2.9")}
	h := Chain(cache, backend)

	r1 := Resolve(context.Background(), h, queryFor("cached.test."))
	if len(r1.Answers) != 1 || backend.hits != 1 {
		t.Fatalf("first: answers=%d hits=%d", len(r1.Answers), backend.hits)
	}
	clock.Time += 10 * time.Second
	r2 := Resolve(context.Background(), h, queryFor("cached.test."))
	if backend.hits != 1 {
		t.Fatalf("cache miss on second query")
	}
	if got := r2.Answers[0].Header().TTL; got != 20 {
		t.Errorf("aged TTL = %d, want 20", got)
	}
	s := cache.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestCacheExpiry(t *testing.T) {
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	backend := &countingPlugin{h: answerHandler("192.0.2.9")}
	h := Chain(cache, backend)
	Resolve(context.Background(), h, queryFor("exp.test."))
	clock.Time += 31 * time.Second // TTL is 30s
	Resolve(context.Background(), h, queryFor("exp.test."))
	if backend.hits != 2 {
		t.Errorf("expired entry served from cache")
	}
}

func TestCacheNegative(t *testing.T) {
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	z := NewZone("neg.test.")
	backend := &countingPlugin{}
	h := Chain(cache, backend, NewZonePlugin(z))
	Resolve(context.Background(), h, queryFor("missing.neg.test."))
	Resolve(context.Background(), h, queryFor("missing.neg.test."))
	if backend.hits != 1 {
		t.Errorf("negative response not cached: backend hits = %d", backend.hits)
	}
	if s := cache.Stats(); s.NegativeHits != 1 {
		t.Errorf("negative hits = %d", s.NegativeHits)
	}
}

func TestCacheECSFragmentation(t *testing.T) {
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	// The backend tailors its answers to the full disclosed prefix
	// (scope = source), so every distinct subnet costs its own entry —
	// the fragmentation worst case. A backend that answers without ECS
	// (or scope 0) would share one entry across all subnets; see
	// TestCacheScopeZeroSharedGlobally for those semantics.
	backend := &countingPlugin{h: ecsAnswerHandler("192.0.2.9", echoSourceScope)}
	h := Chain(cache, backend)
	Resolve(context.Background(), h, queryFor("frag.test.", "10.1.0.0/24"))
	Resolve(context.Background(), h, queryFor("frag.test.", "10.2.0.0/24"))
	Resolve(context.Background(), h, queryFor("frag.test.", "10.1.0.0/24"))
	if backend.hits != 2 {
		t.Errorf("ECS fragmentation: backend hits = %d, want 2", backend.hits)
	}
}

func TestCacheSIEVEEviction(t *testing.T) {
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	cache.MaxEntries = 4
	backend := &countingPlugin{h: answerHandler("192.0.2.9")}
	h := Chain(cache, backend)
	names := []string{"a.t.", "b.t.", "c.t.", "d.t.", "e.t."}
	for _, n := range names {
		Resolve(context.Background(), h, queryFor(n))
	}
	// Nothing was visited, so "a.t.", the oldest, should have been
	// evicted.
	Resolve(context.Background(), h, queryFor("a.t."))
	if backend.hits != 6 {
		t.Errorf("backend hits = %d, want 6 (a.t. evicted)", backend.hits)
	}
	// One eviction for e.t. displacing a.t., one more when a.t. is
	// re-stored at capacity.
	if s := cache.Stats(); s.Evictions != 2 {
		t.Errorf("evictions = %d", s.Evictions)
	}

	// A visited entry survives an insert at capacity; the unvisited one
	// beside it goes in its place.
	cache.Flush()
	for _, n := range []string{"w.t.", "x.t.", "y.t.", "z.t.", "w.t.", "v.t."} {
		Resolve(context.Background(), h, queryFor(n))
	}
	before := backend.hits
	Resolve(context.Background(), h, queryFor("w.t."))
	if backend.hits != before {
		t.Error("w.t. was visited but evicted")
	}
	Resolve(context.Background(), h, queryFor("x.t."))
	if backend.hits != before+1 {
		t.Error("x.t. was not visited but survived")
	}
}

func TestCacheFlush(t *testing.T) {
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	backend := &countingPlugin{h: answerHandler("192.0.2.9")}
	h := Chain(cache, backend)
	Resolve(context.Background(), h, queryFor("f.test."))
	cache.Flush()
	Resolve(context.Background(), h, queryFor("f.test."))
	if backend.hits != 2 {
		t.Error("flush did not clear cache")
	}
}

func TestCacheString(t *testing.T) {
	c := NewCache(&vclock.Fixed{})
	if s := c.String(); !strings.Contains(s, "cache{") {
		t.Errorf("String() = %q", s)
	}
}

// TestCacheOPTFollowsAsker (RFC 6891 §7): a reply carries an OPT record
// exactly when its query did. The cache stores one image per key,
// whichever query filled it, so a hit adds a bare OPT to an image
// without one, or cuts the image's OPT off, to follow its own asker, in
// either order; and a zone answers an OPT-only query with an OPT.
func TestCacheOPTFollowsAsker(t *testing.T) {
	upstream := HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		m := new(dnswire.Message)
		m.SetReply(r.Msg)
		m.Answers = []dnswire.RR{&dnswire.A{
			Hdr:  dnswire.RRHeader{Name: r.Name(), Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 30},
			Addr: netip.MustParseAddr("192.0.2.1"),
		}}
		if _, ok := r.Msg.OPT(); ok {
			m.SetEDNS(dnswire.DefaultEDNSSize)
		}
		return m.Rcode, w.WriteMsg(m)
	})
	zone := NewZone("zone.test.")
	if err := zone.AddA("www.zone.test.", 60, netip.MustParseAddr("192.0.2.2")); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, qname string
		backend     Plugin
	}{
		{"upstream", "opt.test.", pluginize(upstream)},
		{"zone", "www.zone.test.", NewZonePlugin(zone)},
	} {
		for _, order := range [][]bool{{true, false, true}, {false, true, false}} {
			cache := NewCache(&vclock.Fixed{})
			h := Chain(cache, c.backend)
			for i, edns := range order {
				resp := askWire(t, h, c.qname, edns, nil, 1)
				if opt, has := resp.OPT(); has != edns || has && opt.UDPSize() != dnswire.DefaultEDNSSize {
					t.Errorf("%s, order %v, query %d: OPT in the query %v, in the reply %v", c.name, order, i, edns, has)
				}
			}
			if st := cache.Stats(); st.Misses != 1 || st.Hits != 2 {
				t.Errorf("%s, order %v: cache stats %+v: one entry should serve both kinds of asker", c.name, order, st)
			}
		}
	}
}

// TestWireHitMatchesOracle pins the serve-path invariant end to end at
// the plugin layer: every cache hit — plain or EDNS — reaches a
// wire-capable writer as patched stored bytes, byte-identical to the
// decode → restamp → age → repack oracle, including transaction ID,
// RD/CD mirroring, and TTL aging; a writer that only takes messages
// gets a message that packs to those same bytes.
func TestWireHitMatchesOracle(t *testing.T) {
	zone := NewZone("wire.test.")
	if err := zone.AddA("www.wire.test.", 300, netip.MustParseAddr("192.0.2.31")); err != nil {
		t.Fatal(err)
	}
	for i := range 40 {
		if err := zone.AddA("big.wire.test.", 300, netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	origin := NewZonePlugin(zone)
	chain := Chain(cache, origin)

	nameQuery := func(name string, id uint16, rd bool) *Request {
		q := new(dnswire.Message)
		q.SetQuestion(name, dnswire.TypeA)
		q.ID = id
		q.RecursionDesired = rd
		return &Request{Msg: q, Client: netip.MustParseAddrPort("192.0.2.99:4242"), Transport: "udp"}
	}
	query := func(id uint16, rd bool) *Request { return nameQuery("www.wire.test.", id, rd) }
	stored := upstreamImage(t, Chain(origin), query(1, true))
	bigStored := upstreamImage(t, Chain(origin), nameQuery("big.wire.test.", 1, true))
	if len(bigStored) < 512 {
		t.Fatalf("big.wire.test. packs to %d bytes, want at least 512", len(bigStored))
	}

	// Populate the cache, then age it.
	for _, req := range []*Request{query(1, true), nameQuery("big.wire.test.", 1, true)} {
		if resp := Resolve(context.Background(), chain, req); resp.Rcode != dnswire.RcodeSuccess {
			t.Fatalf("warm query rcode = %v", resp.Rcode)
		}
	}
	clock.Time += 10 * time.Second

	fast := &wireSink{}
	rcode := ResolveTo(context.Background(), chain, fast, query(0xABCD, true))
	if rcode != dnswire.RcodeSuccess {
		t.Fatalf("wire hit rcode = %v", rcode)
	}
	if fast.wire == nil {
		t.Fatal("cache hit did not reach the writer as wire bytes (WriteMsg used instead)")
	}
	want, err := oracleReply(stored, query(0xABCD, true).Msg, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fast.wire, want) {
		t.Fatalf("wire hit differs from the oracle:\n% x\n% x", fast.wire, want)
	}

	// Same hit through a writer that cannot take bytes: decoded at the
	// boundary from the same image.
	slow := &msgWriter{}
	if _, err := chain.ServeDNS(context.Background(), slow, query(0xABCD, true)); err != nil {
		t.Fatal(err)
	}
	if !slow.Written() {
		t.Fatal("message-writer hit wrote nothing")
	}
	if repacked, err := slow.msg.Pack(); err != nil || !bytes.Equal(repacked, want) {
		t.Fatalf("message-writer hit differs from the oracle (%v):\n% x\n% x", err, repacked, want)
	}

	// The patched response carries the caller's ID and the aged TTL.
	var got dnswire.Message
	if err := got.Unpack(fast.wire); err != nil {
		t.Fatal(err)
	}
	if got.ID != 0xABCD {
		t.Errorf("wire hit ID = %#x, want 0xABCD", got.ID)
	}
	if len(got.Answers) != 1 || got.Answers[0].Header().TTL != 290 {
		t.Errorf("wire hit answers = %v, want one A with TTL 290", got.Answers)
	}
	if !got.RecursionDesired {
		t.Error("RD bit not mirrored from the request")
	}

	// An RD=false request must come back with RD clear even though the
	// stored response was built from an RD=true exchange.
	fast2 := &wireSink{}
	ResolveTo(context.Background(), chain, fast2, query(7, false))
	if fast2.wire == nil {
		t.Fatal("second hit did not reach the writer as wire bytes")
	}
	var got2 dnswire.Message
	if err := got2.Unpack(fast2.wire); err != nil {
		t.Fatal(err)
	}
	if got2.RecursionDesired {
		t.Error("RD=false request served with RD set")
	}

	// An EDNS-bearing request is served the same way.
	eq := query(9, true)
	eq.Msg.SetEDNS(1232)
	edns := &wireSink{}
	ResolveTo(context.Background(), chain, edns, eq)
	if edns.wire == nil || edns.msg != nil {
		t.Fatal("EDNS request not served as wire bytes")
	}
	if want, err := oracleReply(stored, eq.Msg, 10, false); err != nil || !bytes.Equal(edns.wire, want) {
		t.Errorf("EDNS hit differs from the oracle (%v):\n% x\n% x", err, edns.wire, want)
	}

	// A hit larger than the transport carries reaches the ingress's
	// writer as bytes too, and is cut down there, in place: the oracle's
	// bytes truncated, TC set, within the limit.
	bq := nameQuery("big.wire.test.", 11, true)
	small := &replyImage{limit: dnswire.MaxUDPSize}
	ResolveTo(context.Background(), chain, small, bq)
	if small.buf == nil {
		t.Fatal("oversized hit wrote nothing")
	}
	defer dnswire.PutBuffer(small.buf)
	whole, err := oracleReply(bigStored, bq.Msg, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	n, err := dnswire.Truncate(whole, len(whole), dnswire.MaxUDPSize)
	if err != nil {
		t.Fatal(err)
	}
	if got := small.buf[:small.n]; !bytes.Equal(got, whole[:n]) || n > dnswire.MaxUDPSize || got[2]&0x02 == 0 {
		t.Errorf("oversized hit is not the oracle cut to %d bytes with TC:\n% x\n% x", dnswire.MaxUDPSize, got, whole[:n])
	}

	if st := cache.Stats(); st.Hits < 5 {
		t.Errorf("cache hits = %d, want >= 5", st.Hits)
	}
}

// TestSingleflightCoalescing: N concurrent misses for one key perform
// exactly one upstream exchange; the rest share the leader's answer.
func TestSingleflightCoalescing(t *testing.T) {
	const waiters = 15 // plus 1 leader

	var backendCalls atomic.Int64
	entered := make(chan struct{}) // closed when the leader is in the backend
	release := make(chan struct{}) // closed to let the backend answer
	backend := HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		if backendCalls.Add(1) == 1 {
			close(entered)
		}
		<-release
		return answerHandler("192.0.2.99").ServeDNS(ctx, w, r)
	})

	cache := NewCache(&vclock.Fixed{})
	h := Chain(cache, pluginize(backend))

	results := make(chan *dnswire.Message, waiters+1)
	var wg sync.WaitGroup
	resolve := func() {
		defer wg.Done()
		results <- Resolve(context.Background(), h, queryFor("flight.test."))
	}
	wg.Add(1)
	go resolve()
	<-entered // leader is blocked inside the backend

	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go resolve()
	}
	// Wait until every waiter has attached to the leader's flight.
	deadline := time.Now().Add(5 * time.Second)
	for cache.Stats().Coalesced < waiters {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d waiters coalesced", cache.Stats().Coalesced, waiters)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(results)

	if n := backendCalls.Load(); n != 1 {
		t.Fatalf("backend exchanges = %d, want exactly 1 for %d concurrent misses", n, waiters+1)
	}
	got := 0
	for resp := range results {
		got++
		if len(resp.Answers) != 1 || resp.Answers[0].(*dnswire.A).Addr.String() != "192.0.2.99" {
			t.Fatalf("bad shared answer: %v (rcode %v)", resp.Answers, resp.Rcode)
		}
	}
	if got != waiters+1 {
		t.Fatalf("responses = %d, want %d", got, waiters+1)
	}
	if s := cache.Stats(); s.Coalesced != waiters {
		t.Errorf("coalesced = %d, want %d", s.Coalesced, waiters)
	}
}

// TestSingleflightLeaderFailurePropagates: waiters see the leader's
// error outcome rather than hanging or retrying upstream.
func TestSingleflightLeaderFailurePropagates(t *testing.T) {
	var backendCalls atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	backend := HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		if backendCalls.Add(1) == 1 {
			close(entered)
		}
		<-release
		return dnswire.RcodeServerFailure, errors.New("upstream exploded")
	})
	cache := NewCache(&vclock.Fixed{})
	h := Chain(cache, pluginize(backend))

	var wg sync.WaitGroup
	results := make(chan *dnswire.Message, 2)
	wg.Add(1)
	go func() { defer wg.Done(); results <- Resolve(context.Background(), h, queryFor("boom.test.")) }()
	<-entered
	wg.Add(1)
	go func() { defer wg.Done(); results <- Resolve(context.Background(), h, queryFor("boom.test.")) }()
	deadline := time.Now().Add(5 * time.Second)
	for cache.Stats().Coalesced < 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never coalesced")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(results)
	for resp := range results {
		if resp.Rcode != dnswire.RcodeServerFailure {
			t.Errorf("rcode = %v, want SERVFAIL", resp.Rcode)
		}
	}
	if n := backendCalls.Load(); n != 1 {
		t.Errorf("backend calls = %d, want 1", n)
	}
}

// gateClock is a test clock whose next reading, once armed, parks the
// goroutine taking it until the test lets it go. Armed just before the
// backend answers, it parks the leader of a flight inside store — after
// its exchange, before the entry is in and the flight is out of the
// table — so the test can send queries into that window.
type gateClock struct {
	now    atomic.Int64
	armed  atomic.Bool
	parked chan struct{}
	unpark chan struct{}
}

func newGateClock() *gateClock {
	return &gateClock{parked: make(chan struct{}, 1), unpark: make(chan struct{}, 1)}
}

func (c *gateClock) Now() time.Duration {
	if c.armed.CompareAndSwap(true, false) {
		c.parked <- struct{}{}
		<-c.unpark
	}
	return time.Duration(c.now.Load())
}

// TestSingleflightLateJoiner: a flight's channel is made only by the
// first query to join it, so joining has to work at every moment of the
// leader's life — while it waits on the upstream, and while it is inside
// store, where the flight has no channel unless an earlier joiner made
// one — and a flight nobody joins must finish without one. Each flight
// is one upstream exchange, every query gets the answer, and nothing
// hangs. A query that misses while a refresh-ahead prefetch is in
// flight joins that flight the same way.
func TestSingleflightLateJoiner(t *testing.T) {
	var calls atomic.Int64
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var hold atomic.Bool
	backend := HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		calls.Add(1)
		if hold.Load() {
			entered <- struct{}{}
			<-release
		}
		return answerHandler("192.0.2.77").ServeDNS(ctx, w, r)
	})
	clock := newGateClock()
	cache := NewCache(clock)
	cache.PrefetchFrac = 0.5
	h := Chain(cache, pluginize(backend))

	var wg sync.WaitGroup
	results := make(chan *dnswire.Message, 64) // above the 21 queries asked, so no answer waits to be taken
	ask := func(name string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- Resolve(context.Background(), h, queryFor(name))
		}()
	}
	waitCoalesced := func(n uint64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for cache.Stats().Coalesced < n {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d queries joined a flight", cache.Stats().Coalesced, n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitAll := func(want int) {
		t.Helper()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("a query hangs")
		}
		for i := 0; i < want; i++ {
			resp := <-results
			if len(resp.Answers) != 1 || resp.Answers[0].(*dnswire.A).Addr.String() != "192.0.2.77" {
				t.Fatalf("query got %v (rcode %v), not the flight's answer", resp.Answers, resp.Rcode)
			}
		}
	}

	var joined uint64
	for i, c := range []struct{ early, late int }{{0, 0}, {0, 3}, {3, 0}, {2, 2}} {
		name := fmt.Sprintf("late-%d.test.", i)
		hold.Store(true)
		ask(name) // the leader
		<-entered
		for j := 0; j < c.early; j++ {
			ask(name)
		}
		joined += uint64(c.early)
		waitCoalesced(joined)
		clock.armed.Store(true) // the leader's store takes the next reading
		hold.Store(false)
		release <- struct{}{}
		<-clock.parked
		for j := 0; j < c.late; j++ {
			ask(name)
		}
		joined += uint64(c.late)
		waitCoalesced(joined)
		clock.unpark <- struct{}{}
		waitAll(1 + c.early + c.late)
		ask(name) // after the flight: a hit
		waitAll(1)
		if got, want := calls.Load(), int64(i+1); got != want {
			t.Fatalf("flight %+v: %d upstream exchanges in all, want %d", c, got, want)
		}
	}

	// A prefetch's flight. The refresh starts at a hit in the last half
	// of the 30 s TTL and is held at the upstream; the entry then
	// expires, and the next query misses and joins the refresh.
	ask("pf.test.")
	waitAll(1)
	clock.now.Add(int64(20 * time.Second))
	hold.Store(true)
	ask("pf.test.") // the hit that starts the refresh
	waitAll(1)
	<-entered
	clock.now.Add(int64(20 * time.Second))
	ask("pf.test.")
	joined++
	waitCoalesced(joined)
	hold.Store(false)
	release <- struct{}{}
	waitAll(1)
	st := cache.Stats()
	if got, want := calls.Load(), int64(4+2); got != want || st.PrefetchIssued != 1 {
		t.Fatalf("%d upstream exchanges and %d prefetches; want %d and 1", got, st.PrefetchIssued, want)
	}
	if st.Coalesced != joined {
		t.Errorf("coalesced = %d, want %d", st.Coalesced, joined)
	}
}

// TestCacheConcurrentLoad hammers the sharded cache with parallel
// hits, misses, and stores under -race and checks counter coherence.
func TestCacheConcurrentLoad(t *testing.T) {
	cache := NewCache(&vclock.Fixed{})
	cache.MaxEntries = 8192
	var backendCalls atomic.Int64
	backend := HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		backendCalls.Add(1)
		return answerHandler("192.0.2.50").ServeDNS(ctx, w, r)
	})
	h := Chain(cache, pluginize(backend))

	workers := runtime.GOMAXPROCS(0) * 2
	if workers < 4 {
		workers = 4
	}
	const perWorker = 400
	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// 64 hot names shared across workers: mostly hits with
				// racing misses at the start.
				name := fmt.Sprintf("host-%d.load.test.", (wkr*perWorker+i)%64)
				resp := Resolve(context.Background(), h, queryFor(name))
				if resp.Rcode != dnswire.RcodeSuccess {
					t.Errorf("rcode = %v", resp.Rcode)
					return
				}
			}
		}(wkr)
	}
	wg.Wait()

	total := uint64(workers * perWorker)
	s := cache.Stats()
	if s.Hits+s.Misses+s.Expired != total {
		t.Errorf("hits(%d)+misses(%d)+expired(%d) != lookups(%d)", s.Hits, s.Misses, s.Expired, total)
	}
	if uint64(backendCalls.Load())+s.Coalesced != s.Misses {
		t.Errorf("backend(%d)+coalesced(%d) != misses(%d)", backendCalls.Load(), s.Coalesced, s.Misses)
	}
	if s.Entries != 64 {
		t.Errorf("entries = %d, want 64", s.Entries)
	}
}

// TestCacheExpiredNotDoubleCounted: an expired entry is one Expired
// observation, not an extra Miss on top.
func TestCacheExpiredNotDoubleCounted(t *testing.T) {
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	backend := &countingPlugin{h: answerHandler("192.0.2.9")}
	h := Chain(cache, backend)

	Resolve(context.Background(), h, queryFor("ttl.test.")) // miss, stored (TTL 30s)
	clock.Time += 31 * time.Second
	Resolve(context.Background(), h, queryFor("ttl.test.")) // expired
	s := cache.Stats()
	if s.Misses != 1 || s.Expired != 1 {
		t.Errorf("misses=%d expired=%d, want 1/1", s.Misses, s.Expired)
	}
	if s.Hits != 0 {
		t.Errorf("hits = %d", s.Hits)
	}
	if backend.hits != 2 {
		t.Errorf("backend hits = %d, want 2", backend.hits)
	}
}

// TestCacheShardAutoSizing: tiny caches collapse to one shard so
// eviction follows one SIEVE queue; big caches keep the configured
// shard count.
func TestCacheShardAutoSizing(t *testing.T) {
	small := NewCache(&vclock.Fixed{})
	small.MaxEntries = 4
	if got := small.Stats().Shards; got != 1 {
		t.Errorf("small cache shards = %d, want 1", got)
	}
	big := NewCache(&vclock.Fixed{})
	if got := big.Stats().Shards; got != 16 {
		t.Errorf("default cache shards = %d, want 16", got)
	}
	custom := NewCache(&vclock.Fixed{})
	custom.MaxEntries = 1 << 16
	custom.Shards = 64
	if got := custom.Stats().Shards; got != 64 {
		t.Errorf("custom shards = %d, want 64", got)
	}
}

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

// A /16-scoped answer must serve every sibling /24 from one cache
// entry — the acceptance-criteria behavior — while a different /16
// still resolves its own.
func TestCacheScopedAnswerSharedAcrossSiblings(t *testing.T) {
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	backend := &countingPlugin{h: ecsAnswerHandler("192.0.2.9", 16)}
	h := Chain(cache, backend)

	resp := Resolve(context.Background(), h, queryFor("scoped.test.", "10.1.1.0/24"))
	if backend.hits != 1 {
		t.Fatalf("first query: backend hits = %d", backend.hits)
	}
	ecs, ok := resp.ECS()
	if !ok || ecs.ScopePrefix != 16 {
		t.Fatalf("first response ECS = %v %v, want scope 16", ecs, ok)
	}

	// Sibling /24 inside the same /16: served from the same entry.
	resp = Resolve(context.Background(), h, queryFor("scoped.test.", "10.1.2.0/24"))
	if backend.hits != 1 {
		t.Errorf("sibling /24 went upstream: backend hits = %d, want 1", backend.hits)
	}
	ecs, ok = resp.ECS()
	if !ok {
		t.Fatal("cached response lost its ECS option")
	}
	// RFC 7871 §7.2.1: the echo mirrors *this* query's address and
	// source, keeping the stored answer's scope.
	if want := netip.MustParseAddr("10.1.2.0"); ecs.Address != want || ecs.SourcePrefix != 24 || ecs.ScopePrefix != 16 {
		t.Errorf("sibling echo = %s/%d/%d, want %s/24/16",
			ecs.Address, ecs.SourcePrefix, ecs.ScopePrefix, want)
	}

	// A /24 in a different /16 is outside the stored scope: resolves.
	Resolve(context.Background(), h, queryFor("scoped.test.", "10.2.1.0/24"))
	if backend.hits != 2 {
		t.Errorf("different /16: backend hits = %d, want 2", backend.hits)
	}

	s := cache.Stats()
	if s.Hits != 1 || s.Misses != 2 {
		t.Errorf("stats hits=%d misses=%d, want 1/2", s.Hits, s.Misses)
	}
	if s.Entries != 2 {
		t.Errorf("entries = %d, want 2 (one per /16 scope key)", s.Entries)
	}
}

// An answer without ECS (or scoped /0) is valid for every address
// (RFC 7871 §7.2.2): one entry serves all disclosed subnets.
func TestCacheScopeZeroSharedGlobally(t *testing.T) {
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	backend := &countingPlugin{h: answerHandler("192.0.2.9")} // no ECS echo
	h := Chain(cache, backend)
	Resolve(context.Background(), h, queryFor("zero.test.", "10.1.0.0/24"))
	Resolve(context.Background(), h, queryFor("zero.test.", "172.16.0.0/24"))
	Resolve(context.Background(), h, queryFor("zero.test.", "192.0.2.0/24"))
	if backend.hits != 1 {
		t.Errorf("scope-0 answer fragmented: backend hits = %d, want 1", backend.hits)
	}
	// A non-ECS query for the same name keys separately from scope-0
	// ECS entries (the ECS suffix is part of the key).
	Resolve(context.Background(), h, queryFor("zero.test."))
	if backend.hits != 2 {
		t.Errorf("plain query: backend hits = %d, want 2", backend.hits)
	}
}

// The same scope semantics must hold for IPv6 disclosures, whose
// scope-hint bits live beyond the first mask word.
func TestCacheScopedV6(t *testing.T) {
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	backend := &countingPlugin{h: ecsAnswerHandler("192.0.2.9", 48)}
	h := Chain(cache, backend)
	Resolve(context.Background(), h, queryFor("six.test.", "2001:db8:7:1::/64"))
	Resolve(context.Background(), h, queryFor("six.test.", "2001:db8:7:2::/64"))
	if backend.hits != 1 {
		t.Errorf("sibling /64 inside the /48 scope went upstream: hits = %d", backend.hits)
	}
	Resolve(context.Background(), h, queryFor("six.test.", "2001:db8:8:1::/64"))
	if backend.hits != 2 {
		t.Errorf("different /48: hits = %d, want 2", backend.hits)
	}
}

// A narrower-scoped entry must not answer a query that disclosed less
// than the scope: a /24-scoped entry is invisible to a /16 disclosure.
func TestCacheScopeNeverExceedsDisclosure(t *testing.T) {
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	backend := &countingPlugin{h: ecsAnswerHandler("192.0.2.9", echoSourceScope)}
	h := Chain(cache, backend)
	Resolve(context.Background(), h, queryFor("narrow.test.", "10.1.1.0/24"))
	Resolve(context.Background(), h, queryFor("narrow.test.", "10.1.0.0/16"))
	if backend.hits != 2 {
		t.Errorf("/16 disclosure used a /24-scoped entry: hits = %d, want 2", backend.hits)
	}
}

// An ECS hit reaches a wire-capable writer as patched stored bytes —
// the echo spliced in place — byte-identical to the decode-and-repack
// oracle, and a message writer gets those same bytes decoded.
func TestECSWireHitMatchesOracle(t *testing.T) {
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	backend := &countingPlugin{h: ecsAnswerHandler("192.0.2.9", 16)}
	h := Chain(cache, backend)

	warm := queryFor("wireecs.test.", "10.1.1.0/24")
	stored := upstreamImage(t, ecsAnswerHandler("192.0.2.9", 16), warm)
	if resp := Resolve(context.Background(), h, warm); resp.Rcode != dnswire.RcodeSuccess {
		t.Fatalf("warm rcode = %v", resp.Rcode)
	}
	clock.Time += 10 * time.Second

	// Siblings inside the /16 scope, at a shorter, an equal and a longer
	// source length than the stored echo: the splice shrinks, keeps and
	// grows the option.
	for _, prefix := range []string{"10.1.0.0/17", "10.1.2.0/24", "10.1.2.128/27"} {
		q := func() *Request {
			r := queryFor("wireecs.test.", prefix)
			r.Msg.ID = 0x7A7A
			return r
		}
		want, err := oracleReply(stored, q().Msg, 10, false)
		if err != nil {
			t.Fatal(err)
		}

		fast := &wireSink{}
		if rcode := ResolveTo(context.Background(), h, fast, q()); rcode != dnswire.RcodeSuccess {
			t.Fatalf("%s: wire-writer hit rcode = %v", prefix, rcode)
		}
		if fast.wire == nil || fast.msg != nil {
			t.Fatalf("%s: ECS hit not served as wire bytes", prefix)
		}
		if !bytes.Equal(fast.wire, want) {
			t.Fatalf("%s: ECS wire hit differs from the oracle:\n% x\n% x", prefix, fast.wire, want)
		}

		slow := &msgWriter{}
		if _, err := h.ServeDNS(context.Background(), slow, q()); err != nil {
			t.Fatal(err)
		}
		if !slow.Written() {
			t.Fatalf("%s: message-writer hit wrote nothing", prefix)
		}
		if repacked, err := slow.msg.Pack(); err != nil || !bytes.Equal(repacked, want) {
			t.Fatalf("%s: message-writer hit differs from the oracle (%v):\n% x\n% x", prefix, err, repacked, want)
		}

		var got dnswire.Message
		if err := got.Unpack(fast.wire); err != nil {
			t.Fatal(err)
		}
		ecs, ok := got.ECS()
		if !ok {
			t.Fatalf("%s: served response lost ECS", prefix)
		}
		if want := netip.MustParsePrefix(prefix); ecs.Prefix() != want || ecs.ScopePrefix != 16 {
			t.Errorf("%s: echo = %s/%d/%d, want %s scope 16", prefix, ecs.Address, ecs.SourcePrefix, ecs.ScopePrefix, want)
		}
		if len(got.Answers) != 1 || got.Answers[0].Header().TTL != 20 {
			t.Errorf("%s: answers = %v, want one A aged to TTL 20", prefix, got.Answers)
		}
	}
	if backend.hits != 1 {
		t.Errorf("backend hits = %d, want 1", backend.hits)
	}
}

// A refresh-ahead prefetch of a scoped entry stores under the key the
// *refreshed* answer dictates: when the authority has since narrowed
// its scope from /16 to /24, the /24-tailored answer must not replace
// the /16 entry, where every sibling /24 would be served it.
func TestPrefetchRescopedAnswerKeyedByItsOwnScope(t *testing.T) {
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	cache.PrefetchFrac = 0.5
	var scope, reached atomic.Int32
	scope.Store(16)
	origin := HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		defer reached.Add(1)
		return ecsAnswerHandler("192.0.2.9", uint8(scope.Load())).ServeDNS(ctx, w, r)
	})
	h := Chain(cache, pluginize(origin))

	Resolve(context.Background(), h, queryFor("rescope.test.", "10.1.1.0/24")) // stored at /16
	scope.Store(24)
	clock.Time += 20 * time.Second // TTL 30: inside the refresh window
	Resolve(context.Background(), h, queryFor("rescope.test.", "10.1.1.0/24"))
	waitFor(t, 2*time.Second, func() bool { return reached.Load() == 2 && cache.Stats().Entries == 2 })

	// The /16 entry has expired; only 10.1.1.0/24 has a (fresh) entry,
	// short of its own refresh window (16 s of 30 left), so the hit on it
	// below spawns no prefetch that could reach the origin behind it.
	clock.Time += 14 * time.Second
	resp := Resolve(context.Background(), h, queryFor("rescope.test.", "10.1.2.0/24"))
	if got := reached.Load(); got != 3 {
		t.Errorf("sibling /24 was served the refreshed /24-scoped answer from cache (origin reached %d times, want 3)", got)
	}
	if ecs, ok := resp.ECS(); !ok || ecs.ScopePrefix != 24 || ecs.Address != netip.MustParseAddr("10.1.2.0") {
		t.Errorf("sibling response ECS = %v %v, want 10.1.2.0/24 scope 24", ecs, ok)
	}
	Resolve(context.Background(), h, queryFor("rescope.test.", "10.1.1.0/24"))
	if got := reached.Load(); got != 3 {
		t.Errorf("refreshed 10.1.1.0/24 entry missing: origin reached %d times, want 3", got)
	}
}

// Ingress normalization: a query arriving with a nonzero scope or
// stray host bits is scrubbed before the cache keys on it, so hostile
// variants of the same disclosure cannot fragment the cache.
func TestQueryECSNormalizedAtIngress(t *testing.T) {
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	backend := &countingPlugin{h: ecsAnswerHandler("192.0.2.9", echoSourceScope)}
	h := Chain(cache, backend)

	dirty := queryFor("norm.test.")
	opt := dirty.Msg.SetEDNS(1232)
	opt.Options = append(opt.Options, &dnswire.ECSOption{
		Family:       1,
		SourcePrefix: 24,
		ScopePrefix:  13,                               // must be zero in queries
		Address:      netip.MustParseAddr("10.1.1.77"), // stray host bits
	})
	resp := Resolve(context.Background(), h, dirty)
	ecs, ok := resp.ECS()
	if !ok {
		t.Fatal("response lacks ECS")
	}
	if want := netip.MustParseAddr("10.1.1.0"); ecs.Address != want {
		t.Errorf("echoed address = %v, want masked %v", ecs.Address, want)
	}

	// The clean form of the same disclosure hits the same entry.
	Resolve(context.Background(), h, queryFor("norm.test.", "10.1.1.0/24"))
	if backend.hits != 1 {
		t.Errorf("normalized duplicate went upstream: hits = %d, want 1", backend.hits)
	}
}

// entriesOf counts the cache entries of name's A question, unscoped and
// at every ECS scope.
func entriesOf(cache *Cache, name string) int {
	base := appendBaseKey(nil, queryFor(name))
	n := 0
	for _, sh := range cache.shards {
		sh.mu.Lock()
		for i := 1; i < len(sh.slots); i++ {
			if key := sh.slots[i].key(); len(key) > 0 && bytes.HasPrefix(key, base) {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// TestOneNameCannotTakeTheCache: the client writes the ECS bytes, so a
// client asking for one name from 5 000 ever new subnets, answered at
// the scope it disclosed, must not fill the cache — the name keeps at
// most maxScopes entries — and a hot set warmed before the flood must
// hit as well after it.
func TestOneNameCannotTakeTheCache(t *testing.T) {
	cache := NewCache(&vclock.Fixed{})
	backend := &countingPlugin{h: ecsAnswerHandler("192.0.2.9", echoSourceScope)}
	h := Chain(&ECS{}, cache, backend)
	hot := make([]*Request, 0, 2*256)
	for i := 0; i < 256; i++ {
		name := fmt.Sprintf("hot-%d.flood.test.", i)
		hot = append(hot, queryFor(name), queryFor(name, fmt.Sprintf("10.200.%d.0/24", i)))
	}
	replay := func() float64 {
		before := cache.Stats().Hits
		for _, r := range hot {
			Resolve(context.Background(), h, r)
		}
		return float64(cache.Stats().Hits-before) / float64(len(hot))
	}
	replay() // warm
	warm := replay()
	const flooded = "flood.flood.test."
	for i := 0; i < 5000; i++ {
		// A /32 in a /24 of its own, so the /24 clamp leaves it a new key.
		addr := netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 1})
		Resolve(context.Background(), h, queryFor(flooded, netip.PrefixFrom(addr, 32).String()))
	}
	if n := entriesOf(cache, flooded); n > maxScopes {
		t.Errorf("the flooded name holds %d entries, want at most %d", n, maxScopes)
	}
	if after := replay(); after < 0.99*warm {
		t.Errorf("the hot set hits %.3f after the flood, %.3f before", after, warm)
	}
}

// scopedRef is one entry of FuzzScopedLookup's reference cache.
type scopedRef struct {
	name    string
	prefix  netip.Prefix // the query address masked to the entry's scope
	expires time.Duration
	answer  netip.Addr
}

// FuzzScopedLookup differentially tests the ECS scope ladder against a
// plain list of entries. The fuzzer's bytes are decoded into stores,
// lookups and clock advances over three names, both families, arbitrary
// addresses, sources and answer scopes. A store keys its entry at
// min(answer scope, source) and, new to a name already at maxScopes,
// is refused. A lookup, its source clamped at ingress to /24 or /56,
// must be answered by the longest-scoped live entry of its name at no
// more bits than that source whose prefix covers its address, and miss
// without one; an expired entry it passes on the way is dropped. Each
// store answers with an address of its own, which tells entries apart,
// and after every operation the cache holds as many entries as the
// reference. The cache is large enough that nothing is evicted.
func FuzzScopedLookup(f *testing.F) {
	f.Add([]byte{0, 24, 16, 30, 10, 1, 2, 3, 2, 24, 0, 0, 10, 1, 9, 9, 3, 0, 31, 0, 0, 0, 0, 0, 2, 24, 0, 0, 10, 1, 9, 9})
	f.Add([]byte{0x10, 64, 48, 10, 1, 2, 3, 4, 0x12, 56, 0, 0, 1, 2, 3, 4, 0x12, 40, 0, 0, 1, 2, 3, 4})
	var flood []byte // one name past the bound, then a lookup for each
	for i := 0; i < maxScopes+8; i++ {
		flood = append(flood, 0, 32, 24, 60, 10, byte(i), byte(i), 1)
	}
	for i := 0; i < maxScopes+8; i++ {
		flood = append(flood, 2, 24, 0, 0, 10, byte(i), byte(i), 7)
	}
	f.Add(flood)
	names := []string{"a.scope.test.", "b.scope.test.", "c.scope.test."}
	f.Fuzz(func(t *testing.T, ops []byte) {
		clock := &vclock.Fixed{}
		cache := NewCache(clock)
		cache.MaxEntries = 1 << 14
		h := Chain(cache, pluginize(HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
			return dnswire.RcodeServerFailure, nil // a miss: relayed, never stored
		})))
		var ref []scopedRef
		stores := 0
		for n := 0; n+8 <= len(ops) && n < 8*512; n += 8 {
			op := ops[n : n+8]
			name := names[int(op[0]>>2&3)%len(names)]
			ecs := &dnswire.ECSOption{Family: 1, Address: netip.AddrFrom4([4]byte(op[4:8]))}
			famBits, clamp := 32, ecsPrefixV4
			if op[0]&0x10 != 0 {
				ecs.Family, famBits, clamp = 2, 128, ecsPrefixV6
				ecs.Address = netip.AddrFrom16([16]byte{0x20, 0x01, op[4], op[5], op[6], op[7], op[4] ^ op[7], op[5] ^ op[6]})
			}
			ecs.SourcePrefix = uint8(int(op[1]) % (famBits + 1))
			req := queryFor(name)
			req.Msg.SetEDNS(dnswire.DefaultEDNSSize).Options = []dnswire.EDNSOption{ecs}
			switch op[0] & 3 {
			case 0, 1: // store
				answer := netip.AddrFrom4([4]byte{198, 18, byte(stores >> 8), byte(stores)})
				stores++
				ttl := time.Duration(1+op[3]%64) * time.Second
				m := new(dnswire.Message).SetReply(req.Msg)
				m.Answers = []dnswire.RR{&dnswire.A{
					Hdr:  dnswire.RRHeader{Name: name, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: uint32(ttl / time.Second)},
					Addr: answer,
				}}
				echo := *ecs
				echo.ScopePrefix = op[2]
				m.SetEDNS(dnswire.DefaultEDNSSize).Options = []dnswire.EDNSOption{&echo}
				image, err := m.Pack()
				if err != nil || !storeImage(cache, req, image) {
					t.Fatalf("op %d: the image %v does not store (%v)", n/8, m, err)
				}
				prefix := netip.PrefixFrom(ecs.Address, min(int(op[2]), int(ecs.SourcePrefix))).Masked()
				i := slices.IndexFunc(ref, func(e scopedRef) bool { return e.name == name && e.prefix == prefix })
				held := 0
				for _, e := range ref {
					if e.name == name {
						held++
					}
				}
				switch {
				case i >= 0:
					ref[i].expires, ref[i].answer = clock.Now()+ttl, answer
				case held < maxScopes:
					ref = append(ref, scopedRef{name, prefix, clock.Now() + ttl, answer})
				}
			case 2: // lookup
				source := min(int(ecs.SourcePrefix), clamp)
				var want netip.Addr
				for scope := source; scope >= 0 && !want.IsValid(); scope-- {
					i := slices.IndexFunc(ref, func(e scopedRef) bool {
						return e.name == name && e.prefix.Bits() == scope && e.prefix.Contains(ecs.Address)
					})
					switch {
					case i < 0:
					case clock.Now() < ref[i].expires:
						want = ref[i].answer
					default:
						ref = slices.Delete(ref, i, i+1)
					}
				}
				resp := Resolve(context.Background(), h, req)
				var got netip.Addr
				if resp != nil && len(resp.Answers) == 1 {
					if a, ok := resp.Answers[0].(*dnswire.A); ok {
						got = a.Addr
					}
				}
				if got != want || !want.IsValid() && (resp == nil || resp.Rcode != dnswire.RcodeServerFailure) {
					t.Fatalf("op %d: %s from %s/%d answered %v (%v), want %v", n/8, name, ecs.Address, ecs.SourcePrefix, got, resp, want)
				}
			default:
				clock.Time += time.Duration(op[3]%64) * time.Second
			}
			if st := cache.Stats(); st.Entries != len(ref) {
				t.Fatalf("op %d: the cache holds %d entries, the reference %d", n/8, st.Entries, len(ref))
			}
		}
	})
}

// TestCacheMaxEntriesIsABound: when MaxEntries does not divide by the
// shard count, the shards' capacities still sum to exactly MaxEntries.
func TestCacheMaxEntriesIsABound(t *testing.T) {
	image := upstreamImage(t, answerHandler("192.0.2.9"), queryFor("bound.test."))
	cache := NewCache(&vclock.Fixed{})
	cache.MaxEntries = 1001 // 8 shards of 125, one left over
	for i := 0; i < 20000; i++ {
		if !storeImage(cache, queryFor(fmt.Sprintf("n%d.bound.test.", i)), image) {
			t.Fatal("store refused the image")
		}
	}
	if st := cache.Stats(); st.Entries != cache.MaxEntries {
		t.Errorf("%d entries after 20000 distinct names, MaxEntries %d", st.Entries, cache.MaxEntries)
	}
}

// TestCacheScanResistance: a Zipf-1.1 hot set of 200 names shares a
// 256-entry cache with a scan, one never-repeated name after every hot
// query. The hot set must keep at least 95 % of the hit ratio it has
// without the scan: eviction passes over visited entries, so the scan's
// one-hit wonders evict each other.
func TestCacheScanResistance(t *testing.T) {
	const hot, warm, measured = 200, 5000, 20000
	hotRatio := func(scan bool) float64 {
		cache := NewCache(&vclock.Fixed{})
		cache.MaxEntries = 256
		h := Chain(cache, &countingPlugin{h: answerHandler("192.0.2.9")})
		zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, hot-1)
		var hits uint64
		for i := 0; i < warm+measured; i++ {
			if i == warm {
				hits = cache.Stats().Hits
			}
			ResolveTo(context.Background(), h, &wireSink{}, queryFor(fmt.Sprintf("h%d.hot.test.", zipf.Uint64())))
			if scan {
				ResolveTo(context.Background(), h, &wireSink{}, queryFor(fmt.Sprintf("s%d.scan.test.", i)))
			}
		}
		// The scan never repeats, so every hit is a hot one.
		return float64(cache.Stats().Hits-hits) / measured
	}
	alone, scanned := hotRatio(false), hotRatio(true)
	t.Logf("hot-set hit ratio %.3f alone, %.3f with the scan", alone, scanned)
	if scanned < 0.95*alone {
		t.Errorf("hot-set hit ratio %.3f with the scan, %.3f without: the scan evicted the hot set", scanned, alone)
	}
}

// sieveRef is the reference SIEVE over plain slices, newest first; hand
// indexes keys, -1 meaning the tail.
type sieveRef struct {
	keys      []string
	visited   []bool
	expires   []time.Duration
	hand, max int
	evictions uint64
}

func (r *sieveRef) remove(i int) {
	r.keys, r.visited, r.expires = slices.Delete(r.keys, i, i+1), slices.Delete(r.visited, i, i+1), slices.Delete(r.expires, i, i+1)
	if r.hand >= i {
		r.hand-- // onto the newer neighbour, or off the list's newer end
	}
}

func (r *sieveRef) hit(key string, now time.Duration) {
	if i := slices.Index(r.keys, key); i >= 0 && now >= r.expires[i] {
		r.remove(i)
	} else if i >= 0 {
		r.visited[i] = true
	}
}

func (r *sieveRef) store(key string, expires time.Duration) {
	if i := slices.Index(r.keys, key); i >= 0 {
		r.visited[i], r.expires[i] = true, expires
		return
	}
	for len(r.keys) >= r.max {
		i := r.hand
		if i < 0 {
			i = len(r.keys) - 1
		}
		for ; r.visited[i]; i-- {
			r.visited[i] = false
			if i == 0 {
				i = len(r.keys)
			}
		}
		r.hand = i
		r.remove(i)
		r.evictions++
	}
	r.keys, r.visited, r.expires = slices.Insert(r.keys, 0, key), slices.Insert(r.visited, 0, false), slices.Insert(r.expires, 0, expires)
	if r.hand >= 0 {
		r.hand++
	}
}

// sieveOrder walks sh's ring from the head and returns its keys, newest
// first, their visited bits and the key under the hand ("" for none). It
// fails t on a malformed slab: a broken link, a slot the index does not
// reach through its hash chain, a live-entry count that is off, or a
// slot that is not on exactly one of the ring and the free chain.
func sieveOrder(t *testing.T, sh *cacheShard) (keys []string, visited []bool, hand string) {
	t.Helper()
	seen := make([]bool, len(sh.slots))
	prev := int32(0)
	for i := sh.slots[0].next; i != 0; prev, i = i, sh.slots[i].next {
		s := &sh.slots[i]
		if seen[i] || s.prev != prev || s.klen == 0 {
			t.Fatalf("slot %d: revisited, prev %d (want %d) or empty", i, s.prev, prev)
		}
		if j := sh.find(s.hash, s.key()); j != i {
			t.Fatalf("slot %d holds %q, which the index finds at %d", i, s.key(), j)
		}
		seen[i] = true
		keys, visited = append(keys, string(s.key())), append(visited, s.visited)
	}
	if sh.slots[0].prev != prev || len(keys) != sh.n {
		t.Fatalf("tail %d, want %d; %d slots on the ring, %d entries", sh.slots[0].prev, prev, len(keys), sh.n)
	}
	for i := sh.free; i != 0; i = sh.slots[i].next {
		if seen[i] || sh.slots[i].klen != 0 {
			t.Fatalf("free slot %d is revisited or holds an entry", i)
		}
		seen[i] = true
	}
	if i := slices.Index(seen[1:], false); i >= 0 {
		t.Fatalf("slot %d is neither on the ring nor free", i+1)
	}
	if sh.hand != 0 {
		if int(sh.hand) >= len(sh.slots) || sh.slots[sh.hand].klen == 0 {
			t.Fatalf("hand %d is not on the ring", sh.hand)
		}
		hand = string(sh.slots[sh.hand].key())
	}
	return keys, visited, hand
}

// FuzzCacheEviction differentially tests the shard's slab against the
// reference SIEVE: the fuzzer's bytes are decoded into store / hit /
// expire / Flush operations over 32 names on a one-shard cache of 1–16
// entries, both implementations run them, and after every operation they
// must hold the same keys in the same order with the same visited bits,
// the hand on the same key and the same eviction count — so every
// eviction took the same victim — and the slab must be well-formed.
func FuzzCacheEviction(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 2, 0x60, 3, 0x61, 4, 5, 0x62, 6, 0xc5, 0x63, 7})
	f.Add(uint8(0), []byte{0, 0x60, 1, 0x61, 2, 0xff, 3, 0xe0, 4})
	f.Add(uint8(15), []byte{0, 1, 2, 3, 0x60, 0x61, 0xdf, 0x62, 4, 5, 6})
	f.Fuzz(func(t *testing.T, size uint8, ops []byte) {
		image := upstreamImage(t, answerHandler("192.0.2.9"), queryFor("fuzz.test."))
		clock := &vclock.Fixed{}
		cache := NewCache(clock)
		cache.MaxEntries = 1 + int(size%16)
		cache.init()
		ref := &sieveRef{hand: -1, max: cache.MaxEntries}
		if len(ops) > 512 {
			ops = ops[:512]
		}
		for n, op := range ops {
			req := queryFor(fmt.Sprintf("k%d.test.", op&31))
			key := appendBaseKey(nil, req)
			switch op >> 5 {
			case 0, 1, 2:
				if !storeImage(cache, req, image) {
					t.Fatal("store refused the image")
				}
				ref.store(string(key), clock.Now()+30*time.Second) // the image's TTL
			case 3, 4, 5:
				h, sh := cache.locate(key)
				cache.serveHit(sh, h, key, clock.Now(), &wireSink{}, req)
				ref.hit(string(key), clock.Now())
			case 6:
				clock.Time += time.Duration(op&31) * time.Second
			default:
				cache.Flush()
				ref.keys, ref.visited, ref.expires, ref.hand = nil, nil, nil, -1
			}
			keys, visited, hand := sieveOrder(t, cache.shards[0])
			want := ""
			if ref.hand >= 0 {
				want = ref.keys[ref.hand]
			}
			st := cache.Stats()
			if !slices.Equal(keys, ref.keys) || !slices.Equal(visited, ref.visited) || hand != want || st.Evictions != ref.evictions {
				t.Fatalf("after op %d (%#x): cache %q %v hand %q evictions %d; reference %q %v hand %q evictions %d",
					n, op, keys, visited, hand, st.Evictions, ref.keys, ref.visited, want, ref.evictions)
			}
			if st.Entries > cache.MaxEntries {
				t.Fatalf("%d entries, MaxEntries %d", st.Entries, cache.MaxEntries)
			}
		}
	})
}

// The response cache's slab owns its entries' bytes and hands a slot's
// buffers to the next entry the moment one is evicted. These tests hold
// every reader to copying under the shard lock: a hit, a flight's
// waiter and the serve-stale fallback answer with their own key's bytes
// or not at all, whatever the slot holds by then.

// addrFor is the address nameHandler answers name with, distinct per
// name.
func addrFor(name string) netip.Addr {
	h := keyhash.Sum64(name)
	return netip.AddrFrom4([4]byte{10, byte(h >> 16), byte(h >> 8), byte(h)})
}

// nameHandler answers every name with one A record for addrFor(name),
// TTL 30.
func nameHandler() Handler {
	return HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		return answerHandler(addrFor(r.Name()).String()).ServeDNS(ctx, w, r)
	})
}

// answeredWith reports whether resp answers name, and only name, with
// addrFor(name).
func answeredWith(resp *dnswire.Message, name string) bool {
	if resp == nil || resp.Question().Name != name || len(resp.Answers) != 1 {
		return false
	}
	a, ok := resp.Answers[0].(*dnswire.A)
	return ok && a.Hdr.Name == name && a.Addr == addrFor(name)
}

// TestSlabSlotReuseRace: hits on a hot set race a stream of
// never-repeated names whose stores evict hot entries and take over
// their slots. Every reply must answer its own name — a hit that read
// its slot after the shard lock was released would, now and then, carry
// another key's bytes, and the race detector would see the read. make ci
// runs it under -race 20 times at 1, 2 and 4 cores.
func TestSlabSlotReuseRace(t *testing.T) {
	cache := NewCache(&vclock.Fixed{})
	cache.MaxEntries = 8 // one shard, smaller than the hot set: hot entries evict each other
	h := Chain(cache, pluginize(nameHandler()))
	const hot, rounds = 12, 1500
	var wg sync.WaitGroup
	var wrong atomic.Int64
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("hot-%d.slab.test.", rng.Intn(hot))
				if !answeredWith(Resolve(context.Background(), h, queryFor(name)), name) {
					wrong.Add(1)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			name := fmt.Sprintf("scan-%d.slab.test.", i)
			if !answeredWith(Resolve(context.Background(), h, queryFor(name)), name) {
				wrong.Add(1)
			}
		}
	}()
	wg.Wait()
	if n := wrong.Load(); n != 0 {
		t.Errorf("%d replies answered another name", n)
	}
	if st := cache.Stats(); st.Hits < rounds/4 || st.Evictions < rounds/4 {
		t.Errorf("cache stats %+v: want hits racing evictions", st)
	}
}

// TestSlabHashCollision: keys whose hashes collide share one index
// entry and chain through their slots; each is stored, served and
// removed on its own bytes. The hash is forced, white-box — three names
// with one 64-bit keyhash are not to be found.
func TestSlabHashCollision(t *testing.T) {
	cache := NewCache(&vclock.Fixed{})
	cache.init()
	sh := cache.shards[0]
	const h = 42
	names := []string{"one.collide.test.", "two.collide.test.", "three.collide.test."}
	reqs := make([]*Request, len(names))
	keys := make([][]byte, len(names))
	for i, name := range names {
		reqs[i] = queryFor(name)
		keys[i] = appendBaseKey(nil, reqs[i])
		image := upstreamImage(t, nameHandler(), reqs[i])
		img, err := dnswire.PatchOffsets(image, nil)
		if err != nil {
			t.Fatal(err)
		}
		sh.mu.Lock()
		sh.put(h, h, keys[i], image, &img, 0, 30*time.Second)
		sh.mu.Unlock()
	}
	check := func(live ...bool) {
		t.Helper()
		sieveOrder(t, sh)
		n := 0
		for i, name := range names {
			sink := &wireSink{}
			res := cache.serveHit(sh, h, keys[i], 0, sink, reqs[i])
			if res.hit != live[i] {
				t.Fatalf("%s: hit %v, want %v", name, res.hit, live[i])
			}
			if !res.hit {
				continue
			}
			n++
			var resp dnswire.Message
			if err := resp.Unpack(sink.wire); err != nil || !answeredWith(&resp, name) {
				t.Fatalf("%s: served %v (%v)", name, resp.Answers, err)
			}
		}
		if sh.n != n || n > 0 && len(sh.index) != 1 || n == 0 && len(sh.index) != 0 {
			t.Fatalf("%d entries under %d index keys, want %d under one", sh.n, len(sh.index), n)
		}
	}
	check(true, true, true)
	drop := func(i int) {
		t.Helper()
		j := sh.find(h, keys[i])
		if j == 0 {
			t.Fatalf("%s is not in the index", names[i])
		}
		sh.remove(j)
	}
	drop(1) // mid-chain: the newest, three, heads it
	check(true, false, true)
	drop(2) // the chain's head
	check(true, false, false)
	drop(0) // the last: the index key goes
	check(false, false, false)
}

// ownerSink is a wireSink that runs then before taking the reply.
type ownerSink struct {
	wireSink
	then func()
}

func (s *ownerSink) WriteWireOwned(buf []byte, n int) error {
	s.then()
	return s.wireSink.WriteWireOwned(buf, n)
}

// TestFlightAnswerOutlivesEviction: a query that joined a flight is
// answered from the flight's copy of the leader's answer, not from the
// slot the leader stored it in. The leader's own writer evicts that
// entry — and every other — and refills the slab before the leader
// returns; on one core the waiter wakes only then, to a slot holding
// another key.
func TestFlightAnswerOutlivesEviction(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const name = "x.flight.test."
	entered, release := make(chan struct{}), make(chan struct{})
	backend := HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		if r.Name() == name {
			entered <- struct{}{}
			<-release
		}
		return nameHandler().ServeDNS(ctx, w, r)
	})
	cache := NewCache(&vclock.Fixed{})
	cache.MaxEntries = 64
	h := Chain(cache, pluginize(backend))
	key := appendBaseKey(nil, queryFor(name))
	kh, sh := cache.locate(key)
	var slot int32
	leader := &ownerSink{then: func() {
		slot = sh.find(kh, key)
		for i := 0; i < 2*cache.MaxEntries; i++ {
			ResolveTo(context.Background(), h, &wireSink{}, queryFor(fmt.Sprintf("s%d.flight.test.", i)))
		}
	}}
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		ResolveTo(context.Background(), h, leader, queryFor(name))
	}()
	<-entered
	waiter := make(chan *dnswire.Message, 1)
	go func() { waiter <- Resolve(context.Background(), h, queryFor(name)) }()
	for deadline := time.Now().Add(5 * time.Second); cache.Stats().Coalesced < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the waiter never joined the flight")
		}
	}
	close(release)
	<-leaderDone
	if slot == 0 || sh.find(kh, key) != 0 || sh.slots[slot].klen == 0 {
		t.Fatalf("slot %d: the leader's entry was not evicted and its slot reused", slot)
	}
	if resp := <-waiter; !answeredWith(resp, name) {
		t.Fatalf("the waiter got %v, not the leader's answer", resp)
	}
	var resp dnswire.Message
	if err := resp.Unpack(leader.wire); err != nil || !answeredWith(&resp, name) {
		t.Fatalf("the leader got %v (%v)", resp.Answers, err)
	}
}

// TestServeStaleOwnKeyOnly: when a refill fails, RFC 8767 serve-stale
// answers with the expired entry the lookup passed — looked up again by
// its key, so if the entry was evicted meanwhile, and its slot given to
// another key, the failure is relayed instead of that key's bytes.
func TestServeStaleOwnKeyOnly(t *testing.T) {
	const name = "x.stale.test."
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	cache.MaxEntries = 64
	cache.MaxStale = time.Hour
	var failing atomic.Bool
	var during func()
	var h Handler
	backend := HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		if r.Name() == name && failing.Load() {
			if during != nil {
				during()
			}
			return dnswire.RcodeServerFailure, nil
		}
		return nameHandler().ServeDNS(ctx, w, r)
	})
	h = Chain(cache, pluginize(backend))
	if resp := Resolve(context.Background(), h, queryFor(name)); !answeredWith(resp, name) {
		t.Fatalf("fill: %v", resp)
	}
	clock.Time += time.Minute // past the 30 s TTL, inside MaxStale
	failing.Store(true)

	resp := Resolve(context.Background(), h, queryFor(name))
	if !answeredWith(resp, name) || resp.Answers[0].Header().TTL > staleTTL {
		t.Fatalf("failed refill: %v, want the stale answer", resp)
	}
	if st := cache.Stats(); st.StaleServes != 1 {
		t.Fatalf("stale serves %d, want 1", st.StaleServes)
	}

	key := appendBaseKey(nil, queryFor(name))
	kh, sh := cache.locate(key)
	slot := sh.find(kh, key)
	during = func() {
		for i := 0; i < 2*cache.MaxEntries; i++ {
			ResolveTo(context.Background(), h, &wireSink{}, queryFor(fmt.Sprintf("s%d.stale.test.", i)))
		}
	}
	resp = Resolve(context.Background(), h, queryFor(name))
	if slot == 0 || sh.find(kh, key) != 0 || sh.slots[slot].klen == 0 {
		t.Fatalf("slot %d: the stale entry was not evicted and its slot reused", slot)
	}
	if resp == nil || resp.Rcode != dnswire.RcodeServerFailure || len(resp.Answers) != 0 {
		t.Fatalf("failed refill of an evicted entry: %v, want the SERVFAIL relayed", resp)
	}
	if st := cache.Stats(); st.StaleServes != 1 {
		t.Errorf("stale serves %d, want still 1", st.StaleServes)
	}
}

// TestSlabLargeImage: an entry whose key and image need more than
// slotRetain bytes is stored and served whole in a buffer of its own,
// which leaves the slab with it: once it expires no slot keeps more than
// slotRetain, and the freed slot serves the next store.
func TestSlabLargeImage(t *testing.T) {
	const big = "big.slab.test."
	backend := HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		if r.Name() != big {
			return nameHandler().ServeDNS(ctx, w, r)
		}
		m := new(dnswire.Message)
		m.SetReply(r.Msg)
		for i := 0; i < 40; i++ {
			m.Answers = append(m.Answers, &dnswire.A{
				Hdr:  dnswire.RRHeader{Name: big, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 30},
				Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)}),
			})
		}
		return m.Rcode, w.WriteMsg(m)
	})
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	cache.MaxEntries = 64
	h := Chain(cache, pluginize(backend))
	miss := Resolve(context.Background(), h, queryFor(big))
	hit := Resolve(context.Background(), h, queryFor(big))
	if miss == nil || hit == nil || len(hit.Answers) != 40 || fmt.Sprint(hit.Answers) != fmt.Sprint(miss.Answers) {
		t.Fatalf("the hit answers %v, the miss %v", hit, miss)
	}
	if st := cache.Stats(); st.Hits != 1 {
		t.Fatalf("cache stats %+v: want the second query to hit", st)
	}
	key := appendBaseKey(nil, queryFor(big))
	kh, sh := cache.locate(key)
	slot := sh.find(kh, key)
	if slot == 0 || cap(sh.slots[slot].buf) <= slotRetain {
		t.Fatalf("slot %d: the large entry is not stored whole", slot)
	}
	clock.Time += time.Minute
	if res := cache.serveHit(sh, kh, key, clock.Now(), &wireSink{}, queryFor(big)); res.hit || sh.find(kh, key) != 0 {
		t.Fatal("the expired large entry is still stored")
	}
	for i := range sh.slots {
		if c := cap(sh.slots[i].buf); c > slotRetain {
			t.Errorf("slot %d keeps %d bytes, more than %d", i, c, slotRetain)
		}
	}
	const small = "small.slab.test."
	if resp := Resolve(context.Background(), h, queryFor(small)); !answeredWith(resp, small) || sh.slots[slot].klen == 0 {
		t.Errorf("the freed slot %d does not take the next store: %v", slot, resp)
	}
}

// The oracle the cache's one serve routine is held to:
// decode → restamp → age → echo → repack, on a decoded Message.
// Production code never edits a decoded response; the reference lives
// in test code only.

// patchECSEcho rewrites the ECS echo of a decoded cached response for
// the query q: Address, SourcePrefix, and Family mirror the query per
// RFC 7871 §7.2.1, while ScopePrefix keeps the stored answer's scope.
func patchECSEcho(msg, q *dnswire.Message) {
	qecs, ok := q.ECS()
	if !ok {
		return
	}
	recs, ok := msg.ECS()
	if !ok {
		return
	}
	*recs = qecs.Echo(recs.ScopePrefix) // what the client sent, before ClampSource
}

// patchOPT gives a decoded cached response an OPT record exactly when
// the query q has one (RFC 6891 §7): a bare one advertising
// DefaultEDNSSize if it had none, and none if q has none.
func patchOPT(msg, q *dnswire.Message) {
	if _, ok := q.OPT(); ok {
		if _, has := msg.OPT(); !has {
			msg.SetEDNS(dnswire.DefaultEDNSSize)
		}
		return
	}
	msg.Additionals = slices.DeleteFunc(msg.Additionals, func(rr dnswire.RR) bool { return rr.Header().Type == dnswire.TypeOPT })
}

// oracleReply is the reference reply to q from a stored response image:
// decode it, restamp ID, the question's spelling and the RD/CD mirror
// bits, rewrite the ECS echo, age every non-OPT TTL (or, stale, clamp it
// down to staleTTL), and repack.
func oracleReply(stored []byte, q *dnswire.Message, age uint32, stale bool) ([]byte, error) {
	var msg dnswire.Message
	if err := msg.Unpack(stored); err != nil {
		return nil, err
	}
	msg.ID = q.ID
	if len(msg.Questions) > 0 && strings.EqualFold(msg.Questions[0].Name, q.Question().Name) {
		msg.Questions[0].Name = q.Question().Name
	}
	msg.RecursionDesired = q.RecursionDesired
	msg.CheckingDisabled = q.CheckingDisabled
	patchOPT(&msg, q)
	patchECSEcho(&msg, q)
	for _, section := range [][]dnswire.RR{msg.Answers, msg.Authorities, msg.Additionals} {
		for _, rr := range section {
			h := rr.Header()
			switch {
			case h.Type == dnswire.TypeOPT:
			case stale:
				h.TTL = min(h.TTL, staleTTL)
			case h.TTL > age:
				h.TTL -= age
			default:
				h.TTL = 0
			}
		}
	}
	return msg.Pack()
}

// effectiveTTL is the reference for the lifetime store reads off the
// bytes: the minimum answer TTL for positive answers, or the SOA MinTTL
// rule of RFC 2308 for negative ones. Server failures are not cached.
func effectiveTTL(msg *dnswire.Message) time.Duration {
	switch msg.Rcode {
	case dnswire.RcodeSuccess, dnswire.RcodeNameError:
	default:
		return 0
	}
	if len(msg.Answers) > 0 {
		min := uint32(1<<32 - 1)
		for _, rr := range msg.Answers {
			if rr.Header().Type == dnswire.TypeOPT {
				continue
			}
			if rr.Header().TTL < min {
				min = rr.Header().TTL
			}
		}
		return time.Duration(min) * time.Second
	}
	for _, rr := range msg.Authorities {
		if soa, ok := rr.(*dnswire.SOA); ok {
			ttl := soa.Hdr.TTL
			if soa.MinTTL < ttl {
				ttl = soa.MinTTL
			}
			return time.Duration(ttl) * time.Second
		}
	}
	return 0
}

// upstreamImage packs what h answers req with — the image a cache in
// front of h stores.
func upstreamImage(t *testing.T, h Handler, req *Request) []byte {
	t.Helper()
	wire, err := Resolve(context.Background(), h, req).Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// storeImage stores image as the answer to req, walked as a miss's fill
// walks it, and reports whether the walk accepted it.
func storeImage(c *Cache, req *Request, image []byte) bool {
	img, err := dnswire.PatchOffsets(image, nil)
	if err != nil {
		return false
	}
	c.store(req, image, &img)
	return true
}

// fuzzQuery builds the query side of one FuzzHitPatch case. The bits
// of id also pick which letters of the name are upper case, as a 0x20
// client's would be. mode picks no OPT, OPT only, ECS over IPv4 or ECS
// over IPv6; source is reduced to the family's width, so 0 and
// non-octet-aligned lengths all occur.
func fuzzQuery(id uint16, rd, cd bool, mode, source uint8, addr []byte) *Request {
	q := new(dnswire.Message)
	q.SetQuestion("fuzz.test.", dnswire.TypeA)
	name := []byte(q.Questions[0].Name)
	for i, c := range name {
		if id>>i&1 == 1 && 'a' <= c && c <= 'z' {
			name[i] = c - 'a' + 'A'
		}
	}
	q.Questions[0].Name = string(name)
	q.ID, q.RecursionDesired, q.CheckingDisabled = id, rd, cd
	var a16 [16]byte
	copy(a16[:], addr)
	switch mode % 4 {
	case 1:
		q.SetEDNS(1232)
	case 2:
		opt := q.SetEDNS(1232)
		opt.Options = append(opt.Options, &dnswire.ECSOption{
			Family: 1, SourcePrefix: source % 33, Address: netip.AddrFrom4([4]byte(a16[:4])),
		})
	case 3:
		opt := q.SetEDNS(1232)
		opt.Options = append(opt.Options, &dnswire.ECSOption{
			Family: 2, SourcePrefix: source % 129, Address: netip.AddrFrom16(a16),
		})
	}
	req := &Request{Msg: q, Client: netip.MustParseAddrPort("198.51.100.7:4242"), Transport: "test"}
	normalizeQueryECS(req) // as ResolveTo does before any plugin runs
	return req
}

// FuzzHitPatch is the differential test of the one stored form. An
// arbitrary well-formed response is stored twice — the image as it
// arrived, which is what Stub and Forward relay, and its decode → Pack,
// which is what a miss's replyImage keeps of a chain that answered with
// a Message — and for a query with any ID, RD/CD and OPT/ECS shape:
//
//   - both entries carry the key, rcode and lifetime the decoded message
//     dictates (the effectiveTTL oracle);
//   - the bytes Cache.reply emits from the packed one — aged by
//     0/1/30/2^20 seconds, or stale-clamped — equal the oracle's, and a
//     writer that cannot take bytes is handed a message that packs to
//     the very same bytes;
//   - the bytes it emits from the arrived one decode to that same
//     message (its compression is the upstream's, so they are compared
//     repacked).
func FuzzHitPatch(f *testing.F) {
	seed := func(build func(m *dnswire.Message)) []byte {
		m := new(dnswire.Message)
		m.SetQuestion("fuzz.test.", dnswire.TypeA)
		m.Response = true
		m.Answers = []dnswire.RR{
			&dnswire.CNAME{Hdr: dnswire.RRHeader{Name: "fuzz.test.", Type: dnswire.TypeCNAME, Class: dnswire.ClassINET, TTL: 300}, Target: "pop.fuzz.test."},
			&dnswire.A{Hdr: dnswire.RRHeader{Name: "pop.fuzz.test.", Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 20}, Addr: netip.MustParseAddr("192.0.2.9")},
		}
		build(m)
		wire, err := m.Pack()
		if err != nil {
			f.Fatal(err)
		}
		return wire
	}
	plain := seed(func(*dnswire.Message) {})
	optOnly := seed(func(m *dnswire.Message) { m.SetEDNS(1232) })
	ecs4 := seed(func(m *dnswire.Message) {
		opt := m.SetEDNS(1232)
		opt.Options = append(opt.Options,
			&dnswire.GenericOption{OptCode: dnswire.OptionCodeCookie, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
			&dnswire.ECSOption{Family: 1, SourcePrefix: 24, ScopePrefix: 16, Address: netip.MustParseAddr("10.1.1.0")},
			&dnswire.GenericOption{OptCode: dnswire.OptionCodePadding, Data: make([]byte, 5)})
	})
	ecs6 := seed(func(m *dnswire.Message) {
		opt := m.SetEDNS(1232)
		opt.Options = append(opt.Options,
			&dnswire.ECSOption{Family: 2, SourcePrefix: 56, ScopePrefix: 48, Address: netip.MustParseAddr("2001:db8:7::")})
	})
	negative := seed(func(m *dnswire.Message) {
		m.Rcode, m.Answers = dnswire.RcodeNameError, nil
		m.Authorities = []dnswire.RR{&dnswire.SOA{Hdr: dnswire.RRHeader{Name: "test.", Type: dnswire.TypeSOA, Class: dnswire.ClassINET, TTL: 900},
			NS: "ns.test.", Mbox: "admin.test.", MinTTL: 60}}
	})
	// An upstream that does not compress, and answers in upper case.
	uncompressed := []byte{0, 0, 0x84, 0, 0, 1, 0, 1, 0, 0, 0, 0,
		4, 'f', 'u', 'z', 'z', 4, 't', 'e', 's', 't', 0, 0, 1, 0, 1,
		4, 'F', 'U', 'Z', 'Z', 4, 'T', 'E', 'S', 'T', 0, 0, 1, 0, 1, 0, 0, 0, 77, 0, 4, 192, 0, 2, 9}
	addr := []byte{10, 1, 2, 255, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5, 6, 7, 8}
	for _, resp := range [][]byte{plain, optOnly, ecs4, ecs6, negative, uncompressed} {
		for mode := uint8(0); mode < 4; mode++ {
			f.Add(resp, uint16(0x7a7a), mode&1 == 0, mode&2 == 0, mode, uint8(23), addr)
		}
	}
	f.Add(ecs4, uint16(1), true, false, uint8(2), uint8(0), addr)
	f.Add(ecs4, uint16(2), false, true, uint8(3), uint8(128), addr)

	f.Fuzz(func(t *testing.T, data []byte, id uint16, rd, cd bool, mode, source uint8, addr []byte) {
		var resp dnswire.Message
		if err := resp.Unpack(data); err != nil {
			return
		}
		req := fuzzQuery(id, rd, cd, mode, source, addr)
		// stored is one image as the cache holds it: walked, and stored
		// into a cache of its own.
		type stored struct {
			image []byte
			img   dnswire.Image
			key   string
		}
		walk := func(image []byte) *stored {
			img, err := dnswire.PatchOffsets(image, nil)
			if err != nil {
				return nil // an OPT that is not last: never cached
			}
			cache := NewCache(&vclock.Fixed{})
			cache.store(req, image, &img)
			st := &stored{image: image, img: img}
			life := min(effectiveTTL(&resp), maxTTL)
			var live []*cacheSlot
			for _, sh := range cache.shards {
				for i := range sh.slots[1:] {
					if s := &sh.slots[1+i]; s.klen != 0 {
						live = append(live, s)
					}
				}
			}
			switch {
			case img.Rcode != resp.Rcode:
				t.Fatalf("walked rcode %v, the message says %v", img.Rcode, resp.Rcode)
			case life <= 0 && len(live) != 0:
				t.Fatalf("%d entries stored for a response with no lifetime", len(live))
			case life > 0 && len(live) != 1:
				t.Fatalf("%d entries stored, want 1", len(live))
			case life > 0 && (live[0].expires-live[0].stored != life || live[0].at.rcode != resp.Rcode || !bytes.Equal(live[0].image(), image)):
				t.Fatalf("stored rcode %v for %v, the message says %v for %v", live[0].at.rcode, live[0].expires-live[0].stored, resp.Rcode, life)
			case life > 0:
				st.key = string(live[0].key())
			}
			return st
		}
		arrived := walk(data)
		var packed *stored
		if wire, err := resp.Pack(); err == nil {
			packed = walk(wire)
		}
		if arrived != nil && packed != nil && arrived.key != packed.key {
			t.Fatalf("the arrived image is keyed %q, its repack %q", arrived.key, packed.key)
		}
		cache := NewCache(&vclock.Fixed{})
		replyFrom := func(w ResponseWriter, st *stored, age uint32, stale bool) error {
			buf, n := stamp(st.image, st.img.TTLs, age, stale)
			_, err := cache.reply(w, req, buf, n, imageAt{ecs: st.img.ECS, opt: st.img.OPT, rcode: st.img.Rcode})
			return err
		}
		type replyCase struct {
			age   uint32
			stale bool
		}
		for _, c := range []replyCase{{age: 0}, {age: 1}, {age: 30}, {age: 1 << 20}, {stale: true}} {
			sink := &wireSink{}
			var want []byte
			if packed != nil {
				var oerr error
				want, oerr = oracleReply(packed.image, req.Msg, c.age, c.stale)
				err := replyFrom(sink, packed, c.age, c.stale)
				if oerr != nil {
					if err == nil {
						t.Fatalf("%+v: reply succeeded where the oracle fails: %v", c, oerr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%+v: reply failed: %v", c, err)
				}
				if sink.msg != nil || !bytes.Equal(sink.wire, want) {
					t.Fatalf("%+v: reply != decode-restamp-repack oracle (WriteMsg used: %v):\n% x\n% x",
						c, sink.msg != nil, sink.wire, want)
				}
				// The decode boundary hands over that same image.
				rec := &msgWriter{}
				if err := replyFrom(rec, packed, c.age, c.stale); err != nil {
					t.Fatalf("%+v: reply to a message writer failed: %v", c, err)
				}
				if got, err := rec.msg.Pack(); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%+v: decoded reply repacks differently (%v):\n% x\n% x", c, err, got, want)
				}
			}
			if arrived == nil || want == nil {
				continue
			}
			if err := replyFrom(sink, arrived, c.age, c.stale); err != nil {
				t.Fatalf("%+v: reply from the arrived image failed: %v", c, err)
			}
			var got dnswire.Message
			if err := got.Unpack(sink.wire); err != nil {
				t.Fatalf("%+v: reply from the arrived image does not unpack: %v\n% x", c, err, sink.wire)
			}
			if repacked, err := got.Pack(); err != nil || !bytes.Equal(repacked, want) {
				t.Fatalf("%+v: the arrived image answers differently from its repack (%v):\n% x\n% x", c, err, repacked, want)
			}
		}
	})
}

// TestCacheEchoesQuestionCase: a reply from the cache spells the
// question as its own query did, not as the query that filled the entry
// did. A client that randomizes the letter case of its names (DNS 0x20,
// e.g. Unbound's use-caps-for-id) drops a reply whose question differs
// from its query's by a single octet.
func TestCacheEchoesQuestionCase(t *testing.T) {
	zone := NewZone("example.test.")
	if err := zone.AddA("www.example.test.", 60, netip.MustParseAddr("192.0.2.1")); err != nil {
		t.Fatal(err)
	}
	cache := NewCache(&vclock.Fixed{})
	chain := Chain(cache, NewZonePlugin(zone))
	st := &serveScratch{intern: dnswire.NewNameIntern(0)}
	client := netip.MustParseAddrPort("198.51.100.7:4242")
	for i, name := range []string{"WwW.example.test.", "www.example.test.", "wWw.EXAMPLE.test.", "WwW.example.test."} {
		for _, q := range []*dnswire.Message{queryFor(name).Msg, queryFor(name, "10.1.2.0/24").Msg} {
			q.ID, q.Questions[0].Name = uint16(i), name // SetQuestion lower-cases
			pkt, err := q.Pack()
			if err != nil {
				t.Fatal(err)
			}
			buf, n := serveQuery(context.Background(), chain, nil, st, pkt, client, "udp", maxUDPPayload)
			if buf == nil {
				t.Fatalf("%s: no reply", name)
			}
			end := 12 + len(name) + 1 // the question name, never compressed
			if n < end || !bytes.Equal(buf[12:end], pkt[12:end]) {
				t.Errorf("%s: reply's question is %q, the query's %q", name, buf[12:min(n, end)], pkt[12:end])
			}
			var resp dnswire.Message
			if err := resp.Unpack(buf[:n]); err != nil || len(resp.Answers) != 1 {
				t.Fatalf("%s: reply %v, %d answers", name, err, len(resp.Answers))
			}
			dnswire.PutBuffer(buf)
		}
	}
	if st := cache.Stats(); st.Hits != 6 || st.Misses != 2 {
		t.Errorf("cache stats %+v: want the first plain and ECS query to miss and the rest to hit", st)
	}
}

// TestECSHitAllocatesLikePlainHit pins the point of the single serve
// path: with a pre-parsed request, a wire-taking writer and telemetry
// off, an ECS hit allocates exactly what a plain hit does — nothing.
func TestECSHitAllocatesLikePlainHit(t *testing.T) {
	cache := NewCache(&vclock.Fixed{})
	h := Chain(cache, pluginize(ecsAnswerHandler("192.0.2.9", 16)))
	plain, ecs := queryFor("alloc.test."), queryFor("alloc.test.", "10.1.2.0/24")
	Resolve(context.Background(), h, queryFor("alloc.test."))
	Resolve(context.Background(), h, queryFor("alloc.test.", "10.1.1.0/24")) // sibling: scoped hit below

	sink := &wireSink{wire: make([]byte, 0, 512)}
	measure := func(req *Request) float64 {
		return testing.AllocsPerRun(200, func() {
			sink.written = false
			if rcode := ResolveTo(context.Background(), h, sink, req); rcode != dnswire.RcodeSuccess {
				t.Fatalf("rcode = %v", rcode)
			}
		})
	}
	plainAllocs, ecsAllocs := measure(plain), measure(ecs)
	if sink.msg != nil {
		t.Fatal("a hit went through WriteMsg")
	}
	if plainAllocs != 0 || ecsAllocs != plainAllocs {
		t.Errorf("allocs per hit: plain %v, ECS %v; want 0 and 0", plainAllocs, ecsAllocs)
	}
	if st := cache.Stats(); st.Misses != 2 {
		t.Errorf("misses = %d, want only the two warm-ups", st.Misses)
	}
}

// TestStoreAllocBudget: storing a one-answer image into a warm slab —
// the cache full, so every store evicts an entry and takes over its
// slot, buffers and all — allocates nothing, whether the answer keys the
// entry as the miss resolved it or under a key of its own. Nothing is
// decoded, the walk's TTL offsets are the caller's, and no key string is
// built.
func TestStoreAllocBudget(t *testing.T) {
	// A new name, so a new key at either scope, each time: one name's
	// new keys stop being stored at maxScopes.
	reqs := make([]*Request, 4*64+1001) // the warm-up, then AllocsPerRun's 1000 runs and its first
	for i := range reqs {
		reqs[i] = queryFor(fmt.Sprintf("n%d.alloc.test.", i), "10.1.2.0/24")
	}
	for _, c := range []struct {
		name  string
		scope uint8
	}{{"a key of its own", 16}, {"the flight's key", 24}} {
		image := upstreamImage(t, ecsAnswerHandler("192.0.2.9", c.scope), reqs[0])
		img, err := dnswire.PatchOffsets(image, nil)
		if err != nil {
			t.Fatal(err)
		}
		cache := NewCache(&vclock.Fixed{})
		cache.MaxEntries = 64
		i := 0
		store := func() {
			cache.store(reqs[i], image, &img)
			i++
		}
		for i < 4*cache.MaxEntries {
			store()
		}
		if allocs := testing.AllocsPerRun(1000, store); allocs != 0 {
			t.Errorf("%s: a store into a warm slab allocates %v times, want 0", c.name, allocs)
		}
		if st := cache.Stats(); st.Entries != 64 || st.Evictions < 1000 {
			t.Errorf("%s: cache stats %+v: every store should have evicted", c.name, st)
		}
	}
}

func TestPrefetchKeepsItsOwnECS(t *testing.T) {
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	cache.PrefetchFrac = 0.5
	release := make(chan struct{})
	seen := make(chan netip.Prefix, 1)
	var calls atomic.Int32
	answer := ecsAnswerHandler("192.0.2.9", 24)
	backend := HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		if r.Name() == "pf.test." && calls.Add(1) == 2 { // the prefetch
			<-release
			ecs, ok := r.Msg.ECS()
			if !ok {
				seen <- netip.Prefix{}
			} else {
				seen <- ecs.Prefix()
			}
		}
		return answer.ServeDNS(ctx, w, r)
	})
	h := Chain(cache, pluginize(backend))
	st := &serveScratch{intern: dnswire.NewNameIntern(0)}
	serve := func(pkt []byte) {
		buf, _ := serveQuery(context.Background(), h, nil, st, pkt, testClient, "udp", maxUDPPayload)
		if buf == nil {
			t.Fatal("no reply")
		}
		dnswire.PutBuffer(buf)
	}

	own := mustPack(t, queryFor("pf.test.", ownSubnet.String()).Msg)
	serve(own)                     // the miss that stores a 30 s answer
	clock.Time += 20 * time.Second // into the refresh-ahead window
	serve(own)                     // a hit, and the prefetch behind it
	serve(mustPack(t, queryFor("next.test.", nextSubnet.String()).Msg))
	close(release)
	select {
	case got := <-seen:
		if got != ownSubnet {
			t.Errorf("the prefetch asked with ECS %v, want its own query's %v", got, ownSubnet)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the prefetch never asked the backend for its own name")
	}
	waitFor(t, 2*time.Second, func() bool { return cache.Stats().PrefetchIssued == 1 && calls.Load() == 2 })
}
