package dnsserver

// Tests for the resolution hot path hardening: sharded singleflight
// cache, rcode-aware upstream failover with health cooldowns, hedged
// queries, the token-bucket load shedder, and the Stub route-table
// race regression. Run with -race.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnsclient"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/vclock"
)

// scriptTransport is a dnsclient.Transport whose behaviour is scripted
// per upstream address: an answer address, a failure rcode, a
// transport error, or a delay (honouring context cancellation).
type scriptTransport struct {
	mu     sync.Mutex
	calls  map[netip.AddrPort]int
	answer map[netip.AddrPort]netip.Addr
	rcode  map[netip.AddrPort]dnswire.Rcode
	fail   map[netip.AddrPort]error
	delay  map[netip.AddrPort]time.Duration
}

func newScriptTransport() *scriptTransport {
	return &scriptTransport{
		calls:  make(map[netip.AddrPort]int),
		answer: make(map[netip.AddrPort]netip.Addr),
		rcode:  make(map[netip.AddrPort]dnswire.Rcode),
		fail:   make(map[netip.AddrPort]error),
		delay:  make(map[netip.AddrPort]time.Duration),
	}
}

func (t *scriptTransport) callCount(server netip.AddrPort) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.calls[server]
}

func (t *scriptTransport) Exchange(ctx context.Context, server netip.AddrPort, query []byte, tcp bool) ([]byte, error) {
	t.mu.Lock()
	t.calls[server]++
	delay := t.delay[server]
	failErr := t.fail[server]
	rcode := t.rcode[server]
	addr, hasAnswer := t.answer[server]
	t.mu.Unlock()

	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if failErr != nil {
		return nil, failErr
	}
	q := new(dnswire.Message)
	if err := q.Unpack(query); err != nil {
		return nil, err
	}
	m := new(dnswire.Message)
	if rcode != dnswire.RcodeSuccess {
		m.SetRcode(q, rcode)
	} else {
		m.SetReply(q)
		if hasAnswer {
			m.Answers = []dnswire.RR{&dnswire.A{
				Hdr:  dnswire.RRHeader{Name: q.Question().Name, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 30},
				Addr: addr,
			}}
		}
	}
	return m.Pack()
}

func scriptClient(t *scriptTransport) *dnsclient.Client {
	return &dnsclient.Client{Transport: t, Timeout: 2 * time.Second}
}

var (
	upA = netip.MustParseAddrPort("192.0.2.10:53")
	upB = netip.MustParseAddrPort("192.0.2.20:53")
)

// TestForwardServfailFailover is the two-upstream SERVFAIL→NOERROR
// case: the first upstream's SERVFAIL must not be relayed while a
// second upstream can still answer.
func TestForwardServfailFailover(t *testing.T) {
	tr := newScriptTransport()
	tr.rcode[upA] = dnswire.RcodeServerFailure
	tr.answer[upB] = netip.MustParseAddr("203.0.113.2")

	fwd := &Forward{Upstreams: []netip.AddrPort{upA, upB}, Client: scriptClient(tr), Clock: &vclock.Fixed{}}
	resp := Resolve(context.Background(), Chain(fwd), queryFor("fo.test."))
	if resp.Rcode != dnswire.RcodeSuccess || len(resp.Answers) != 1 {
		t.Fatalf("rcode=%v answers=%d, want NOERROR from second upstream", resp.Rcode, len(resp.Answers))
	}
	if got := resp.Answers[0].(*dnswire.A).Addr.String(); got != "203.0.113.2" {
		t.Errorf("answer from %s, want 203.0.113.2", got)
	}
	if tr.callCount(upA) != 1 || tr.callCount(upB) != 1 {
		t.Errorf("calls = %d/%d, want 1/1", tr.callCount(upA), tr.callCount(upB))
	}
	if s := fwd.Stats(); s.Failovers != 1 {
		t.Errorf("failovers = %d, want 1", s.Failovers)
	}
}

// TestForwardRefusedFailover: REFUSED triggers failover too.
func TestForwardRefusedFailover(t *testing.T) {
	tr := newScriptTransport()
	tr.rcode[upA] = dnswire.RcodeRefused
	tr.answer[upB] = netip.MustParseAddr("203.0.113.3")

	fwd := &Forward{Upstreams: []netip.AddrPort{upA, upB}, Client: scriptClient(tr), Clock: &vclock.Fixed{}}
	resp := Resolve(context.Background(), Chain(fwd), queryFor("ref.test."))
	if resp.Rcode != dnswire.RcodeSuccess {
		t.Fatalf("rcode = %v", resp.Rcode)
	}
}

// TestForwardAllFailRelaysLastVerdict: when every upstream answers
// SERVFAIL, the client sees the upstream's SERVFAIL (not a synthesized
// one from a forwarding error).
func TestForwardAllFailRelaysLastVerdict(t *testing.T) {
	tr := newScriptTransport()
	tr.rcode[upA] = dnswire.RcodeServerFailure
	tr.rcode[upB] = dnswire.RcodeServerFailure

	fwd := &Forward{Upstreams: []netip.AddrPort{upA, upB}, Client: scriptClient(tr), Clock: &vclock.Fixed{}}
	resp := Resolve(context.Background(), Chain(fwd), queryFor("down.test."))
	if resp.Rcode != dnswire.RcodeServerFailure {
		t.Fatalf("rcode = %v", resp.Rcode)
	}
	if tr.callCount(upA) != 1 || tr.callCount(upB) != 1 {
		t.Errorf("calls = %d/%d, want both tried", tr.callCount(upA), tr.callCount(upB))
	}
}

// TestForwardCooldownSkipsDeadUpstream: after FailureThreshold
// consecutive failures the dead upstream sits out its cooldown window
// and is retried afterwards.
func TestForwardCooldownSkipsDeadUpstream(t *testing.T) {
	tr := newScriptTransport()
	tr.fail[upA] = errors.New("connection refused")
	tr.answer[upB] = netip.MustParseAddr("203.0.113.4")

	clock := &vclock.Fixed{}
	fwd := &Forward{
		Upstreams:        []netip.AddrPort{upA, upB},
		Client:           scriptClient(tr),
		Clock:            clock,
		FailureThreshold: 2,
		Cooldown:         10 * time.Second,
	}
	h := Chain(fwd)
	// Two queries fail over from A, tripping its cooldown.
	for i := 0; i < 2; i++ {
		if resp := Resolve(context.Background(), h, queryFor("cd.test.")); resp.Rcode != dnswire.RcodeSuccess {
			t.Fatalf("query %d rcode = %v", i, resp.Rcode)
		}
	}
	if tr.callCount(upA) != 2 {
		t.Fatalf("upstream A calls = %d, want 2", tr.callCount(upA))
	}
	// In cooldown: A must be skipped entirely.
	Resolve(context.Background(), h, queryFor("cd.test."))
	if tr.callCount(upA) != 2 {
		t.Errorf("dead upstream queried during cooldown (calls=%d)", tr.callCount(upA))
	}
	if s := fwd.Stats(); s.Skipped == 0 {
		t.Error("no skip recorded")
	}
	// Past the cooldown: A is retried again.
	clock.Advance(11 * time.Second)
	Resolve(context.Background(), h, queryFor("cd.test."))
	if tr.callCount(upA) != 3 {
		t.Errorf("upstream A not retried after cooldown (calls=%d)", tr.callCount(upA))
	}
}

// TestForwardHedgeWins: a slow primary is overtaken by the hedged
// second query after HedgeDelay.
func TestForwardHedgeWins(t *testing.T) {
	tr := newScriptTransport()
	tr.answer[upA] = netip.MustParseAddr("203.0.113.1")
	tr.delay[upA] = 500 * time.Millisecond
	tr.answer[upB] = netip.MustParseAddr("203.0.113.2")

	fwd := &Forward{
		Upstreams:  []netip.AddrPort{upA, upB},
		Client:     scriptClient(tr),
		Clock:      &vclock.Fixed{},
		HedgeDelay: 5 * time.Millisecond,
	}
	start := time.Now()
	resp := Resolve(context.Background(), Chain(fwd), queryFor("hedge.test."))
	if got := resp.Answers[0].(*dnswire.A).Addr.String(); got != "203.0.113.2" {
		t.Errorf("answer from %s, want the hedge's 203.0.113.2", got)
	}
	if elapsed := time.Since(start); elapsed > 400*time.Millisecond {
		t.Errorf("hedged query took %v, not faster than the slow primary", elapsed)
	}
	s := fwd.Stats()
	if s.Hedged != 1 || s.HedgeWins != 1 {
		t.Errorf("hedged=%d hedgeWins=%d, want 1/1", s.Hedged, s.HedgeWins)
	}
}

// TestForwardHedgePrimaryWins: a fast primary answers before the
// hedge timer, so no second query is sent.
func TestForwardHedgePrimaryWins(t *testing.T) {
	tr := newScriptTransport()
	tr.answer[upA] = netip.MustParseAddr("203.0.113.1")
	tr.answer[upB] = netip.MustParseAddr("203.0.113.2")

	fwd := &Forward{
		Upstreams:  []netip.AddrPort{upA, upB},
		Client:     scriptClient(tr),
		Clock:      &vclock.Fixed{},
		HedgeDelay: time.Second,
	}
	resp := Resolve(context.Background(), Chain(fwd), queryFor("fast.test."))
	if got := resp.Answers[0].(*dnswire.A).Addr.String(); got != "203.0.113.1" {
		t.Errorf("answer from %s, want the primary's 203.0.113.1", got)
	}
	s := fwd.Stats()
	if s.Hedged != 0 {
		t.Errorf("hedge launched despite fast primary (hedged=%d)", s.Hedged)
	}
	if tr.callCount(upB) != 0 {
		t.Errorf("secondary queried %d times, want 0", tr.callCount(upB))
	}
}

// TestForwardHedgeFailedPrimaryFailsOverEarly: when the primary fails
// before the hedge delay elapses, the hedge is launched immediately.
func TestForwardHedgeFailedPrimaryFailsOverEarly(t *testing.T) {
	tr := newScriptTransport()
	tr.fail[upA] = errors.New("unreachable")
	tr.answer[upB] = netip.MustParseAddr("203.0.113.2")

	fwd := &Forward{
		Upstreams:  []netip.AddrPort{upA, upB},
		Client:     scriptClient(tr),
		Clock:      &vclock.Fixed{},
		HedgeDelay: 10 * time.Second, // must not wait this long
	}
	start := time.Now()
	resp := Resolve(context.Background(), Chain(fwd), queryFor("early.test."))
	if resp.Rcode != dnswire.RcodeSuccess {
		t.Fatalf("rcode = %v", resp.Rcode)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("early failover took %v, appears to have waited out the hedge delay", elapsed)
	}
}

// TestForwardHedgeLoserReturnsAtOnce: over real sockets, the exchange
// that lost a hedged race must not sit in its read until the attempt
// timeout. hedgedExchange cancels it on return; the transport wakes
// the read and closes the socket, so the goroutine and the socket are
// both gone within 50 ms, seconds before the 3 s timeout.
func TestForwardHedgeLoserReturnsAtOnce(t *testing.T) {
	silent, err := net.ListenUDP("udp", net.UDPAddrFromAddrPort(netip.MustParseAddrPort("127.0.0.1:0")))
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close() // bound, never read: queries to it go unanswered
	primary := silent.LocalAddr().(*net.UDPAddr).AddrPort()
	secondary := startTestServer(t, answerHandler("203.0.113.2"))

	tr := &dnsclient.NetTransport{}
	defer tr.Close()
	fwd := &Forward{
		Upstreams:  []netip.AddrPort{primary, secondary},
		Client:     &dnsclient.Client{Transport: tr, Timeout: 3 * time.Second, Retries: 1},
		HedgeDelay: 5 * time.Millisecond,
	}
	before := runtime.NumGoroutine()
	resp := Resolve(context.Background(), Chain(fwd), queryFor("loser.test."))
	if len(resp.Answers) != 1 || resp.Answers[0].(*dnswire.A).Addr.String() != "203.0.113.2" {
		t.Fatalf("answers = %v, want the hedge's 203.0.113.2", resp.Answers)
	}
	returned := time.Now()
	inUse := func() uint64 {
		st := tr.Stats()
		return st.Dialed - st.Discarded - uint64(st.Idle)
	}
	for runtime.NumGoroutine() > before || inUse() != 0 {
		if time.Since(returned) > 50*time.Millisecond {
			t.Fatalf("50ms after the hedged win: %d goroutines (%d before), %d sockets in use",
				runtime.NumGoroutine(), before, inUse())
		}
		time.Sleep(time.Millisecond)
	}
	// The loser's socket was closed with its query outstanding; the
	// winner's went back to the pool.
	if st := tr.Stats(); st.Dialed != 2 || st.Discarded != 1 || st.Idle != 1 {
		t.Errorf("socket stats = %+v, want 2 dialed, 1 discarded, 1 idle", st)
	}
}

// TestStubRouteRace is the regression test for the unguarded
// Stub.routes map: live Route/Unroute must not race query serving.
// Run with -race; the pre-fix Stub crashes with a concurrent map
// read/write fault here.
func TestStubRouteRace(t *testing.T) {
	tr := newScriptTransport()
	tr.answer[upA] = netip.MustParseAddr("203.0.113.9")
	stub := NewStub(scriptClient(tr))
	stub.Clock = &vclock.Fixed{}
	stub.Route("race.test.", upA)
	other := &countingPlugin{h: answerHandler("192.0.2.1")}
	h := Chain(stub, other)

	done := make(chan struct{})
	var mutator sync.WaitGroup
	mutator.Add(1)
	go func() {
		defer mutator.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if i%2 == 0 {
				stub.Route("race.test.", upA)
				stub.Route(fmt.Sprintf("tenant-%d.race.test.", i%8), upA)
			} else {
				stub.Unroute(fmt.Sprintf("tenant-%d.race.test.", (i-1)%8))
			}
		}
	}()
	var resolvers sync.WaitGroup
	for w := 0; w < 4; w++ {
		resolvers.Add(1)
		go func() {
			defer resolvers.Done()
			for i := 0; i < 500; i++ {
				Resolve(context.Background(), h, queryFor(fmt.Sprintf("q%d.race.test.", i%16)))
			}
		}()
	}
	resolvers.Wait()
	close(done)
	mutator.Wait()
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
	clock.Advance(31 * time.Second)
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

// TestCacheShardAutoSizing: tiny caches collapse to one shard so LRU
// stays exact; big caches keep the configured shard count.
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

// TestClientDoLeavesQueryUntouched: Do must operate on its own copy —
// no ID assignment, no EDNS attachment visible to the caller.
func TestClientDoLeavesQueryUntouched(t *testing.T) {
	tr := newScriptTransport()
	tr.answer[upA] = netip.MustParseAddr("203.0.113.7")
	c := &dnsclient.Client{Transport: tr, UDPSize: 1232, Timeout: time.Second}

	q := new(dnswire.Message)
	q.SetQuestion("immutable.test.", dnswire.TypeA)
	if _, err := c.Do(context.Background(), upA, q); err != nil {
		t.Fatal(err)
	}
	if q.ID != 0 {
		t.Errorf("caller's query ID mutated to %d", q.ID)
	}
	if _, ok := q.OPT(); ok {
		t.Error("caller's query grew an OPT record")
	}
	if len(q.Answers) != 0 {
		t.Error("caller's query grew answers")
	}
}

// TestLoadShedBurstStraddlingWindow: the token bucket must not admit
// a double burst straddling a window boundary the way the old
// fixed-window reset did.
func TestLoadShedBurstStraddlingWindow(t *testing.T) {
	clock := &vclock.Fixed{}
	ls := &LoadShed{Clock: clock, Window: time.Second, MaxQueries: 10}
	backend := &countingPlugin{h: answerHandler("192.0.2.1")}
	h := Chain(ls, backend)

	// Burst just before the old window boundary...
	clock.Advance(990 * time.Millisecond)
	for i := 0; i < 10; i++ {
		Resolve(context.Background(), h, queryFor("b1.test."))
	}
	// ...and again just after it. A fixed window admits all 20;
	// the bucket has only refilled ~0.2 tokens.
	clock.Advance(20 * time.Millisecond)
	admitted := 0
	for i := 0; i < 10; i++ {
		if resp := Resolve(context.Background(), h, queryFor("b2.test.")); resp.Rcode != dnswire.RcodeRefused {
			admitted++
		}
	}
	if admitted > 1 {
		t.Errorf("second burst admitted %d queries across the boundary, want ≤1", admitted)
	}
	if backend.hits > 11 {
		t.Errorf("backend saw %d queries from a 2x straddled burst", backend.hits)
	}
}

// TestLoadShedNilClockDefaults: a zero-value clock field must not
// panic (live servers default to the wall clock).
func TestLoadShedNilClockDefaults(t *testing.T) {
	ls := &LoadShed{MaxQueries: 5}
	backend := &countingPlugin{h: answerHandler("192.0.2.1")}
	h := Chain(ls, backend)
	for i := 0; i < 3; i++ {
		if resp := Resolve(context.Background(), h, queryFor("nc.test.")); resp.Rcode != dnswire.RcodeSuccess {
			t.Fatalf("rcode = %v", resp.Rcode)
		}
	}
}

// TestMetricsLatencyHistogram: the ServeDNS duration histogram tracks
// the handler's virtual-time cost.
func TestMetricsLatencyHistogram(t *testing.T) {
	clock := &vclock.Fixed{}
	m := NewMetrics()
	m.Clock = clock
	backend := HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		clock.Advance(5 * time.Millisecond) // simulated resolution work
		return answerHandler("192.0.2.1").ServeDNS(ctx, w, r)
	})
	h := Chain(m, pluginize(backend))
	for i := 0; i < 20; i++ {
		Resolve(context.Background(), h, queryFor("lat.test."))
	}
	d := m.Duration()
	if d.Count() != 20 || d.Sum() != 100*time.Millisecond {
		t.Fatalf("histogram count/sum = %d/%v, want 20/100ms", d.Count(), d.Sum())
	}
	// Every observation is exactly on the 5ms bound, so both quantiles
	// read that bucket.
	if p50, p99 := d.Quantile(0.50), d.Quantile(0.99); p50 != 5*time.Millisecond || p99 != 5*time.Millisecond {
		t.Errorf("p50/p99 = %v/%v, want 5ms/5ms", p50, p99)
	}
}
