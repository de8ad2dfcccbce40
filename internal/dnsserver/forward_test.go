package dnsserver

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnsclient"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/health"
	"github.com/meccdn/meccdn/internal/simnet"
	"github.com/meccdn/meccdn/internal/vclock"
)

// simPair builds a two-node simnet with a DNS server on "up" and
// returns the network and the upstream's address.
func simPair(t *testing.T, seed int64, h Handler) (*simnet.Network, netip.AddrPort) {
	t.Helper()
	n := simnet.New(seed)
	n.AddNode("down")
	n.AddNode("up")
	n.AddLink("down", "up", simnet.Constant(5*time.Millisecond), 0)
	Attach(n.Node("up"), h, nil, simnet.Constant(time.Millisecond))
	return n, netip.AddrPortFrom(n.Node("up").Addr, 53)
}

func TestForwardPlugin(t *testing.T) {
	z := NewZone("fwd.test.")
	_ = z.AddA("host.fwd.test.", 60, netip.MustParseAddr("192.0.2.77"))
	n, upAddr := simPair(t, 30, Chain(NewZonePlugin(z)))

	fwd := &Forward{Upstreams: []netip.AddrPort{upAddr}, Client: simClient(n, "down")}
	resp := Resolve(context.Background(), Chain(fwd), queryFor("host.fwd.test."))
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %v (rcode %v)", resp.Answers, resp.Rcode)
	}
}

func TestForwardFailover(t *testing.T) {
	z := NewZone("fo.test.")
	_ = z.AddA("x.fo.test.", 60, netip.MustParseAddr("192.0.2.1"))
	n := simnet.New(31)
	n.AddNode("down")
	n.AddNode("dead")
	n.AddNode("live")
	n.AddLink("down", "dead", simnet.Constant(time.Millisecond), 1.0)
	n.AddLink("down", "live", simnet.Constant(time.Millisecond), 0)
	Attach(n.Node("live"), Chain(NewZonePlugin(z)), nil, nil)

	client := &dnsclient.Client{Transport: &dnsclient.SimTransport{
		Endpoint: n.Node("down").Endpoint(), Timeout: 10 * time.Millisecond}}
	client.SetRand(rand.New(rand.NewSource(2)))
	fwd := &Forward{
		Upstreams: []netip.AddrPort{
			netip.AddrPortFrom(n.Node("dead").Addr, 53),
			netip.AddrPortFrom(n.Node("live").Addr, 53),
		},
		Client: client,
	}
	resp := Resolve(context.Background(), Chain(fwd), queryFor("x.fo.test."))
	if len(resp.Answers) != 1 {
		t.Fatalf("failover failed: %v", resp.Rcode)
	}
}

func TestStubRoutesSubdomain(t *testing.T) {
	cdnsZone := NewZone("mycdn.ciab.test.")
	_ = cdnsZone.AddA("video.mycdn.ciab.test.", 30, netip.MustParseAddr("10.96.0.50"))
	n, cdnsAddr := simPair(t, 32, Chain(NewZonePlugin(cdnsZone)))

	stub := NewStub(simClient(n, "down"))
	stub.Route("mycdn.ciab.test.", cdnsAddr)
	other := &countingPlugin{h: answerHandler("192.0.2.1")}
	h := Chain(stub, other)

	resp := Resolve(context.Background(), h, queryFor("video.mycdn.ciab.test."))
	if len(resp.Answers) != 1 || resp.Answers[0].(*dnswire.A).Addr.String() != "10.96.0.50" {
		t.Fatalf("stub answer = %v", resp.Answers)
	}
	if other.hits != 0 {
		t.Error("stub query leaked to next plugin")
	}
	resp = Resolve(context.Background(), h, queryFor("elsewhere.example."))
	if other.hits != 1 {
		t.Error("non-stub query did not fall through")
	}
}

// TestForwardHealthOrdering: with a registry attached, non-cooling
// upstreams are reordered by probe verdict — healthy first, then
// unknown, degraded, probing, down — instead of blind configured
// order.
func TestForwardHealthOrdering(t *testing.T) {
	up := []netip.AddrPort{
		netip.MustParseAddrPort("10.0.0.1:53"), // will be down
		netip.MustParseAddrPort("10.0.0.2:53"), // degraded
		netip.MustParseAddrPort("10.0.0.3:53"), // unknown to the registry
		netip.MustParseAddrPort("10.0.0.4:53"), // healthy
		netip.MustParseAddrPort("10.0.0.5:53"), // probing
	}
	clk := &vclock.Fixed{}
	reg := health.New(health.Config{DownAfter: 3, UpAfter: 2, MinDwell: -1, Clock: clk})
	for _, u := range []int{0, 1, 3, 4} {
		reg.Add(up[u].String(), up[u].String())
	}
	for i := 0; i < 3; i++ {
		reg.ReportFailure(up[0].String())
	}
	reg.ReportSuccess(up[1].String(), time.Millisecond)
	reg.ReportFailure(up[1].String())
	reg.ReportSuccess(up[3].String(), time.Millisecond)

	f := &Forward{Upstreams: up, Clock: clk, Health: reg}
	got := candidateAddrs(f)
	want := []netip.AddrPort{up[3], up[2], up[1], up[4], up[0]}
	if len(got) != len(want) {
		t.Fatalf("candidates = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidates[%d] = %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
}

// TestForwardHealthEWMATieBreak: equal-rank upstreams order by
// smoothed probe latency, fastest first.
func TestForwardHealthEWMATieBreak(t *testing.T) {
	slow := netip.MustParseAddrPort("10.0.0.1:53")
	fast := netip.MustParseAddrPort("10.0.0.2:53")
	clk := &vclock.Fixed{}
	reg := health.New(health.Config{MinDwell: -1, Clock: clk})
	reg.Add(slow.String(), slow.String())
	reg.Add(fast.String(), fast.String())
	reg.ReportSuccess(slow.String(), 40*time.Millisecond)
	reg.ReportSuccess(fast.String(), 2*time.Millisecond)

	f := &Forward{Upstreams: []netip.AddrPort{slow, fast}, Clock: clk, Health: reg}
	got := candidateAddrs(f)
	if got[0] != fast || got[1] != slow {
		t.Fatalf("candidates = %v, want fastest healthy upstream first", got)
	}
}

// TestForwardHealthKeepsCooldownLast: registry scoring reorders only
// the non-cooling set; an upstream in its failure cooldown stays a
// last resort even if the registry thinks it is healthy.
func TestForwardHealthKeepsCooldownLast(t *testing.T) {
	a := netip.MustParseAddrPort("10.0.0.1:53")
	b := netip.MustParseAddrPort("10.0.0.2:53")
	clk := &vclock.Fixed{}
	reg := health.New(health.Config{MinDwell: -1, Clock: clk})
	reg.Add(a.String(), a.String())
	reg.ReportSuccess(a.String(), time.Millisecond)

	f := &Forward{Upstreams: []netip.AddrPort{a, b}, Clock: clk, FailureThreshold: 1, Health: reg}
	f.recordFailure(f.set().entries[0]) // a: trips the cooldown immediately
	got := candidateAddrs(f)
	if got[0] != b || got[1] != a {
		t.Fatalf("candidates = %v, want cooling upstream demoted to last", got)
	}
}

// candidateAddrs is the order ServeDNS would try f's upstreams in.
func candidateAddrs(f *Forward) []netip.AddrPort {
	var addrs []netip.AddrPort
	for _, e := range f.candidates(nil) {
		addrs = append(addrs, e.addr)
	}
	return addrs
}

// TestCandidatesAllocateNothing: ordering the upstreams is per-query
// work, and with the caller's array to fill it makes no garbage —
// neither plain nor scored by the probe registry.
func TestCandidatesAllocateNothing(t *testing.T) {
	ups := []netip.AddrPort{
		netip.MustParseAddrPort("10.0.0.1:53"),
		netip.MustParseAddrPort("10.0.0.2:53"),
		netip.MustParseAddrPort("10.0.0.3:53"),
	}
	clk := &vclock.Fixed{}
	reg := health.New(health.Config{MinDwell: -1, Clock: clk})
	for _, up := range ups {
		reg.Add(up.String(), up.String())
		reg.ReportSuccess(up.String(), time.Millisecond)
	}
	for name, f := range map[string]*Forward{
		"plain":  {Upstreams: ups, Clock: clk},
		"scored": {Upstreams: ups, Clock: clk, Health: reg},
	} {
		var arr [4]*upstreamEntry
		if got := f.candidates(arr[:0]); len(got) != len(ups) || got[0].name != "10.0.0.1:53" {
			t.Fatalf("%s: candidates = %v", name, got)
		}
		if allocs := testing.AllocsPerRun(100, func() { f.candidates(arr[:0]) }); allocs != 0 {
			t.Errorf("%s: candidates allocates %v times per query, want 0", name, allocs)
		}
	}
}

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
	clock.Time += 11 * time.Second
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
	secondary := startTestServer(t, &Server{Handler: answerHandler("203.0.113.2")}).LocalAddr()

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
// Stub.routes map: live Route calls must not race query serving.
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
			stub.Route("race.test.", upA)
			stub.Route(fmt.Sprintf("tenant-%d.race.test.", i%8), upA)
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

// TestSpoofedRepliesNeitherRelayedNorCached is the off-path spoofing
// case against the relay path: the upstream socket is pooled and its
// replies now reach the client and the cache as the bytes that arrived.
// Forged datagrams landing on that socket ahead of the real reply — a
// burst with guessed IDs, and right-ID ones that are not a response, or
// answer another question, or carry the question compressed — must not
// be relayed, must not be stored, and must not cost the exchange its
// attempt (RFC 5452 §9).
func TestSpoofedRepliesNeitherRelayedNorCached(t *testing.T) {
	const real, poison = "192.0.2.1", "203.0.113.66"
	var asked atomic.Int32
	up := scriptedUpstream(t, 0, func(q *dnswire.Message, raw []byte) [][]byte {
		asked.Add(1)
		answer := func(addr string, mutate func(*dnswire.Message)) []byte {
			m := new(dnswire.Message)
			m.SetReply(q)
			m.Answers = []dnswire.RR{&dnswire.A{
				Hdr:  dnswire.RRHeader{Name: q.Question().Name, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 300},
				Addr: netip.MustParseAddr(addr),
			}}
			m.SetEDNS(1232)
			if mutate != nil {
				mutate(m)
			}
			return mustPack(t, m)
		}
		var out [][]byte
		for i := uint16(1); i <= 64; i++ {
			out = append(out, answer(poison, func(m *dnswire.Message) { m.ID += i }))
		}
		compressed := append(append([]byte(nil), raw[:12]...), 0xC0, 0x04, 0, 1, 0, 1)
		compressed[2] |= 0x80
		return append(out,
			answer(poison, func(m *dnswire.Message) { m.Response = false }),
			answer(poison, func(m *dnswire.Message) { m.Questions[0].Name = "other.spoof.test." }),
			answer(poison, func(m *dnswire.Message) { m.Questions[0].Class = dnswire.ClassANY }),
			compressed,
			answer(real, nil))
	})

	tr := &dnsclient.NetTransport{}
	defer tr.Close()
	stub := NewStub(&dnsclient.Client{Transport: tr, Timeout: 2 * time.Second, Retries: 1})
	stub.Route("spoof.test.", up)
	cache := NewCache(vclock.NewReal())
	h := Chain(cache, stub)

	for i, want := range []CacheStats{{Misses: 1}, {Misses: 1, Hits: 1}} {
		sink := &wireSink{}
		req := queryFor("www.spoof.test.", "10.1.2.0/24")
		req.Msg.ID = uint16(100 + i)
		if rcode := ResolveTo(context.Background(), h, sink, req); rcode != dnswire.RcodeSuccess {
			t.Fatalf("query %d: rcode %v", i, rcode)
		}
		var got dnswire.Message
		if err := got.Unpack(sink.wire); err != nil {
			t.Fatalf("query %d: reply does not unpack (WriteMsg used: %v): %v", i, sink.msg != nil, err)
		}
		if addr := got.Answers[0].(*dnswire.A).Addr.String(); addr != real || got.ID != req.Msg.ID {
			t.Fatalf("query %d answered %s under ID %d: a forged datagram got through", i, addr, got.ID)
		}
		if st := cache.Stats(); st.Misses != want.Misses || st.Hits != want.Hits || st.Entries != 1 {
			t.Errorf("after query %d: cache stats %+v", i, st)
		}
	}
	if n := asked.Load(); n != 1 {
		t.Errorf("upstream was asked %d times: a forged datagram failed an attempt", n)
	}
	if st := tr.Stats(); st.Dialed != 1 || st.Discarded != 0 {
		t.Errorf("socket stats %+v: the exchange should have kept its one socket", st)
	}
}

// TestRelayIsTheUpstreamsBytes: what Stub relays — to the client and
// into the cache — is the image that arrived, restamped, not a re-pack
// of it: an upstream that compresses differently than Pack (here: not
// at all, and in upper case) is relayed octet for octet, on the miss
// and on the hit, and decoded only for a writer that cannot take bytes.
func TestRelayIsTheUpstreamsBytes(t *testing.T) {
	up := scriptedUpstream(t, 0, func(q *dnswire.Message, raw []byte) [][]byte {
		img := append([]byte(nil), raw...)
		img[2] |= 0x84 // QR, AA
		img[7] = 1     // ANCOUNT
		img = append(img, 3, 'W', 'W', 'W', 5, 'R', 'E', 'L', 'A', 'Y', 4, 'T', 'E', 'S', 'T', 0,
			0, 1, 0, 1, 0, 0, 1, 44, 0, 4, 192, 0, 2, 77) // WWW.RELAY.TEST. 300 IN A 192.0.2.77
		return [][]byte{img}
	})
	tr := &dnsclient.NetTransport{}
	defer tr.Close()
	stub := NewStub(&dnsclient.Client{Transport: tr, Timeout: 2 * time.Second})
	stub.Route("relay.test.", up)
	cache := NewCache(&vclock.Fixed{})
	h := Chain(cache, stub)

	var first []byte
	for i := 0; i < 2; i++ { // the miss, then the hit
		req := queryFor("www.relay.test.")
		req.Msg.ID = uint16(7 + i)
		sink := &wireSink{}
		if rcode := ResolveTo(context.Background(), h, sink, req); rcode != dnswire.RcodeSuccess || sink.msg != nil {
			t.Fatalf("query %d: rcode %v, WriteMsg used: %v", i, rcode, sink.msg != nil)
		}
		if got := sink.wire[len(sink.wire)-30 : len(sink.wire)-14]; string(got) != "\x03WWW\x05RELAY\x04TEST\x00" {
			t.Errorf("query %d: owner name on the wire is %q, not the upstream's bytes", i, got)
		}
		if id := uint16(sink.wire[0])<<8 | uint16(sink.wire[1]); id != req.Msg.ID {
			t.Errorf("query %d: reply ID %d, want %d", i, id, req.Msg.ID)
		}
		if i == 0 {
			first = append([]byte(nil), sink.wire[2:]...)
		} else if string(sink.wire[2:]) != string(first) {
			t.Errorf("the hit differs from the miss past the ID:\n% x\n% x", sink.wire[2:], first)
		}
	}
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache stats %+v", st)
	}
	resp := Resolve(context.Background(), h, queryFor("www.relay.test."))
	if len(resp.Answers) != 1 || resp.Answers[0].(*dnswire.A).Addr.String() != "192.0.2.77" {
		t.Errorf("a message writer got %v", resp)
	}
}

// TestMalformedUpstreamImageIsNotRelayed: an upstream reply that answers
// the question asked but is not a well-formed message fails the
// exchange, as it did when the client decoded every reply; it reaches
// neither the client nor the cache.
func TestMalformedUpstreamImageIsNotRelayed(t *testing.T) {
	var asked atomic.Int32
	up := scriptedUpstream(t, 0, func(q *dnswire.Message, raw []byte) [][]byte {
		m := new(dnswire.Message)
		m.SetReply(q)
		m.Answers = []dnswire.RR{&dnswire.A{
			Hdr:  dnswire.RRHeader{Name: q.Question().Name, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 300},
			Addr: netip.MustParseAddr("203.0.113.66"),
		}}
		good := mustPack(t, m)
		bad := append([]byte(nil), good...)
		switch asked.Add(1) {
		case 1:
			bad = append(bad, 0) // a trailing octet
		case 2:
			bad[len(bad)-5] = 5 // an A record of five octets, one more than there are
		default:
			bad[len(bad)-15] = 2 // the owner's pointer, aimed into the header
		}
		return [][]byte{bad}
	})
	tr := &dnsclient.NetTransport{}
	defer tr.Close()
	stub := NewStub(&dnsclient.Client{Transport: tr, Timeout: 2 * time.Second, Retries: 2})
	stub.Route("bad.test.", up)
	cache := NewCache(&vclock.Fixed{})
	sink := &wireSink{}
	rcode := ResolveTo(context.Background(), Chain(cache, stub), sink, queryFor("www.bad.test."))
	var got dnswire.Message
	if err := got.Unpack(sink.wire); rcode != dnswire.RcodeServerFailure || err != nil || got.Rcode != rcode || len(got.Answers) != 0 {
		t.Errorf("rcode %v, replied % x; want the SERVFAIL ResolveTo synthesizes and nothing relayed", rcode, sink.wire)
	}
	if n := asked.Load(); n != 3 {
		t.Errorf("upstream asked %d times, want all 3 attempts", n)
	}
	if st := cache.Stats(); st.Entries != 0 {
		t.Errorf("cache stats %+v: a malformed image was stored", st)
	}
}

// heldTransport answers every upstream with an A record, holding upA's
// answer until hold closes, and sends the ECS subnet of each query on
// that upstream's channel. The upstreams share no lock, so under -race
// nothing orders the held exchange's reads before the test's next
// query.
type heldTransport struct {
	hold <-chan struct{}
	sent map[netip.AddrPort]chan netip.Prefix
}

func (h *heldTransport) Exchange(_ context.Context, _ time.Time, server netip.AddrPort, query []byte, _ bool) ([]byte, error) {
	var q dnswire.Message
	if err := q.Unpack(query); err != nil {
		return nil, err
	}
	if server == upA {
		<-h.hold
	}
	var subnet netip.Prefix
	if ecs, ok := q.ECS(); ok {
		subnet = ecs.Prefix()
	}
	h.sent[server] <- subnet
	m := new(dnswire.Message).SetReply(&q)
	m.Answers = []dnswire.RR{&dnswire.A{
		Hdr:  dnswire.RRHeader{Name: q.Question().Name, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 30},
		Addr: netip.MustParseAddr("203.0.113.1"),
	}}
	return m.Pack()
}

func TestHedgedLoserKeepsItsOwnECS(t *testing.T) {
	release := make(chan struct{})
	tr := &heldTransport{hold: release, sent: map[netip.AddrPort]chan netip.Prefix{
		upA: make(chan netip.Prefix, 1), // the primary, which loses
		upB: make(chan netip.Prefix, 1),
	}}
	fwd := Chain(&Forward{
		Upstreams:  []netip.AddrPort{upA, upB},
		Client:     &dnsclient.Client{Transport: tr, Timeout: 2 * time.Second},
		Clock:      &vclock.Fixed{},
		HedgeDelay: time.Millisecond,
	})
	st := &serveScratch{intern: dnswire.NewNameIntern(0)}
	buf, _ := serveQuery(context.Background(), fwd, nil, st, mustPack(t, queryFor("hedge.test.", ownSubnet.String()).Msg), testClient, "udp", maxUDPPayload)
	if buf == nil {
		t.Fatal("no reply")
	}
	dnswire.PutBuffer(buf)
	// The next query reuses the scratch while the loser is still out.
	if err := st.msg.UnpackQuery(mustPack(t, queryFor("next.test.", nextSubnet.String()).Msg), st.intern); err != nil {
		t.Fatal(err)
	}
	close(release)
	for _, up := range []netip.AddrPort{upB, upA} {
		select {
		case got := <-tr.sent[up]:
			if got != ownSubnet {
				t.Errorf("%v was sent ECS %v, want the hedged query's own %v", up, got, ownSubnet)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%v was never asked", up)
		}
	}
}

// TestStubChurnUnderLoad swaps stub routes while queries run; the race
// detector is the assertion, plus nothing may block or fail.
func TestStubChurnUnderLoad(t *testing.T) {
	zone := NewZone("live.test.")
	if err := zone.AddA("www.live.test.", 60, netip.MustParseAddr("192.0.2.1")); err != nil {
		t.Fatal(err)
	}
	stub := NewStub(nil)
	h := Chain(stub, NewZonePlugin(zone))

	var stop atomic.Bool
	var dropped atomic.Uint64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := netip.MustParseAddrPort("10.0.0.1:5000")
			for !stop.Load() {
				q := new(dnswire.Message)
				q.SetQuestion("www.live.test.", dnswire.TypeA)
				resp := Resolve(context.Background(), h, &Request{Msg: q, Transport: "udp", Client: client})
				if resp.Rcode != dnswire.RcodeSuccess {
					dropped.Add(1)
				}
			}
		}()
	}
	up := netip.MustParseAddrPort("192.0.2.53:53")
	for i := 0; i < 500; i++ {
		stub.Route(fmt.Sprintf("r%d.example.", i%16), up)
	}
	stop.Store(true)
	wg.Wait()
	if n := dropped.Load(); n != 0 {
		t.Errorf("%d queries failed during stub churn", n)
	}
}

// forbiddenMutexFrames are the query-time read-path functions that
// must never appear in a mutex-contention profile: each is the
// lock-free fast path of its subsystem after the RCU refactor.
var forbiddenMutexFrames = []string{
	"(*ZoneView).Lookup",
	"(*ZonePlugin).ServeDNS",
	"(*Stub).match",
	"(*Forward).candidates",
	"(*Forward).recordFailure",
	"(*Forward).recordSuccess",
}

// releasedBy returns the function that released the contended lock of
// one record of a debug=1 mutex profile: its first frame outside the
// sync and runtime packages.
func releasedBy(record string) string {
	for _, line := range strings.Split(record, "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || f[0] != "#" {
			continue
		}
		fn, _, _ := strings.Cut(f[2], "+0x")
		if !strings.HasPrefix(fn, "sync.") && !strings.HasPrefix(fn, "runtime.") {
			return fn
		}
	}
	return ""
}

// TestServePathMutexFree is the mutex-profile smoke test behind
// `make mutexprofile`: with mutex profiling at fraction 1 and writers
// churning every snapshot as hard as they can, running the serve path
// concurrently must record zero contention events in any zone, stub
// or forward read-path frame. If a lock creeps back into one of
// those functions, the writer churn makes it contend and the frame
// shows up here.
func TestServePathMutexFree(t *testing.T) {
	old := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(old)

	zone := NewZone("live.test.")
	if err := zone.AddA("www.live.test.", 60, netip.MustParseAddr("192.0.2.1")); err != nil {
		t.Fatal(err)
	}
	stub := NewStub(nil)
	stub.Route("elsewhere.example.", netip.MustParseAddrPort("192.0.2.53:53"))
	fwd := &Forward{Upstreams: []netip.AddrPort{
		netip.MustParseAddrPort("192.0.2.53:53"),
		netip.MustParseAddrPort("192.0.2.54:53"),
	}}
	h := Chain(stub, NewZonePlugin(zone))
	// The upstream set is built under the forwarder's lock on first use;
	// build it now, so the readers below see only the steady state.
	fwd.candidates(nil)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < runtime.GOMAXPROCS(0)+2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := netip.MustParseAddrPort("10.0.0.1:5000")
			for !stop.Load() {
				q := new(dnswire.Message)
				q.SetQuestion("www.live.test.", dnswire.TypeA)
				Resolve(context.Background(), h, &Request{Msg: q, Transport: "udp", Client: client})
				first := fwd.candidates(nil)[0]
				fwd.recordFailure(first)
				fwd.recordSuccess(first)
			}
		}()
	}
	// Writer churn: snapshot swaps on every subsystem, as fast as the
	// copy-on-write allows, to surface any reader/writer shared lock.
	for i := 0; i < 300; i++ {
		next := NewZone("live.test.")
		_ = next.AddA("www.live.test.", 60, netip.AddrFrom4([4]byte{192, 0, 2, byte(1 + i%250)}))
		zone.Replace(next)
		stub.Route(fmt.Sprintf("churn%d.example.", i%8), netip.MustParseAddrPort("192.0.2.53:53"))
	}
	stop.Store(true)
	wg.Wait()

	var sb strings.Builder
	if err := pprof.Lookup("mutex").WriteTo(&sb, 1); err != nil {
		t.Fatal(err)
	}
	profile := sb.String()
	for _, record := range strings.Split(profile, "\n\n") {
		// sync.Pool takes its registration lock the first time each P
		// uses a pool after a GC has cleared it. Every ingress draws its
		// reply buffer from such a pool under these frames; that lock is
		// the runtime's, not one a read path holds.
		if strings.Contains(record, "sync.(*Pool).pinSlow") {
			continue
		}
		// Under -tags pooldebug, dnswire's GetBuffer and PutBuffer book
		// every buffer under the pool tracker's own lock; that lock is
		// the build's instrument, not one a read path holds.
		if fn := releasedBy(record); strings.HasSuffix(fn, "/dnswire.poolTrackGet") || strings.HasSuffix(fn, "/dnswire.poolTrackPut") {
			continue
		}
		for _, frame := range forbiddenMutexFrames {
			if strings.Contains(record, frame) {
				t.Errorf("serve path acquired a lock: %s appears in the mutex profile", frame)
			}
		}
	}
	if t.Failed() {
		t.Logf("mutex profile:\n%s", profile)
	}
}
