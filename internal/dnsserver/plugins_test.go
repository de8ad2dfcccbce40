package dnsserver

import (
	"context"
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnsclient"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/simnet"
	"github.com/meccdn/meccdn/internal/telemetry"
	"github.com/meccdn/meccdn/internal/vclock"
)

// countingPlugin counts how often the chain reaches it.
type countingPlugin struct {
	hits int
	h    Handler
}

func (c *countingPlugin) Name() string { return "counting" }
func (c *countingPlugin) ServeDNS(ctx context.Context, w ResponseWriter, r *Request, next Handler) (dnswire.Rcode, error) {
	c.hits++
	if c.h != nil {
		return c.h.ServeDNS(ctx, w, r)
	}
	return next.ServeDNS(ctx, w, r)
}

func answerHandler(addr string) Handler {
	return HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		m := new(dnswire.Message)
		m.SetReply(r.Msg)
		m.Answers = []dnswire.RR{&dnswire.A{
			Hdr:  dnswire.RRHeader{Name: r.Name(), Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 30},
			Addr: netip.MustParseAddr(addr),
		}}
		return m.Rcode, w.WriteMsg(m)
	})
}

func queryFor(name string) *Request {
	q := new(dnswire.Message)
	q.SetQuestion(name, dnswire.TypeA)
	return &Request{Msg: q, Client: netip.MustParseAddrPort("198.51.100.7:4242"), Transport: "test"}
}

func TestChainOrderAndFallthrough(t *testing.T) {
	p1 := &countingPlugin{}
	p2 := &countingPlugin{h: answerHandler("192.0.2.1")}
	resp := Resolve(context.Background(), Chain(p1, p2), queryFor("x.test."))
	if p1.hits != 1 || p2.hits != 1 {
		t.Errorf("hits = %d, %d", p1.hits, p2.hits)
	}
	if len(resp.Answers) != 1 {
		t.Errorf("answers = %d", len(resp.Answers))
	}
	// Empty chain refuses.
	resp = Resolve(context.Background(), Chain(), queryFor("x.test."))
	if resp.Rcode != dnswire.RcodeRefused {
		t.Errorf("empty chain rcode = %v", resp.Rcode)
	}
}

func TestResolveSynthesizesServfail(t *testing.T) {
	h := HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		return dnswire.RcodeSuccess, context.DeadlineExceeded
	})
	resp := Resolve(context.Background(), h, queryFor("x.test."))
	if resp.Rcode != dnswire.RcodeServerFailure {
		t.Errorf("rcode = %v", resp.Rcode)
	}
}

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
	// ecscache_test.go for those semantics.
	backend := &countingPlugin{h: ecsAnswerHandler("192.0.2.9", echoSourceScope)}
	h := Chain(cache, backend)
	Resolve(context.Background(), h, ecsQueryFor("frag.test.", "10.1.0.0/24"))
	Resolve(context.Background(), h, ecsQueryFor("frag.test.", "10.2.0.0/24"))
	Resolve(context.Background(), h, ecsQueryFor("frag.test.", "10.1.0.0/24"))
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

func simClient(n *simnet.Network, node string) *dnsclient.Client {
	c := &dnsclient.Client{Transport: &dnsclient.SimTransport{Endpoint: n.Node(node).Endpoint()}}
	c.SetRand(rand.New(rand.NewSource(1)))
	return c
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

func TestSplitHorizon(t *testing.T) {
	internalNet := netip.MustParsePrefix("10.96.0.0/16")
	split := &Split{
		IsInternal: func(a netip.Addr) bool { return internalNet.Contains(a) },
		Internal:   answerHandler("10.96.0.1"),
		Public:     answerHandler("203.0.113.1"),
	}
	h := Chain(split)

	rInt := queryFor("svc.cluster.local.")
	rInt.Client = netip.MustParseAddrPort("10.96.3.4:53000")
	resp := Resolve(context.Background(), h, rInt)
	if resp.Answers[0].(*dnswire.A).Addr.String() != "10.96.0.1" {
		t.Error("internal client got public view")
	}

	rPub := queryFor("svc.cluster.local.")
	rPub.Client = netip.MustParseAddrPort("198.51.100.9:53000")
	resp = Resolve(context.Background(), h, rPub)
	if resp.Answers[0].(*dnswire.A).Addr.String() != "203.0.113.1" {
		t.Error("public client got internal view")
	}
}

func TestSplitWithNilHandlersRefuses(t *testing.T) {
	split := &Split{}
	resp := Resolve(context.Background(), Chain(split), queryFor("x.test."))
	if resp.Rcode != dnswire.RcodeRefused {
		t.Errorf("rcode = %v", resp.Rcode)
	}
}

func TestECSPluginAddsClientSubnet(t *testing.T) {
	var seen *dnswire.ECSOption
	inspect := HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		seen, _ = r.Msg.ECS()
		return answerHandler("192.0.2.1").ServeDNS(ctx, w, r)
	})
	ecs := &ECS{}
	h := Chain(ecs, pluginize(inspect))
	Resolve(context.Background(), h, queryFor("ecs.test."))
	if seen == nil {
		t.Fatal("no ECS attached")
	}
	if seen.SourcePrefix != 24 {
		t.Errorf("source prefix = %d", seen.SourcePrefix)
	}
	if seen.Prefix().Masked() != netip.MustParsePrefix("198.51.100.0/24") {
		t.Errorf("prefix = %v", seen.Prefix())
	}
}

func TestECSPluginRespectsExisting(t *testing.T) {
	var seen *dnswire.ECSOption
	inspect := HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		seen, _ = r.Msg.ECS()
		return dnswire.RcodeSuccess, nil
	})
	h := Chain(&ECS{}, pluginize(inspect))
	r := queryFor("ecs.test.")
	opt := r.Msg.SetEDNS(1232)
	opt.Options = append(opt.Options, dnswire.NewECSOption(netip.MustParsePrefix("10.0.0.0/8")))
	Resolve(context.Background(), h, r)
	if seen == nil || seen.SourcePrefix != 8 {
		t.Errorf("existing ECS replaced: %+v", seen)
	}
}

// terminalPlugin is a Handler as the last link of a chain. Unlike
// countingPlugin it keeps no state, so concurrent tests may share it.
type terminalPlugin struct{ h Handler }

func (p terminalPlugin) Name() string { return "terminal" }
func (p terminalPlugin) ServeDNS(ctx context.Context, w ResponseWriter, r *Request, _ Handler) (dnswire.Rcode, error) {
	return p.h.ServeDNS(ctx, w, r)
}

// pluginize wraps a terminal Handler as a Plugin for tests.
func pluginize(h Handler) Plugin { return terminalPlugin{h} }

func TestLoadShedThreshold(t *testing.T) {
	clock := &vclock.Fixed{}
	ls := &LoadShed{Clock: clock, MaxQueries: 5}
	backend := &countingPlugin{h: answerHandler("192.0.2.1")}
	h := Chain(ls, backend)
	var refused int
	for i := 0; i < 8; i++ {
		resp := Resolve(context.Background(), h, queryFor("burst.test."))
		if resp.Rcode == dnswire.RcodeRefused {
			refused++
		}
	}
	if backend.hits != 5 || refused != 3 {
		t.Errorf("hits=%d refused=%d", backend.hits, refused)
	}
	// Window rolls over: budget resets.
	clock.Time += time.Second
	resp := Resolve(context.Background(), h, queryFor("burst.test."))
	if resp.Rcode == dnswire.RcodeRefused {
		t.Error("query refused after window reset")
	}
	shed, served := ls.Shed()
	if shed != 3 || served != 6 {
		t.Errorf("shed=%d served=%d", shed, served)
	}
}

func TestLoadShedFallback(t *testing.T) {
	clock := &vclock.Fixed{}
	fallback := &countingPlugin{h: answerHandler("203.0.113.99")}
	ls := &LoadShed{Clock: clock, MaxQueries: 1, Fallback: Chain(fallback)}
	backend := &countingPlugin{h: answerHandler("192.0.2.1")}
	h := Chain(ls, backend)
	Resolve(context.Background(), h, queryFor("a.test."))
	resp := Resolve(context.Background(), h, queryFor("b.test."))
	if fallback.hits != 1 {
		t.Error("fallback not used")
	}
	if resp.Answers[0].(*dnswire.A).Addr.String() != "203.0.113.99" {
		t.Error("fallback answer not returned")
	}
}

func TestLoadShedDisabled(t *testing.T) {
	ls := &LoadShed{Clock: &vclock.Fixed{}}
	backend := &countingPlugin{h: answerHandler("192.0.2.1")}
	h := Chain(ls, backend)
	for i := 0; i < 100; i++ {
		Resolve(context.Background(), h, queryFor("x.test."))
	}
	if backend.hits != 100 {
		t.Error("disabled loadshed dropped queries")
	}
}

func TestMetricsPlugin(t *testing.T) {
	m := NewMetrics()
	h := Chain(m, pluginize(answerHandler("192.0.2.1")))
	Resolve(context.Background(), h, queryFor("a.test."))
	Resolve(context.Background(), h, queryFor("b.test."))
	if m.Total() != 2 {
		t.Errorf("total = %d", m.Total())
	}
	if m.CountByType(dnswire.TypeA) != 2 {
		t.Errorf("A count = %d", m.CountByType(dnswire.TypeA))
	}
	if m.CountByRcode(dnswire.RcodeSuccess) != 2 {
		t.Errorf("NOERROR count = %d", m.CountByRcode(dnswire.RcodeSuccess))
	}
}

// TestMetricsHostileLabels: qtypes are the client's choice and rcodes
// the upstream's, so neither may mint a series. A thousand distinct
// unknown qtypes, answered with rcodes above BADVERS, must land in the
// "other" series of both families.
func TestMetricsHostileLabels(t *testing.T) {
	m := NewMetrics()
	reg := telemetry.NewRegistry()
	reg.MustRegister(m.Collectors()...)
	const n = 1000
	h := Chain(m, pluginize(HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		rc := dnswire.RcodeBadVers + 1 + dnswire.Rcode(r.Type())%n
		reply := new(dnswire.Message)
		reply.SetReply(r.Msg)
		reply.Rcode = rc
		reply.SetEDNS(dnswire.DefaultEDNSSize)
		return rc, w.WriteMsg(reply)
	})))
	for i := 0; i < n; i++ {
		q := queryFor("hostile.test.")
		q.Msg.Questions[0].Type = dnswire.Type(1024 + i)
		Resolve(context.Background(), h, q)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		family, label string
		named         int
	}{
		{"meccdn_dns_queries_total", "type", len(dnswire.NamedTypes())},
		{"meccdn_dns_responses_total", "rcode", len(dnswire.NamedRcodes())},
	} {
		if series := strings.Count(b.String(), "\n"+c.family+"{"); series > c.named+1 {
			t.Errorf("%s has %d series, want at most %d", c.family, series, c.named+1)
		}
		if want := c.family + "{" + c.label + `="other"} 1000`; !strings.Contains(b.String(), want) {
			t.Errorf("exposition lacks %s", want)
		}
	}
	if got := m.CountByType(dnswire.Type(4000)); got != n {
		t.Errorf("unknown-type count = %d, want %d", got, n)
	}
}
