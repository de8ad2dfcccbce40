package resolver

import (
	"context"
	"errors"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnsclient"
	"github.com/meccdn/meccdn/internal/dnsserver"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/simnet"
)

// hierarchy is a three-level DNS tree (root → TLDs → authoritative)
// running on simnet, mirroring Figure 1's multi-layer hierarchy.
type hierarchy struct {
	net        *simnet.Network
	rootAddr   netip.AddrPort
	rootHits   *dnsserver.Metrics
	tldHits    *dnsserver.Metrics
	authHits   *dnsserver.Metrics
	resolver   *Resolver
	resolverEP *simnet.Endpoint
}

func buildHierarchy(t *testing.T, seed int64) *hierarchy {
	t.Helper()
	n := simnet.New(seed)
	for _, name := range []string{"ldns", "root", "tld-test", "tld-example", "auth-mycdn", "auth-other"} {
		n.AddNode(name)
	}
	for _, peer := range []string{"root", "tld-test", "tld-example", "auth-mycdn", "auth-other"} {
		n.AddLink("ldns", peer, simnet.Constant(10*time.Millisecond), 0)
	}

	addr := func(node string) netip.Addr { return n.Node(node).Addr }
	port := func(node string) netip.AddrPort { return netip.AddrPortFrom(addr(node), 53) }

	// Root zone delegates test. and example.
	root := dnsserver.NewZone(".")
	mustAdd := func(z *dnsserver.Zone, rr dnswire.RR) {
		t.Helper()
		if err := z.Add(rr); err != nil {
			t.Fatal(err)
		}
	}
	nsRR := func(owner, target string) *dnswire.NS {
		return &dnswire.NS{
			Hdr: dnswire.RRHeader{Name: owner, Type: dnswire.TypeNS, Class: dnswire.ClassINET, TTL: 3600},
			NS:  target,
		}
	}
	mustAdd(root, nsRR("test.", "ns.tld-test."))
	if err := root.AddA("ns.tld-test.", 3600, addr("tld-test")); err != nil {
		t.Fatal(err)
	}
	mustAdd(root, nsRR("example.", "ns.tld-example."))
	if err := root.AddA("ns.tld-example.", 3600, addr("tld-example")); err != nil {
		t.Fatal(err)
	}

	// test. TLD delegates mycdn.ciab.test.
	tldTest := dnsserver.NewZone("test.")
	mustAdd(tldTest, nsRR("mycdn.ciab.test.", "ns.mycdn.ciab.test."))
	if err := tldTest.AddA("ns.mycdn.ciab.test.", 3600, addr("auth-mycdn")); err != nil {
		t.Fatal(err)
	}

	// example. TLD delegates other.example.
	tldExample := dnsserver.NewZone("example.")
	mustAdd(tldExample, nsRR("other.example.", "ns.other.example."))
	if err := tldExample.AddA("ns.other.example.", 3600, addr("auth-other")); err != nil {
		t.Fatal(err)
	}

	// Authoritative zones. The CDN zone aliases a name into the other
	// provider's domain — a cross-zone CNAME cascade.
	authMycdn := dnsserver.NewZone("mycdn.ciab.test.")
	if err := authMycdn.AddA("edge.mycdn.ciab.test.", 60, netip.MustParseAddr("198.51.100.10")); err != nil {
		t.Fatal(err)
	}
	if err := authMycdn.AddCNAME("video.mycdn.ciab.test.", 300, "edge.mycdn.ciab.test."); err != nil {
		t.Fatal(err)
	}
	if err := authMycdn.AddCNAME("img.mycdn.ciab.test.", 300, "pop1.other.example."); err != nil {
		t.Fatal(err)
	}

	authOther := dnsserver.NewZone("other.example.")
	if err := authOther.AddA("pop1.other.example.", 60, netip.MustParseAddr("203.0.113.80")); err != nil {
		t.Fatal(err)
	}

	h := &hierarchy{
		net:      n,
		rootAddr: port("root"),
		rootHits: dnsserver.NewMetrics(),
		tldHits:  dnsserver.NewMetrics(),
		authHits: dnsserver.NewMetrics(),
	}
	dnsserver.Attach(n.Node("root"), dnsserver.Chain(h.rootHits, dnsserver.NewZonePlugin(root)), nil, simnet.Constant(time.Millisecond))
	dnsserver.Attach(n.Node("tld-test"), dnsserver.Chain(h.tldHits, dnsserver.NewZonePlugin(tldTest)), nil, simnet.Constant(time.Millisecond))
	dnsserver.Attach(n.Node("tld-example"), dnsserver.Chain(dnsserver.NewZonePlugin(tldExample)), nil, simnet.Constant(time.Millisecond))
	dnsserver.Attach(n.Node("auth-mycdn"), dnsserver.Chain(h.authHits, dnsserver.NewZonePlugin(authMycdn)), nil, simnet.Constant(time.Millisecond))
	dnsserver.Attach(n.Node("auth-other"), dnsserver.Chain(dnsserver.NewZonePlugin(authOther)), nil, simnet.Constant(time.Millisecond))

	h.resolverEP = n.Node("ldns").Endpoint()
	client := &dnsclient.Client{Transport: &dnsclient.SimTransport{Endpoint: h.resolverEP}}
	client.SetRand(rand.New(rand.NewSource(seed)))
	h.resolver = New(client, n.Clock, h.rootAddr)
	return h
}

func TestIterativeResolution(t *testing.T) {
	h := buildHierarchy(t, 1)
	resp, err := h.resolver.resolve(context.Background(), "video.mycdn.ciab.test.", dnswire.TypeA, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rcode != dnswire.RcodeSuccess {
		t.Fatalf("rcode = %v", resp.Rcode)
	}
	var gotA bool
	for _, rr := range resp.Answers {
		if a, ok := rr.(*dnswire.A); ok && a.Addr.String() == "198.51.100.10" {
			gotA = true
		}
	}
	if !gotA {
		t.Errorf("answers = %v", resp.Answers)
	}
	if h.rootHits.Total() != 1 || h.tldHits.Total() != 1 || h.authHits.Total() != 1 {
		t.Errorf("hits root=%d tld=%d auth=%d, want 1 each",
			h.rootHits.Total(), h.tldHits.Total(), h.authHits.Total())
	}
}

func TestDelegationCachingSkipsUpperLevels(t *testing.T) {
	h := buildHierarchy(t, 2)
	if _, err := h.resolver.resolve(context.Background(), "video.mycdn.ciab.test.", dnswire.TypeA, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.resolver.resolve(context.Background(), "edge.mycdn.ciab.test.", dnswire.TypeA, nil); err != nil {
		t.Fatal(err)
	}
	if h.rootHits.Total() != 1 {
		t.Errorf("root queried %d times; delegation cache not used", h.rootHits.Total())
	}
	if h.authHits.Total() != 2 {
		t.Errorf("auth hits = %d", h.authHits.Total())
	}
}

func TestCrossZoneCNAMEChase(t *testing.T) {
	h := buildHierarchy(t, 3)
	resp, err := h.resolver.resolve(context.Background(), "img.mycdn.ciab.test.", dnswire.TypeA, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sawCNAME, sawA bool
	for _, rr := range resp.Answers {
		switch rec := rr.(type) {
		case *dnswire.CNAME:
			if rec.Target == "pop1.other.example." {
				sawCNAME = true
			}
		case *dnswire.A:
			if rec.Addr.String() == "203.0.113.80" {
				sawA = true
			}
		}
	}
	if !sawCNAME || !sawA {
		t.Errorf("chain missing pieces: cname=%v a=%v answers=%v", sawCNAME, sawA, resp.Answers)
	}
}

func TestNXDomainPropagates(t *testing.T) {
	h := buildHierarchy(t, 4)
	resp, err := h.resolver.resolve(context.Background(), "ghost.mycdn.ciab.test.", dnswire.TypeA, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rcode != dnswire.RcodeNameError {
		t.Errorf("rcode = %v", resp.Rcode)
	}
}

func TestNoDataPropagates(t *testing.T) {
	h := buildHierarchy(t, 5)
	resp, err := h.resolver.resolve(context.Background(), "edge.mycdn.ciab.test.", dnswire.TypeAAAA, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rcode != dnswire.RcodeSuccess || len(resp.Answers) != 0 {
		t.Errorf("rcode=%v answers=%v", resp.Rcode, resp.Answers)
	}
}

func TestResolverNoServers(t *testing.T) {
	r := New(&dnsclient.Client{}, &fixedClock{})
	_, err := r.resolve(context.Background(), "x.test.", dnswire.TypeA, nil)
	if !errors.Is(err, ErrNoServers) {
		t.Errorf("err = %v", err)
	}
}

type fixedClock struct{ t time.Duration }

func (f *fixedClock) Now() time.Duration { return f.t }

func TestCNAMELoopAcrossZones(t *testing.T) {
	n := simnet.New(6)
	n.AddNode("ldns")
	n.AddNode("auth")
	n.AddLink("ldns", "auth", simnet.Constant(time.Millisecond), 0)
	z := dnsserver.NewZone("loop.test.")
	// Self-referential alias that Resolve must keep re-resolving:
	// a → b, and b is a zone cut... simplest loop: a → b, b → a via
	// out-of-zone semantics is impossible within one zone lookup, so
	// split across two zones on the same server.
	z2 := dnsserver.NewZone("pool.test.")
	if err := z.AddCNAME("a.loop.test.", 60, "b.pool.test."); err != nil {
		t.Fatal(err)
	}
	if err := z2.AddCNAME("b.pool.test.", 60, "a.loop.test."); err != nil {
		t.Fatal(err)
	}
	dnsserver.Attach(n.Node("auth"), dnsserver.Chain(dnsserver.NewZonePlugin(z, z2)), nil, nil)
	client := &dnsclient.Client{Transport: &dnsclient.SimTransport{Endpoint: n.Node("ldns").Endpoint()}}
	client.SetRand(rand.New(rand.NewSource(6)))
	r := New(client, n.Clock, netip.AddrPortFrom(n.Node("auth").Addr, 53))
	_, err := r.resolve(context.Background(), "a.loop.test.", dnswire.TypeA, nil)
	if !errors.Is(err, ErrMaxCNAME) {
		t.Errorf("err = %v, want ErrMaxCNAME", err)
	}
}

func TestResolverAsPlugin(t *testing.T) {
	h := buildHierarchy(t, 7)
	handler := dnsserver.Chain(h.resolver)
	q := new(dnswire.Message)
	q.SetQuestion("video.mycdn.ciab.test.", dnswire.TypeA)
	resp := dnsserver.Resolve(context.Background(), handler, &dnsserver.Request{Msg: q, Transport: "test"})
	if resp.Rcode != dnswire.RcodeSuccess || len(resp.Answers) == 0 {
		t.Fatalf("rcode=%v answers=%d", resp.Rcode, len(resp.Answers))
	}
	if !resp.RecursionAvailable {
		t.Error("RA not set by recursive resolver")
	}
}

func TestDelegationExpiry(t *testing.T) {
	h := buildHierarchy(t, 8)
	ctx := context.Background()
	if _, err := h.resolver.resolve(ctx, "video.mycdn.ciab.test.", dnswire.TypeA, nil); err != nil {
		t.Fatal(err)
	}
	// Advance virtual time beyond the delegation TTL: the resolver
	// must walk from the root again.
	h.net.Clock.RunUntil(h.net.Now() + 2*time.Hour)
	if _, err := h.resolver.resolve(ctx, "video.mycdn.ciab.test.", dnswire.TypeA, nil); err != nil {
		t.Fatal(err)
	}
	if h.rootHits.Total() != 2 {
		t.Errorf("root hits = %d, want 2 after expiry", h.rootHits.Total())
	}
}

func TestGluelessDelegation(t *testing.T) {
	n := simnet.New(9)
	for _, name := range []string{"ldns", "root", "auth", "nshost"} {
		n.AddNode(name)
	}
	for _, peer := range []string{"root", "auth", "nshost"} {
		n.AddLink("ldns", peer, simnet.Constant(time.Millisecond), 0)
	}
	// Root delegates corp.test. to ns.hosting.test. WITHOUT glue, but
	// can itself answer A for ns.hosting.test. (it owns hosting.test).
	root := dnsserver.NewZone(".")
	if err := root.Add(&dnswire.NS{
		Hdr: dnswire.RRHeader{Name: "corp.test.", Type: dnswire.TypeNS, Class: dnswire.ClassINET, TTL: 300},
		NS:  "ns.hosting.test.",
	}); err != nil {
		t.Fatal(err)
	}
	// The glue A is at a name the delegation logic will not pick up as
	// glue (different branch), so the resolver must look it up.
	hosting := dnsserver.NewZone("hosting.test.")
	if err := hosting.AddA("ns.hosting.test.", 300, n.Node("auth").Addr); err != nil {
		t.Fatal(err)
	}
	corp := dnsserver.NewZone("corp.test.")
	if err := corp.AddA("www.corp.test.", 60, netip.MustParseAddr("192.0.2.123")); err != nil {
		t.Fatal(err)
	}
	dnsserver.Attach(n.Node("root"), dnsserver.Chain(dnsserver.NewZonePlugin(root, hosting)), nil, nil)
	dnsserver.Attach(n.Node("auth"), dnsserver.Chain(dnsserver.NewZonePlugin(corp)), nil, nil)

	client := &dnsclient.Client{Transport: &dnsclient.SimTransport{Endpoint: n.Node("ldns").Endpoint()}}
	client.SetRand(rand.New(rand.NewSource(9)))
	r := New(client, n.Clock, netip.AddrPortFrom(n.Node("root").Addr, 53))
	resp, err := r.resolve(context.Background(), "www.corp.test.", dnswire.TypeA, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].(*dnswire.A).Addr.String() != "192.0.2.123" {
		t.Errorf("answers = %v", resp.Answers)
	}
}
