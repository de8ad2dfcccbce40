package cdn

import (
	"context"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnsserver"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/geoip"
	"github.com/meccdn/meccdn/internal/health"
	"github.com/meccdn/meccdn/internal/lpm"
	"github.com/meccdn/meccdn/internal/simnet"
	"github.com/meccdn/meccdn/internal/vclock"
)

// routerFixture is a router over three edge cache servers. When built
// with health (buildHealthFixture), reg/checker drive the probe control
// plane in virtual time.
type routerFixture struct {
	net     *simnet.Network
	router  *Router
	servers []*CacheServer
	reg     *health.Registry
	checker *health.Checker
}

func buildRouterFixture(t *testing.T, seed int64) *routerFixture {
	t.Helper()
	return buildFixture(t, seed, nil)
}

// buildHealthFixture builds the same topology with a probe-fed health
// registry attached; servers are registered but not yet admitted (no
// probe has run).
func buildHealthFixture(t *testing.T, seed int64) *routerFixture {
	t.Helper()
	return buildFixture(t, seed, &health.Config{
		ProbeInterval: time.Second,
		DownAfter:     3,
		UpAfter:       2,
		MinDwell:      -1, // dwell would hold back the soft transitions tests drive
		Clock:         &vclock.Fixed{},
	})
}

func buildFixture(t *testing.T, seed int64, hc *health.Config) *routerFixture {
	t.Helper()
	n := simnet.New(seed)
	n.AddNode("hub")
	rt := NewRouter("mycdn.ciab.test.")
	fx := &routerFixture{net: n, router: rt}
	if hc != nil {
		fx.reg = health.New(*hc)
		rt.UseHealth(fx.reg)
		fx.checker = &health.Checker{
			Registry: fx.reg,
			Prober:   &CacheProber{Endpoint: n.Node("hub").Endpoint()},
		}
	}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("cache-%d", i)
		n.AddNode(name)
		n.AddLink("hub", name, simnet.Constant(time.Millisecond), 0)
		s := NewCacheServer(n.Node(name), CacheServerConfig{
			Name: name, Site: "mec-1", Tier: TierEdge, CapacityBytes: 1 << 20,
			Domains: []string{"mycdn.ciab.test."},
		})
		rt.AddServer(s, geoip.Location{X: float64(i * 100), Name: name})
		fx.servers = append(fx.servers, s)
	}
	return fx
}

// probe runs one deterministic probe sweep.
func (fx *routerFixture) probe(t *testing.T) {
	t.Helper()
	fx.checker.RunOnce(context.Background())
}

// down demotes the named server through the registry's state machine:
// DownAfter consecutive failed probes.
func (fx *routerFixture) down(name string) {
	for i := 0; i < fx.reg.Config().DownAfter; i++ {
		fx.reg.ReportFailure(name)
	}
}

func routerQuery(t *testing.T, rt *Router, qname string, client string) *dnswire.Message {
	t.Helper()
	q := new(dnswire.Message)
	q.SetQuestion(qname, dnswire.TypeA)
	req := &dnsserver.Request{Msg: q, Transport: "test"}
	if client != "" {
		req.Client = netip.MustParseAddrPort(client)
	}
	return dnsserver.Resolve(context.Background(), dnsserver.Chain(rt), req)
}

func TestRouterAnswersWithCacheServer(t *testing.T) {
	fx := buildRouterFixture(t, 1)
	resp := routerQuery(t, fx.router, "video.demo1.mycdn.ciab.test.", "198.51.100.1:5300")
	if resp.Rcode != dnswire.RcodeSuccess || len(resp.Answers) != 1 {
		t.Fatalf("rcode=%v answers=%v", resp.Rcode, resp.Answers)
	}
	got := resp.Answers[0].(*dnswire.A).Addr
	found := false
	for _, s := range fx.servers {
		if s.Addr() == got {
			found = true
		}
	}
	if !found {
		t.Errorf("answer %v is not a registered cache server", got)
	}
	if ttl := resp.Answers[0].Header().TTL; ttl != 30 {
		t.Errorf("ttl = %d", ttl)
	}
}

func TestRouterStableMapping(t *testing.T) {
	fx := buildRouterFixture(t, 2)
	first := routerQuery(t, fx.router, "video.x.mycdn.ciab.test.", "198.51.100.1:5300").Answers[0].(*dnswire.A).Addr
	for i := 0; i < 5; i++ {
		got := routerQuery(t, fx.router, "video.x.mycdn.ciab.test.", "198.51.100.1:5300").Answers[0].(*dnswire.A).Addr
		if got != first {
			t.Fatal("mapping not stable across queries")
		}
	}
}

func TestRouterFallsThroughForOtherDomains(t *testing.T) {
	fx := buildRouterFixture(t, 3)
	resp := routerQuery(t, fx.router, "www.unrelated.example.", "")
	if resp.Rcode != dnswire.RcodeRefused {
		t.Errorf("rcode = %v, want chain fallthrough REFUSED", resp.Rcode)
	}
}

func TestRouterNoDataForNonA(t *testing.T) {
	fx := buildRouterFixture(t, 4)
	q := new(dnswire.Message)
	q.SetQuestion("video.demo1.mycdn.ciab.test.", dnswire.TypeAAAA)
	resp := dnsserver.Resolve(context.Background(), dnsserver.Chain(fx.router), &dnsserver.Request{Msg: q})
	if resp.Rcode != dnswire.RcodeSuccess || len(resp.Answers) != 0 {
		t.Errorf("rcode=%v answers=%v", resp.Rcode, resp.Answers)
	}
}

func TestRouterSkipsUnhealthy(t *testing.T) {
	fx := buildHealthFixture(t, 5)
	fx.probe(t)
	key := "video.y.mycdn.ciab.test."
	primary := fx.router.Route(key, ClientInfo{})
	fx.down(primary.Server.Name)
	second := fx.router.Route(key, ClientInfo{})
	if second == nil {
		t.Fatal("no server after failure")
	}
	if second.Server.Name == primary.Server.Name {
		t.Error("unhealthy server still selected")
	}
}

func TestRouterAllDownFallsBackToParent(t *testing.T) {
	fx := buildHealthFixture(t, 6)
	fx.probe(t)
	for _, s := range fx.servers {
		fx.down(s.Name)
	}
	parent := netip.MustParseAddr("203.0.113.200")
	fx.router.Parent = parent
	resp := routerQuery(t, fx.router, "video.demo1.mycdn.ciab.test.", "")
	got, ok := Referral(resp)
	if !ok || got != parent {
		t.Errorf("referral = %v (%v), want parent %v\n%v", got, ok, parent, resp)
	}
}

func TestReferralDetection(t *testing.T) {
	// A plain positive answer is not a referral.
	fx := buildRouterFixture(t, 60)
	resp := routerQuery(t, fx.router, "video.demo1.mycdn.ciab.test.", "")
	if _, ok := Referral(resp); ok {
		t.Error("positive answer detected as referral")
	}
	// A zone delegation with a different NS name is not a tier
	// referral either.
	m := new(dnswire.Message)
	m.Authorities = []dnswire.RR{&dnswire.NS{
		Hdr: dnswire.RRHeader{Name: "x.test.", Type: dnswire.TypeNS, Class: dnswire.ClassINET, TTL: 30},
		NS:  "ns1.x.test.",
	}}
	if _, ok := Referral(m); ok {
		t.Error("ordinary delegation detected as tier referral")
	}
}

func TestRouterAllDownNoParentServfails(t *testing.T) {
	fx := buildHealthFixture(t, 7)
	fx.probe(t)
	for _, s := range fx.servers {
		fx.down(s.Name)
	}
	resp := routerQuery(t, fx.router, "video.demo1.mycdn.ciab.test.", "")
	if resp.Rcode != dnswire.RcodeServerFailure {
		t.Errorf("rcode = %v", resp.Rcode)
	}
}

func TestRouterProbingJoinsRingAfterFirstSuccess(t *testing.T) {
	fx := buildHealthFixture(t, 50)
	// Registered but never probed: not routable, not in the ring.
	if got := fx.router.Ring.Members(); len(got) != 0 {
		t.Fatalf("unprobed servers already in the ring: %v", got)
	}
	if sel := fx.router.Route("video.x.mycdn.ciab.test.", ClientInfo{}); sel != nil {
		t.Fatalf("probing server selected: %s", sel.Server.Name)
	}
	fx.probe(t)
	if got := fx.router.Ring.Members(); len(got) != 3 {
		t.Fatalf("ring after first probe sweep = %v, want all 3", got)
	}
	if sel := fx.router.Route("video.x.mycdn.ciab.test.", ClientInfo{}); sel == nil {
		t.Fatal("no selection after servers were admitted")
	}
}

// TestRouterDemotesDeadCache is the acceptance scenario: a cache that
// stops answering probes is demoted to down and removed from routing
// within DownAfter probe sweeps.
func TestRouterDemotesDeadCache(t *testing.T) {
	fx := buildHealthFixture(t, 51)
	fx.probe(t)
	key := "video.kill.mycdn.ciab.test."
	victim := fx.router.Route(key, ClientInfo{}).Server
	// The server dies outright: its node stops answering anything.
	fx.net.Node(victim.Name).SetHandler(nil)
	for i := 0; i < 3; i++ { // DownAfter = 3
		fx.probe(t)
	}
	if st, _ := fx.reg.State(victim.Name); st != health.StateDown {
		t.Fatalf("victim state = %v, want down", st)
	}
	for _, m := range fx.router.Ring.Members() {
		if m == victim.Name {
			t.Fatal("down server still in the hash ring")
		}
	}
	for i := 0; i < 20; i++ {
		sel := fx.router.Route(fmt.Sprintf("k%d.mycdn.ciab.test.", i), ClientInfo{})
		if sel == nil {
			t.Fatal("survivors not serving")
		}
		if sel.Server.Name == victim.Name {
			t.Fatal("down server still selected")
		}
	}
	// Recovery: the node answers again; UpAfter successes re-admit it.
	NewCacheServer(fx.net.Node(victim.Name), CacheServerConfig{
		Name: victim.Name, Site: "mec-1", Tier: TierEdge, CapacityBytes: 1 << 20,
		Domains: []string{"mycdn.ciab.test."},
	})
	fx.probe(t)
	fx.probe(t)
	if st, _ := fx.reg.State(victim.Name); st != health.StateHealthy {
		t.Fatalf("victim state after recovery = %v, want healthy", st)
	}
	found := false
	for _, m := range fx.router.Ring.Members() {
		if m == victim.Name {
			found = true
		}
	}
	if !found {
		t.Fatal("recovered server not re-admitted to the ring")
	}
}

// TestRouterAllDegradedServesBestEffort: a server set that is degraded
// but not down keeps serving rather than failing over to the parent.
func TestRouterAllDegradedServesBestEffort(t *testing.T) {
	fx := buildHealthFixture(t, 52)
	fx.probe(t)
	for _, s := range fx.servers {
		fx.reg.ReportFailure(s.Name) // one failure, dwell disabled: degraded
		if st, _ := fx.reg.State(s.Name); st != health.StateDegraded {
			t.Fatalf("%s state = %v, want degraded", s.Name, st)
		}
	}
	fx.router.Parent = netip.MustParseAddr("203.0.113.200")
	resp := routerQuery(t, fx.router, "video.demo1.mycdn.ciab.test.", "")
	if _, ok := Referral(resp); ok {
		t.Fatal("all-degraded set fell back to the parent; want best-effort local serving")
	}
	if resp.Rcode != dnswire.RcodeSuccess || len(resp.Answers) != 1 {
		t.Fatalf("rcode=%v answers=%v", resp.Rcode, resp.Answers)
	}
}

// TestRouterPrefersHealthyOverDegraded: degraded ring owners lose to a
// healthy non-owner only when no healthy owner exists; here we degrade
// the primary and check the healthy replica wins.
func TestRouterPrefersHealthyOverDegraded(t *testing.T) {
	fx := buildHealthFixture(t, 53)
	fx.probe(t)
	key := "video.pref.mycdn.ciab.test."
	primary := fx.router.Route(key, ClientInfo{}).Server
	fx.reg.ReportFailure(primary.Name)
	if st, _ := fx.reg.State(primary.Name); st != health.StateDegraded {
		t.Fatalf("primary state = %v, want degraded", st)
	}
	sel := fx.router.Route(key, ClientInfo{})
	if sel == nil {
		t.Fatal("no selection")
	}
	if sel.Server.Name == primary.Name {
		t.Error("degraded primary selected over a healthy replica")
	}
}

// TestRouterSetHealthyStillProbeVisible: the legacy data-plane flag is
// not bypassed by the registry — a server with the flag off refuses
// probes, so the control plane demotes it too.
func TestRouterSetHealthyStillProbeVisible(t *testing.T) {
	fx := buildHealthFixture(t, 55)
	fx.probe(t)
	victim := fx.servers[1]
	victim.SetHealthy(false)
	for i := 0; i < 3; i++ {
		fx.probe(t)
	}
	if st, _ := fx.reg.State(victim.Name); st != health.StateDown {
		t.Fatalf("state = %v, want down (probes must see the data-plane flag)", st)
	}
}

func TestAvailabilityFirstPrefersContentHolder(t *testing.T) {
	fx := buildRouterFixture(t, 9)
	fx.router.Replicas = 3 // all servers are candidates
	key := "video.demo1.mycdn.ciab.test."
	// Give the content to a specific server that is NOT necessarily
	// the ring primary.
	holder := fx.servers[2]
	holder.Warm(Content{Name: key, Size: 10})
	sel := fx.router.Route(key, ClientInfo{})
	if sel.Server.Name != holder.Name {
		t.Errorf("selected %s, want content holder %s", sel.Server.Name, holder.Name)
	}
}

func TestRoundRobinCycles(t *testing.T) {
	fx := buildRouterFixture(t, 12)
	rr := &RoundRobin{}
	fx.router.Policy = rr
	fx.router.Replicas = 3
	seen := map[string]int{}
	for i := 0; i < 9; i++ {
		sel := fx.router.Route("const-key.mycdn.ciab.test.", ClientInfo{})
		seen[sel.Server.Name]++
	}
	if len(seen) != 3 {
		t.Fatalf("round robin used %d servers: %v", len(seen), seen)
	}
	for name, n := range seen {
		if n != 3 {
			t.Errorf("%s selected %d times, want 3", name, n)
		}
	}
}

func TestLeastLoadedPolicy(t *testing.T) {
	fx := buildRouterFixture(t, 13)
	fx.router.Policy = LeastLoaded{}
	fx.router.Replicas = 3
	// Load up two servers via direct fetches.
	ep := fx.net.Node("hub").Endpoint()
	for i := 0; i < 4; i++ {
		_, _ = Fetch(ep, fx.servers[0].Addr(), "mycdn.ciab.test.", "junk", 100*time.Millisecond)
		_, _ = Fetch(ep, fx.servers[1].Addr(), "mycdn.ciab.test.", "junk", 100*time.Millisecond)
	}
	sel := fx.router.Route("lb.mycdn.ciab.test.", ClientInfo{})
	if sel.Server.Name != "cache-2" {
		t.Errorf("least-loaded picked %s", sel.Server.Name)
	}
}

func TestPolicyNames(t *testing.T) {
	for _, p := range []SelectionPolicy{AvailabilityFirst{}, &RoundRobin{}, LeastLoaded{}} {
		if p.Name() == "" {
			t.Errorf("%T has empty name", p)
		}
	}
}

func TestRouterEmpty(t *testing.T) {
	rt := NewRouter("empty.test.")
	if sel := rt.Route("x.empty.test.", ClientInfo{}); sel != nil {
		t.Error("selection from empty router")
	}
}

// TestOnlyINClassIsAnswered: the zone and the router hold IN records
// only. A question of class IN or ANY gets them, authoritatively; one
// of class CH or HS goes on down the chain (here to its end, which
// refuses) and gets no records.
func TestOnlyINClassIsAnswered(t *testing.T) {
	zone := dnsserver.NewZone("z.test.")
	if err := zone.AddA("www.z.test.", 60, netip.MustParseAddr("192.0.2.1")); err != nil {
		t.Fatal(err)
	}
	rt := NewRouter("cdn.test.")
	rt.SetRoutes(routeTable(t, map[string]lpm.PoP{"10.0.0.0/8": 1}))
	rt.MapPoP(1, netip.MustParseAddr("203.0.113.1"))
	for _, p := range []struct {
		plugin dnsserver.Plugin
		qname  string
	}{
		{dnsserver.NewZonePlugin(zone), "www.z.test."},
		{rt, "video.cdn.test."},
	} {
		for _, c := range []struct {
			class    dnswire.Class
			answered bool
		}{
			{dnswire.ClassINET, true},
			{3, false}, // CH
			{4, false}, // HS
			{dnswire.ClassANY, true},
		} {
			q := new(dnswire.Message)
			q.SetQuestion(p.qname, dnswire.TypeA)
			q.Questions[0].Class = c.class
			resp := dnsserver.Resolve(context.Background(), dnsserver.Chain(p.plugin),
				&dnsserver.Request{Msg: q, Client: netip.MustParseAddrPort("10.1.2.3:5300")})
			if resp == nil {
				t.Fatalf("%s, %v: no reply", p.plugin.Name(), c.class)
			}
			if answered := len(resp.Answers) > 0; answered != c.answered || resp.Authoritative != c.answered {
				t.Errorf("%s, %v: %d answers, AA=%v, rcode %v; want answered=%v",
					p.plugin.Name(), c.class, len(resp.Answers), resp.Authoritative, resp.Rcode, c.answered)
			}
			for _, rr := range resp.Answers {
				if rr.Header().Class != dnswire.ClassINET {
					t.Errorf("%s, %v: answer %v is not class IN", p.plugin.Name(), c.class, rr)
				}
			}
		}
	}
}
