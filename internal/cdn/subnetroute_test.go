package cdn

import (
	"context"
	"net/netip"
	"testing"

	"github.com/meccdn/meccdn/internal/dnsserver"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/lpm"
)

// routeTable builds an LPM table from (prefix, pop) pairs.
func routeTable(t *testing.T, rows map[string]lpm.PoP) *lpm.Table {
	t.Helper()
	b := lpm.NewBuilder()
	for p, pop := range rows {
		if err := b.Add(netip.MustParsePrefix(p), pop); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// subnetQuery asks the router for qname disclosing subnet via ECS.
func subnetQuery(t *testing.T, rt *Router, qname, subnet string) *dnswire.Message {
	t.Helper()
	q := new(dnswire.Message)
	q.SetQuestion(qname, dnswire.TypeA)
	opt := q.SetEDNS(1232)
	opt.Options = append(opt.Options, dnswire.NewECSOption(netip.MustParsePrefix(subnet)))
	return dnsserver.Resolve(context.Background(), dnsserver.Chain(rt),
		&dnsserver.Request{Msg: q, Client: netip.MustParseAddrPort("192.0.2.53:5300")})
}

func TestSubnetRouteAnswersMappedPoP(t *testing.T) {
	fx := buildRouterFixture(t, 21)
	fx.router.SetRoutes(routeTable(t, map[string]lpm.PoP{
		"10.1.0.0/16": 1,
		"10.2.3.0/24": 2,
	}))
	fx.router.MapPoP(1, netip.MustParseAddr("203.0.113.1"))
	fx.router.MapPoP(2, netip.MustParseAddr("203.0.113.2"))

	resp := subnetQuery(t, fx.router, "video.a.mycdn.ciab.test.", "10.1.5.0/24")
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %v", resp.Answers)
	}
	if got := resp.Answers[0].(*dnswire.A).Addr; got != netip.MustParseAddr("203.0.113.1") {
		t.Errorf("answer = %v, want PoP 1's address", got)
	}
	// Scope = the matched route length, not the disclosed /24: the
	// answer is valid for the whole /16.
	if ecs, ok := resp.ECS(); !ok || ecs.ScopePrefix != 16 || ecs.SourcePrefix != 24 {
		t.Errorf("ECS = %+v %v, want scope 16 source 24", ecs, ok)
	}

	resp = subnetQuery(t, fx.router, "video.a.mycdn.ciab.test.", "10.2.3.0/24")
	if got := resp.Answers[0].(*dnswire.A).Addr; got != netip.MustParseAddr("203.0.113.2") {
		t.Errorf("answer = %v, want PoP 2's address", got)
	}
	if ecs, _ := resp.ECS(); ecs.ScopePrefix != 24 {
		t.Errorf("scope = %d, want 24 (exact /24 route)", ecs.ScopePrefix)
	}
}

func TestSubnetRouteMissFallsToPolicy(t *testing.T) {
	fx := buildRouterFixture(t, 22)
	fx.router.SetRoutes(routeTable(t, map[string]lpm.PoP{"10.1.0.0/16": 1}))
	fx.router.MapPoP(1, netip.MustParseAddr("203.0.113.1"))

	resp := subnetQuery(t, fx.router, "video.b.mycdn.ciab.test.", "198.51.100.0/24")
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %v", resp.Answers)
	}
	got := resp.Answers[0].(*dnswire.A).Addr
	found := false
	for _, s := range fx.servers {
		if s.Addr() == got {
			found = true
		}
	}
	if !found {
		t.Errorf("miss did not fall through to policy routing: answer %v", got)
	}
	// The table looked but did not discriminate: scope 0, the answer
	// is as good for any subnet (RFC 7871 §7.2.2 semantics).
	if ecs, ok := resp.ECS(); !ok || ecs.ScopePrefix != 0 {
		t.Errorf("ECS = %+v %v, want scope 0 on table miss", ecs, ok)
	}
}

func TestSubnetRouteUnmappedPoPFallsToPolicy(t *testing.T) {
	fx := buildRouterFixture(t, 23)
	fx.router.SetRoutes(routeTable(t, map[string]lpm.PoP{"10.1.0.0/16": 9}))
	// PoP 9 deliberately never mapped or bound.
	resp := subnetQuery(t, fx.router, "video.c.mycdn.ciab.test.", "10.1.1.0/24")
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %v", resp.Answers)
	}
	if ecs, ok := resp.ECS(); !ok || ecs.ScopePrefix != 0 {
		t.Errorf("ECS = %+v %v, want scope 0 for unmapped PoP", ecs, ok)
	}
}

func TestSubnetRouteWithoutECSUsesSourceAddress(t *testing.T) {
	fx := buildRouterFixture(t, 24)
	fx.router.SetRoutes(routeTable(t, map[string]lpm.PoP{"10.0.0.0/8": 1}))
	fx.router.MapPoP(1, netip.MustParseAddr("203.0.113.1"))
	// No ECS: the resolver's source address is the only signal — the
	// conflation the paper critiques, kept as the fallback.
	resp := routerQuery(t, fx.router, "video.d.mycdn.ciab.test.", "10.44.0.9:5300")
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %v", resp.Answers)
	}
	if got := resp.Answers[0].(*dnswire.A).Addr; got != netip.MustParseAddr("203.0.113.1") {
		t.Errorf("answer = %v, want PoP 1 via source address", got)
	}
}

func TestSubnetRouteReloadSwapsTable(t *testing.T) {
	fx := buildRouterFixture(t, 27)
	fx.router.MapPoP(1, netip.MustParseAddr("203.0.113.1"))
	fx.router.MapPoP(2, netip.MustParseAddr("203.0.113.2"))
	fx.router.SetRoutes(routeTable(t, map[string]lpm.PoP{"10.1.0.0/16": 1}))

	if got := subnetQuery(t, fx.router, "v.mycdn.ciab.test.", "10.1.1.0/24").Answers[0].(*dnswire.A).Addr; got != netip.MustParseAddr("203.0.113.1") {
		t.Fatalf("before reload: %v", got)
	}
	fx.router.SetRoutes(routeTable(t, map[string]lpm.PoP{"10.1.0.0/16": 2}))
	if got := subnetQuery(t, fx.router, "v.mycdn.ciab.test.", "10.1.1.0/24").Answers[0].(*dnswire.A).Addr; got != netip.MustParseAddr("203.0.113.2") {
		t.Errorf("after reload: %v, want PoP 2", got)
	}
	if rows := fx.router.Routes().Rows(); rows != 1 {
		t.Errorf("Routes().Rows() = %d, want 1", rows)
	}
}
