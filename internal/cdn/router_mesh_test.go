package cdn

import (
	"net/netip"
	"testing"

	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/lpm"
	"github.com/meccdn/meccdn/internal/mesh"
	"github.com/meccdn/meccdn/internal/vclock"
)

// meshView builds a peer view holding one eligible peer announcing
// the given names.
func meshView(t *testing.T, site, addr string, names ...string) *mesh.View {
	t.Helper()
	a := mesh.NewAgent(mesh.Config{Site: "local", Clock: &vclock.Fixed{}})
	d := mesh.NewDigest(0, 0)
	for _, n := range names {
		d.Add(n)
	}
	ann, err := mesh.EncodeAnnounce(site, addr, 1, d.Entries(), 0, d.Hashes(), d.Bitmap())
	if err != nil {
		t.Fatal(err)
	}
	if resp := a.HandleDatagram(ann); len(resp) < 6 || string(resp[:6]) != "DIGEST" {
		t.Fatalf("announce rejected: %q", resp)
	}
	return a.View()
}

func TestRoutePeerSteersMiss(t *testing.T) {
	fx := buildRouterFixture(t, 3)
	const key = "video.flash.mycdn.ciab.test."
	fx.router.UseMesh(meshView(t, "site-b", "10.8.0.2", key))

	// Local servers exist but none holds the object: the peer that
	// announced it wins over a local fill.
	selected, peer, steered := fx.router.RoutePeer(key, ClientInfo{})
	if !steered || selected != nil {
		t.Fatalf("RoutePeer = (%v, %+v, %v), want steer", selected, peer, steered)
	}
	if peer.Name != "site-b" || peer.Addr != netip.MustParseAddr("10.8.0.2") {
		t.Fatalf("steered to %+v", peer)
	}

	// Once a local server holds the object, local wins again.
	fx.servers[0].Warm(Content{Name: key, Size: 100})
	fx.servers[1].Warm(Content{Name: key, Size: 100})
	fx.servers[2].Warm(Content{Name: key, Size: 100})
	selected, _, steered = fx.router.RoutePeer(key, ClientInfo{})
	if steered || selected == nil {
		t.Fatalf("RoutePeer after warm = (%v, steered=%v), want local", selected, steered)
	}

	// Names nobody announced fall through to local selection.
	selected, _, steered = fx.router.RoutePeer("video.cold.mycdn.ciab.test.", ClientInfo{})
	if steered || selected == nil {
		t.Fatal("unannounced key should route locally")
	}
}

func TestRoutePeerWithoutMeshMatchesRoute(t *testing.T) {
	fx := buildRouterFixture(t, 4)
	const key = "video.demo.mycdn.ciab.test."
	want := fx.router.Route(key, ClientInfo{})
	got, _, steered := fx.router.RoutePeer(key, ClientInfo{})
	if steered || got == nil || want == nil || got.Server.Name != want.Server.Name {
		t.Fatalf("RoutePeer = %v steered=%v, Route = %v", got, steered, want)
	}
}

func TestServeDNSPeerReferral(t *testing.T) {
	fx := buildRouterFixture(t, 5)
	fx.router.Parent = netip.MustParseAddr("192.0.2.50")
	const key = "video.flash.mycdn.ciab.test."
	fx.router.UseMesh(meshView(t, "site-b", "10.8.0.2", key))

	resp := routerQuery(t, fx.router, key, "198.51.100.1:5300")
	next, ok := Referral(resp)
	if !ok {
		t.Fatalf("no referral in %v", resp)
	}
	if next != netip.MustParseAddr("10.8.0.2") {
		t.Fatalf("referral to %v, want peer 10.8.0.2", next)
	}

	// Unannounced content still answers locally, not via referral.
	resp = routerQuery(t, fx.router, "video.cold.mycdn.ciab.test.", "198.51.100.1:5300")
	if len(resp.Answers) != 1 {
		t.Fatalf("local answer missing: %v", resp)
	}
}

func TestPeerLookupNoMesh(t *testing.T) {
	fx := buildRouterFixture(t, 6)
	if fx.router.Mesh() != nil {
		t.Fatal("a mesh view with no mesh attached")
	}
	if _, _, steered := fx.router.RoutePeer("anything", ClientInfo{}); steered {
		t.Fatal("RoutePeer steered to a peer with no mesh attached")
	}
}

func TestPoPPeerFallback(t *testing.T) {
	fx := buildRouterFixture(t, 7)
	b := lpm.NewBuilder()
	if err := b.Add(netip.MustParsePrefix("198.51.100.0/24"), lpm.PoP(7)); err != nil {
		t.Fatal(err)
	}
	fx.router.SetRoutes(b.Build())
	// PoP 7 has no address: a dead PoP.

	// Without a mesh the route is unmapped and falls to local policy.
	resp := routerQuery(t, fx.router, "video.demo.mycdn.ciab.test.", "198.51.100.9:5300")
	if len(resp.Answers) != 1 {
		t.Fatalf("unmapped PoP without mesh: %v", resp)
	}

	// With a mesh the dead PoP delegates to the nearest healthy peer.
	fx.router.UseMesh(meshView(t, "site-b", "10.8.0.2", "whatever"))
	resp = routerQuery(t, fx.router, "video.demo.mycdn.ciab.test.", "198.51.100.9:5300")
	next, ok := Referral(resp)
	if !ok || next != netip.MustParseAddr("10.8.0.2") {
		t.Fatalf("peer fallback referral = %v ok=%v", next, ok)
	}

	// A live PoP still answers directly, mesh or not.
	fx.router.MapPoP(lpm.PoP(7), netip.MustParseAddr("203.0.113.7"))
	resp = routerQuery(t, fx.router, "video.demo.mycdn.ciab.test.", "198.51.100.9:5300")
	if len(resp.Answers) != 1 {
		t.Fatalf("live PoP answer missing: %v", resp)
	}
	if got := resp.Answers[0].(*dnswire.A).Addr; got != netip.MustParseAddr("203.0.113.7") {
		t.Fatalf("live PoP answered %v", got)
	}
}
