package meccdn

import (
	"strings"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/cdn"
	"github.com/meccdn/meccdn/internal/dnsserver"
	"github.com/meccdn/meccdn/internal/geoip"
	"github.com/meccdn/meccdn/internal/health"
	"github.com/meccdn/meccdn/internal/lte"
	"github.com/meccdn/meccdn/internal/simnet"
)

// TestCrossTierReferralChase builds the paper's tier story: the edge
// C-DNS has no cache for the domain, so it refers the client to a
// mid-tier C-DNS running alongside the core, which answers with a
// mid-tier cache.
func TestCrossTierReferralChase(t *testing.T) {
	tb := lte.New(lte.Config{Seed: 30})

	// Mid-tier C-DNS + cache on the LAN alongside the core.
	midCacheNode := tb.AddLAN("mid-cache")
	midCache := cdn.NewCacheServer(midCacheNode, cdn.CacheServerConfig{
		Name: "mid-cache", Tier: cdn.TierMid, CapacityBytes: 1 << 20,
		Domains: []string{testDomain},
	})
	midCache.Warm(cdn.Content{Name: "video.demo1." + testDomain, Size: 100})
	midRouter := cdn.NewRouter(testDomain)
	midRouter.AddServer(midCache, geoip.Location{Name: "mid"})
	midCDNSNode := tb.AddLAN("mid-cdns")
	dnsserver.Attach(midCDNSNode, dnsserver.Chain(midRouter), nil, simnet.Constant(time.Millisecond))

	// Edge C-DNS with NO local cache servers, parented to the mid.
	edgeRouter := cdn.NewRouter(testDomain)
	edgeRouter.Parent = midCDNSNode.Addr
	edgeCDNSNode := tb.AddMEC("edge-cdns")
	dnsserver.Attach(edgeCDNSNode, dnsserver.Chain(edgeRouter), nil, simnet.Constant(time.Millisecond))

	ue := &UEClient{
		EP:  tb.Net.Node(lte.NodeUE).Endpoint(),
		MEC: addrPortOf(edgeCDNSNode.Addr),
	}
	res, err := ue.Resolve("video.demo1." + testDomain)
	if err != nil {
		t.Fatal(err)
	}
	if res.Addr != midCache.Addr() {
		t.Errorf("answer = %v, want mid-tier cache %v", res.Addr, midCache.Addr())
	}
	if !strings.HasSuffix(res.Source, "+tier") {
		t.Errorf("source = %q, want tier-chase marker", res.Source)
	}
	// The chase pays the edge RTT plus the mid-tier RTT.
	if res.RTT < 40*time.Millisecond {
		t.Errorf("tier chase suspiciously fast: %v", res.RTT)
	}
}

// TestReferralChaseBounded ensures a referral loop cannot run away.
func TestReferralChaseBounded(t *testing.T) {
	tb := lte.New(lte.Config{Seed: 31})
	// Two empty routers pointing at each other.
	aNode := tb.AddMEC("cdns-a")
	bNode := tb.AddMEC("cdns-b")
	a := cdn.NewRouter(testDomain)
	a.Parent = bNode.Addr
	b := cdn.NewRouter(testDomain)
	b.Parent = aNode.Addr
	dnsserver.Attach(aNode, dnsserver.Chain(a), nil, nil)
	dnsserver.Attach(bNode, dnsserver.Chain(b), nil, nil)

	ue := &UEClient{EP: tb.Net.Node(lte.NodeUE).Endpoint(), MEC: addrPortOf(aNode.Addr)}
	res, err := ue.Resolve("video.demo1." + testDomain)
	if err != nil {
		t.Fatal(err)
	}
	// Bounded chase terminates with no address rather than hanging.
	if res.Addr.IsValid() {
		t.Errorf("loop produced an address: %v", res.Addr)
	}
}

func TestSiteScaling(t *testing.T) {
	d := deploy(t, 32, nil)
	name := "video.demo1." + testDomain
	before, err := d.ue.Resolve(name)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.site.Caches) != 2 {
		t.Fatalf("initial caches = %d", len(d.site.Caches))
	}

	// Scale up: the new instance gets its own cluster IP; the C-DNS
	// stays reachable at its fixed cluster IP throughout.
	added, err := d.site.AddCache()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.site.Caches) != 3 || added.Name == "" {
		t.Fatalf("after scale-up caches = %d", len(d.site.Caches))
	}
	after, err := d.ue.Resolve(name)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Addr.IsValid() {
		t.Fatal("resolution broken after scale-up")
	}

	final, err := d.ue.ResolveAndFetch(testDomain, name)
	if err != nil {
		t.Fatal(err)
	}
	if !final.Content.Served() {
		t.Errorf("content not served after scale-up: %+v", final.Content)
	}
	_ = before
}

// TestCacheFailureResilience kills the cache instance the router is
// steering a name to and verifies the site keeps serving from the
// survivor — the availability property the health checks buy. The
// kill is the data-plane SetHealthy switch; DownAfter probe sweeps
// demote the victim out of routing.
func TestCacheFailureResilience(t *testing.T) {
	d := deploy(t, 34, func(c *SiteConfig) {
		c.Health = &health.Config{DownAfter: 2, UpAfter: 1, MinDwell: -1}
	})
	d.site.ProbeOnce() // admit the probing caches into the ring
	name := "video.demo1." + testDomain
	first, err := d.ue.ResolveAndFetch(testDomain, name)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Content.Served() {
		t.Fatalf("baseline not served: %+v", first.Content)
	}
	// Find and drain the instance that served it.
	owner := d.site.Router.Ring.Owner(name)
	var victim *cdn.CacheServer
	for _, c := range d.site.Caches {
		if c.Name == owner {
			victim = c
		}
	}
	if victim == nil {
		t.Fatal("no ring owner among caches")
	}
	victim.SetHealthy(false)
	d.site.ProbeOnce()
	d.site.ProbeOnce() // DownAfter = 2
	if st, _ := d.site.Health.State(victim.Name); st != health.StateDown {
		t.Fatalf("victim %s state = %v after two failed sweeps, want down", victim.Name, st)
	}
	// Expire the cached DNS answer so the router re-selects.
	d.tb.Net.Clock.RunUntil(d.tb.Net.Now() + time.Minute)

	second, err := d.ue.ResolveAndFetch(testDomain, name)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Content.Served() {
		t.Fatalf("not served after failure: %+v", second.Content)
	}
	if second.Resolve.Addr == first.Resolve.Addr {
		t.Error("router still points at the dead instance")
	}
}
