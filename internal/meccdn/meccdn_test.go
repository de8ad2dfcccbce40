package meccdn

import (
	"net/netip"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/cdn"
	"github.com/meccdn/meccdn/internal/dnsserver"
	"github.com/meccdn/meccdn/internal/lte"
	"github.com/meccdn/meccdn/internal/simnet"
)

const testDomain = "mycdn.ciab.test."

// deployment is a full testbed: MEC site + origin + provider L-DNS.
type deployment struct {
	tb   *lte.Testbed
	site *Site
	ue   *UEClient
}

func deploy(t *testing.T, seed int64, mutate func(*SiteConfig)) *deployment {
	t.Helper()
	tb := lte.New(lte.Config{Seed: seed})

	// Origin in the cloud, over WAN.
	originNode := tb.AddWAN("origin", 1)
	origin := cdn.NewOrigin()
	cat := cdn.NewCatalog(testDomain)
	cat.Publish(cdn.Content{Name: "video.demo1." + testDomain, Size: 4096})
	cat.Publish(cdn.Content{Name: "img.demo1." + testDomain, Size: 1024})
	origin.AddCatalog(cat)
	cdn.NewOriginServer(originNode, origin, simnet.Constant(2*time.Millisecond))

	// Provider L-DNS on the LAN behind the core: a plain zone server
	// that can answer non-MEC names.
	provNode := tb.AddLAN("provider-ldns")
	provZone := dnsserver.NewZone("web.example.")
	if err := provZone.AddA("www.web.example.", 300, tb.Net.Node("origin").Addr); err != nil {
		t.Fatal(err)
	}
	dnsserver.Attach(provNode, dnsserver.Chain(dnsserver.NewZonePlugin(provZone)), nil, simnet.Constant(500*time.Microsecond))

	cfg := SiteConfig{
		Domain:       testDomain,
		CacheServers: 2,
		OriginAddr:   originNode.Addr,
		ProviderLDNS: addrPort(tb, "provider-ldns"),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	site, err := DeploySite(tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ue := &UEClient{
		EP:       tb.Net.Node(lte.NodeUE).Endpoint(),
		MEC:      site.LDNS,
		Provider: addrPort(tb, "provider-ldns"),
	}
	return &deployment{tb: tb, site: site, ue: ue}
}

func addrPort(tb *lte.Testbed, node string) netip.AddrPort {
	return netip.AddrPortFrom(tb.Net.Node(node).Addr, 53)
}

func addrPortOf(a netip.Addr) netip.AddrPort { return netip.AddrPortFrom(a, 53) }

func TestSingleHopEdgeResolution(t *testing.T) {
	d := deploy(t, 1, nil)
	res, err := d.ue.Resolve("video.demo1." + testDomain)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Addr.IsValid() {
		t.Fatalf("no address in %v", res.Msg)
	}
	// The answer must be a cluster IP, not a cache host IP: the
	// public-IP-reuse property.
	if !strings.HasPrefix(res.Addr.String(), "10.96.") {
		t.Errorf("answer %v is not a cluster IP", res.Addr)
	}
	// Resolution must be edge-contained: ~20ms of air plus sub-ms MEC
	// hops, nowhere near LAN/WAN budgets.
	if res.RTT > 30*time.Millisecond {
		t.Errorf("MEC resolution took %v", res.RTT)
	}
	if res.Source != "mec" {
		t.Errorf("source = %s", res.Source)
	}
}

// TestSiteHubTimesEveryQuery: the site's hub times each query the MEC
// L-DNS serves, in virtual time, and counts the same queries its
// Metrics link does.
func TestSiteHubTimesEveryQuery(t *testing.T) {
	d := deploy(t, 1, nil)
	const n = 10
	for i := 0; i < n; i++ {
		name := []string{"video.demo1.", "img.demo1."}[i%2] + testDomain
		if _, err := d.ue.Resolve(name); err != nil {
			t.Fatal(err)
		}
	}
	timed, counted := d.site.Hub.ServeDuration.Count(), d.site.Metrics.Total()
	if timed != n || counted != n {
		t.Fatalf("hub timed %d queries, Metrics counted %d, want %d each", timed, counted, n)
	}
	// The two misses wait on the C-DNS in virtual time; the hits do not.
	if d.site.Hub.ServeDuration.Sum() <= 0 {
		t.Errorf("hub serve time %v, want the misses' C-DNS exchanges", d.site.Hub.ServeDuration.Sum())
	}
}

func TestEndToEndContentFetch(t *testing.T) {
	d := deploy(t, 2, nil)
	name := "video.demo1." + testDomain
	d.site.Warm(cdn.Content{Name: name, Size: 4096})

	fr, err := d.ue.ResolveAndFetch(testDomain, name)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Content.Status != "HIT" {
		t.Errorf("content status = %s, want HIT after warm", fr.Content.Status)
	}
	if fr.Total > 60*time.Millisecond {
		t.Errorf("end-to-end latency %v", fr.Total)
	}
}

func TestColdFetchFillsFromOrigin(t *testing.T) {
	d := deploy(t, 3, nil)
	name := "img.demo1." + testDomain
	fr, err := d.ue.ResolveAndFetch(testDomain, name)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Content.Status != "FILLED" {
		t.Fatalf("cold status = %s", fr.Content.Status)
	}
	fr2, err := d.ue.ResolveAndFetch(testDomain, name)
	if err != nil {
		t.Fatal(err)
	}
	if fr2.Content.Status != "HIT" {
		t.Errorf("warm status = %s", fr2.Content.Status)
	}
	if fr2.Total >= fr.Total {
		t.Errorf("warm fetch (%v) not faster than cold (%v)", fr2.Total, fr.Total)
	}
}

func TestNonMECNameForwardedUpstream(t *testing.T) {
	d := deploy(t, 4, nil)
	res, err := d.ue.Resolve("www.web.example.")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Addr.IsValid() {
		t.Error("non-MEC name did not resolve through MEC DNS forward")
	}
}

func TestInternalNamespaceHiddenFromUE(t *testing.T) {
	d := deploy(t, 5, nil)
	// Cluster-internal service names must not resolve for UEs: the
	// split-namespace protection.
	res, err := d.ue.Resolve("coredns.kube-system.svc.cluster.local.")
	if err != nil {
		t.Fatal(err)
	}
	if res.Addr.IsValid() {
		t.Error("UE resolved an internal VNF name — namespace leak")
	}
}

func TestMulticastTakesFasterResolver(t *testing.T) {
	d := deploy(t, 6, nil)
	d.ue.Mode = Multicast
	res, err := d.ue.Resolve("video.demo1." + testDomain)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "mec" {
		t.Errorf("winner = %s; MEC should beat the LAN provider", res.Source)
	}
	if !res.Addr.IsValid() {
		t.Error("no answer")
	}
}

func TestFallbackOnTimeout(t *testing.T) {
	d := deploy(t, 7, nil)
	d.ue.Mode = FallbackOnTimeout
	d.ue.mecBudget = 30 * time.Millisecond
	// A name only the provider knows: the MEC DNS forwards it too,
	// so make the MEC unreachable instead to force the fallback.
	d.ue.MEC = netip.AddrPortFrom(d.tb.Net.Node("origin").Addr, 53) // origin is not a DNS server
	res, err := d.ue.Resolve("www.web.example.")
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "provider" {
		t.Errorf("source = %s", res.Source)
	}
	// The paid MEC budget must be reflected in the reported RTT.
	if res.RTT < d.ue.mecBudget {
		t.Errorf("RTT %v does not include the wasted MEC budget", res.RTT)
	}
}

func TestLoadShedSwitchesToProvider(t *testing.T) {
	d := deploy(t, 8, func(cfg *SiteConfig) { cfg.MaxIngressQPS = 3 })
	name := "video.demo1." + testDomain
	for i := 0; i < 10; i++ {
		if _, err := d.ue.Resolve(name); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	shed, served := d.site.Shed.Shed()
	if shed == 0 {
		t.Error("no queries shed above threshold")
	}
	if served == 0 {
		t.Error("no queries served")
	}
}

func TestRoutingStickinessAndHitRatio(t *testing.T) {
	d := deploy(t, 9, nil)
	name := "video.demo1." + testDomain
	var addrs []string
	for i := 0; i < 10; i++ {
		fr, err := d.ue.ResolveAndFetch(testDomain, name)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, fr.Resolve.Addr.String())
		_ = fr
	}
	for _, a := range addrs[1:] {
		if a != addrs[0] {
			t.Fatalf("routing not sticky: %v", addrs)
		}
	}
	// First access fills, the rest hit.
	if hr := d.site.HitRatio(); hr < 0.85 {
		t.Errorf("hit ratio = %.2f", hr)
	}
}

func TestDeploySiteValidation(t *testing.T) {
	tb := lte.New(lte.Config{Seed: 10})
	if _, err := DeploySite(tb, SiteConfig{}); err == nil {
		t.Error("empty config accepted")
	}
}

func TestEntitiesTable2(t *testing.T) {
	if len(AllRoles()) != 7 {
		t.Fatalf("roles = %d, want 7", len(AllRoles()))
	}
	for _, r := range AllRoles() {
		if r.String() == "" || r.Duty() == "" {
			t.Errorf("role %d missing table row", r)
		}
	}
	if Role(99).String() != "role(99)" || Role(99).Duty() != "" {
		t.Error("unknown role")
	}
}

func TestResolutionModeStrings(t *testing.T) {
	modes := map[ResolutionMode]string{
		MECOnly: "mec-only", ProviderOnly: "provider-only",
		Multicast: "multicast", FallbackOnTimeout: "fallback-on-timeout",
	}
	for m, want := range modes {
		if m.String() != want {
			t.Errorf("%d = %s", m, m.String())
		}
	}
	if ResolutionMode(9).String() != "mode(9)" {
		t.Error("unknown mode")
	}
}

// resolveAcross deploys the test site at seed with its C-DNS link set
// to link, adds tenantDomain, and resolves each name from the UE a
// minute apart (past the answer TTL, so the L-DNS cache never
// answers), returning the UE-observed RTTs.
func resolveAcross(t *testing.T, seed int64, link simnet.Sampler, names ...string) []time.Duration {
	t.Helper()
	d := deploy(t, seed, func(cfg *SiteConfig) { cfg.CDNSLink = link })
	if _, err := d.site.AddDomain(tenantDomain, d.tb.Net.Node("origin").Addr, 1); err != nil {
		t.Fatal(err)
	}
	var rtts []time.Duration
	for _, name := range names {
		d.tb.Net.Clock.RunUntil(d.tb.Net.Now() + time.Minute)
		res, err := d.ue.Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Addr.IsValid() {
			t.Fatalf("%s: no address in %v", name, res.Msg)
		}
		rtts = append(rtts, res.RTT)
	}
	return rtts
}

// farLink places a C-DNS 5ms from the P-GW; a query crosses it out
// and back, each way farExtra/2 slower than the collocated pod network.
var (
	farLink  = simnet.Constant(5 * time.Millisecond)
	farExtra = 2 * (time.Duration(farLink) - time.Duration(lte.MECDelay))
)

// TestCDNSLinkMovesOnlyTheCDNSHop: the C-DNS's placement is its link
// and nothing else. A nil link is the collocated pod network, draw for
// draw, and a farther one adds its extra one-way delay twice per query.
func TestCDNSLinkMovesOnlyTheCDNSHop(t *testing.T) {
	names := []string{"video.demo1." + testDomain, "img.demo1." + testDomain, "video.demo1." + testDomain}
	byDefault := resolveAcross(t, 9, nil, names...)
	atMEC := resolveAcross(t, 9, lte.MECDelay, names...)
	far := resolveAcross(t, 9, farLink, names...)
	if !slices.Equal(byDefault, atMEC) {
		t.Errorf("nil link RTTs %v, lte.MECDelay RTTs %v", byDefault, atMEC)
	}
	for i := range names {
		if got := far[i] - byDefault[i]; got != farExtra {
			t.Errorf("query %d: 5ms link added %v, want %v", i, got, farExtra)
		}
	}
}
