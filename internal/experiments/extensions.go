package experiments

import (
	"fmt"
	"net/netip"
	"strings"
	"time"

	"github.com/meccdn/meccdn/internal/cdn"
	"github.com/meccdn/meccdn/internal/dnsserver"
	"github.com/meccdn/meccdn/internal/geoip"
	"github.com/meccdn/meccdn/internal/lte"
	"github.com/meccdn/meccdn/internal/meccdn"
	"github.com/meccdn/meccdn/internal/orchestrator"
	"github.com/meccdn/meccdn/internal/resolver"
	"github.com/meccdn/meccdn/internal/simnet"
	"github.com/meccdn/meccdn/internal/stats"
	"github.com/meccdn/meccdn/internal/workload"
)

// FallbackRow is one UE resolution policy's cost for one name class.
type FallbackRow struct {
	Policy  string
	MECName time.Duration // mean latency for MEC-hosted names
	WebName time.Duration // mean latency for ordinary internet names
}

// FallbackResult is experiment X1: the §3 discussion of how UEs reach
// non-MEC names once their target DNS is the MEC DNS.
type FallbackResult struct {
	Rows []FallbackRow
	// MECAdvantage is provider-only MEC-name latency over MEC-only
	// MEC-name latency (the "MEC DNS resolution can be achieved up to
	// 3× faster" §3 comparison).
	MECAdvantage float64
}

// Fallback measures the three §3 policies — MEC-only (server-side
// forward), client multicast, and timeout fallback — against the
// provider-only baseline, for both MEC content and ordinary names.
func Fallback(seed int64, runs int) (*FallbackResult, error) {
	if runs <= 0 {
		runs = 15
	}
	tb := fig5Testbed(seed, lte.LTE4G())

	// Provider L-DNS on the LAN: recursive for web names, and it can
	// resolve the CDN domain only via the far infrastructure.
	provNode := tb.AddLAN("provider-ldns")
	roots, err := buildCDNInfra(tb.Net, provNode.Name, simnet.Constant(20*time.Millisecond))
	if err != nil {
		return nil, err
	}
	webZone := dnsserver.NewZone("web.example.")
	if err := webZone.AddA("www.web.example.", 30, netip.MustParseAddr("203.0.113.200")); err != nil {
		return nil, err
	}
	upProv := newSimClient(tb.Net, provNode.Name)
	provChain := dnsserver.Chain(
		dnsserver.NewZonePlugin(webZone),
		resolver.New(upProv, tb.Net.Clock, roots...),
	)
	dnsserver.Attach(provNode, provChain, nil, fig5LDNSProc)
	provider := netip.AddrPortFrom(provNode.Addr, 53)

	// The MEC site forwards non-MEC names to the provider L-DNS.
	site, err := meccdn.DeploySite(tb, meccdn.SiteConfig{
		Domain:         Fig5Domain,
		ProviderLDNS:   provider,
		LDNSProcessing: fig5LDNSProc,
		CDNSProcessing: fig5CDNSProc,
	})
	if err != nil {
		return nil, err
	}

	measure := func(mode meccdn.ResolutionMode, name string) (time.Duration, error) {
		ue := &meccdn.UEClient{
			EP:       tb.Net.Node(lte.NodeUE).Endpoint(),
			MEC:      site.LDNS,
			Provider: provider,
			Mode:     mode,
		}
		sample := stats.New()
		for i := 0; i < runs; i++ {
			tb.Net.Clock.RunUntil(tb.Net.Now() + time.Minute)
			res, err := ue.Resolve(name)
			if err != nil {
				return 0, fmt.Errorf("%s %s run %d: %w", mode, name, i, err)
			}
			sample.Add(res.RTT)
		}
		return sample.Mean(), nil
	}

	policies := []struct {
		label string
		mode  meccdn.ResolutionMode
	}{
		{"provider-only (today)", meccdn.ProviderOnly},
		{"mec-only (server forward)", meccdn.MECOnly},
		{"client multicast", meccdn.Multicast},
		{"fallback-on-timeout", meccdn.FallbackOnTimeout},
	}
	res := &FallbackResult{}
	var provMEC, mecMEC time.Duration
	for _, p := range policies {
		mecLat, err := measure(p.mode, Fig5Query)
		if err != nil {
			return nil, err
		}
		webLat, err := measure(p.mode, "www.web.example.")
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, FallbackRow{Policy: p.label, MECName: mecLat, WebName: webLat})
		switch p.mode {
		case meccdn.ProviderOnly:
			provMEC = mecLat
		case meccdn.MECOnly:
			mecMEC = mecLat
		}
	}
	if mecMEC > 0 {
		res.MECAdvantage = float64(provMEC) / float64(mecMEC)
	}
	return res, nil
}

// Render prints the policy comparison.
func (r *FallbackResult) Render() string {
	var b strings.Builder
	b.WriteString("X1 §3: resolution policies for MEC vs non-MEC names (mean latency)\n")
	fmt.Fprintf(&b, "%-28s %14s %14s\n", "policy", "MEC content", "web content")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-28s %12.1fms %12.1fms\n", row.Policy, stats.Ms(row.MECName), stats.Ms(row.WebName))
	}
	fmt.Fprintf(&b, "MEC DNS advantage for MEC content: %.1fx faster than provider L-DNS\n", r.MECAdvantage)
	return b.String()
}

// DisaggregationResult is experiment X2: the §2 Observation 2 effect —
// spreading one client population's requests across multiple cache
// pools raises the miss rate versus consolidated routing.
type DisaggregationResult struct {
	Consolidated float64 // hit ratio with content-aware routing
	Spread       float64 // hit ratio with round-robin disaggregation
}

// X2's workload: disaggObjects catalog objects, disaggRequests Zipf
// requests.
const (
	disaggObjects  = 500
	disaggRequests = 4000
)

// Disaggregation runs a Zipf workload through an edge cache pool
// twice: once with the consistent-hash/availability-first router and
// once with a round-robin router that ignores placement.
func Disaggregation(seed int64) (*DisaggregationResult, error) {
	run := func(policy cdn.SelectionPolicy) (float64, error) {
		net := simnet.New(seed)
		net.AddNode("client")
		net.AddNode("origin")
		origin := cdn.NewOrigin()
		cat := cdn.NewCatalog("pool.test.")
		cat.PublishN("obj", disaggObjects, 10_000)
		origin.AddCatalog(cat)
		osrv := cdn.NewOriginServer(net.Node("origin"), origin, nil)

		router := cdn.NewRouter("pool.test.")
		router.Policy = policy
		router.Replicas = 4
		servers := make([]*cdn.CacheServer, 4)
		for i := range servers {
			name := fmt.Sprintf("cache-%d", i)
			net.AddNode(name)
			net.AddLink("client", name, simnet.Constant(time.Millisecond), 0)
			net.AddLink(name, "origin", simnet.Constant(20*time.Millisecond), 0)
			servers[i] = cdn.NewCacheServer(net.Node(name), cdn.CacheServerConfig{
				Name: name, Tier: cdn.TierEdge,
				// Each cache holds only ~15% of the catalog: routing
				// decides whether the pool behaves like one big cache
				// or four small ones.
				CapacityBytes: disaggObjects * 10_000 * 15 / 100,
				Parent:        osrv.Addr(),
			})
			router.AddServer(servers[i], geoip.Location{X: float64(i)})
		}
		zipf, err := workload.NewZipfCatalog(net.Rand(), 1.2, disaggObjects)
		if err != nil {
			return 0, err
		}
		ep := net.Node("client").Endpoint()
		for i := 0; i < disaggRequests; i++ {
			name := workload.Name("obj", zipf.Next())
			sel := router.Route(name, cdn.ClientInfo{})
			if sel == nil {
				return 0, fmt.Errorf("no server for %s", name)
			}
			if _, err := cdn.Fetch(ep, sel.Server.Addr(), "pool.test.", name, time.Second); err != nil {
				return 0, err
			}
		}
		var hits, total uint64
		for _, s := range servers {
			st := s.Cache().Stats()
			hits += st.Hits
			total += st.Hits + st.Misses
		}
		return float64(hits) / float64(total), nil
	}
	consolidated, err := run(cdn.AvailabilityFirst{})
	if err != nil {
		return nil, fmt.Errorf("consolidated run: %w", err)
	}
	spread, err := run(&cdn.RoundRobin{})
	if err != nil {
		return nil, fmt.Errorf("spread run: %w", err)
	}
	return &DisaggregationResult{Consolidated: consolidated, Spread: spread}, nil
}

// Render prints the disaggregation comparison.
func (r *DisaggregationResult) Render() string {
	var b strings.Builder
	b.WriteString("X2 §2 Obs.2: request disaggregation vs cache hit ratio\n")
	fmt.Fprintf(&b, "catalog %d objects, %d Zipf(1.2) requests, 4 caches × 15%% capacity\n", disaggObjects, disaggRequests)
	fmt.Fprintf(&b, "%-36s hit ratio %.1f%%\n", "content-aware routing (MEC-CDN C-DNS)", 100*r.Consolidated)
	fmt.Fprintf(&b, "%-36s hit ratio %.1f%%\n", "round-robin across pools (status quo)", 100*r.Spread)
	fmt.Fprintf(&b, "miss-rate increase from disaggregation: %.1f%% → %.1f%%\n",
		100*(1-r.Consolidated), 100*(1-r.Spread))
	return b.String()
}

// IPReuseResult is experiment X4.
type IPReuseResult struct {
	WithReuse    int
	WithoutReuse int
}

// ipReuseCustomers is the number of CDN customer domains X4 deploys.
const ipReuseCustomers = 8

// IPReuse deploys ipReuseCustomers CDN customer domains on one MEC site
// and reports the public-IP demand with and without the cluster-IP
// indirection.
func IPReuse(seed int64) (*IPReuseResult, error) {
	net := simnet.New(seed)
	net.AddNode("pgw")
	orch, err := orchestrator.New(orchestrator.Config{Net: net, FabricNode: "pgw"})
	if err != nil {
		return nil, err
	}
	pub := dnsserver.NewZone("mec.example.")
	orch.SetPublicZone(pub)
	for i := 0; i < ipReuseCustomers; i++ {
		if _, err := orch.CreateService(orchestrator.ServiceSpec{
			Name:       fmt.Sprintf("cdn-customer-%d", i),
			Namespace:  "cdn",
			PublicName: fmt.Sprintf("cdn%d.customer%d.mec.example.", i, i),
		}); err != nil {
			return nil, err
		}
	}
	with, without := orch.PublicIPReport()
	return &IPReuseResult{WithReuse: with, WithoutReuse: without}, nil
}

// Render prints the IP-reuse accounting.
func (r *IPReuseResult) Render() string {
	var b strings.Builder
	b.WriteString("X4 §3/§5: public IPv4 addresses needed at the MEC site\n")
	fmt.Fprintf(&b, "CDN customer domains deployed:        %d\n", ipReuseCustomers)
	fmt.Fprintf(&b, "with MEC-CDN cluster-IP indirection:  %d public IP(s)\n", r.WithReuse)
	fmt.Fprintf(&b, "with per-domain public addressing:    %d public IP(s)\n", r.WithoutReuse)
	return b.String()
}

// LoadShedResult is experiment X5.
type LoadShedResult struct {
	Offered   []int     // offered load per step (queries/s)
	MECServed []uint64  // queries the MEC DNS answered itself
	Diverted  []uint64  // queries diverted to the provider L-DNS
	Latency   []float64 // mean latency (ms) per step
}

// loadShedThreshold is X5's ingress threshold in queries per second.
// The driver is closed-loop (one outstanding query), so the effective
// offered rate saturates near 1/RTT ≈ 34 q/s whatever the requested
// step; the threshold sits below that ceiling so shedding shows.
const loadShedThreshold = 20

// loadShedSteps are the offered rates X5 ramps through, in q/s.
var loadShedSteps = [...]int{50, 100, 200, 400}

// LoadShed ramps the query rate at the MEC DNS past its ingress
// threshold and shows the orchestrator's policy switching excess load
// to the provider L-DNS, keeping resolution available.
func LoadShed(seed int64) (*LoadShedResult, error) {
	tb := fig5Testbed(seed, lte.LTE4G())
	provNode := tb.AddLAN("provider-ldns")
	roots, err := buildCDNInfra(tb.Net, provNode.Name, simnet.Constant(20*time.Millisecond))
	if err != nil {
		return nil, err
	}
	upProv := newSimClient(tb.Net, provNode.Name)
	dnsserver.Attach(provNode, dnsserver.Chain(resolver.New(upProv, tb.Net.Clock, roots...)), nil, fig5LDNSProc)

	site, err := meccdn.DeploySite(tb, meccdn.SiteConfig{
		Domain:         Fig5Domain,
		ProviderLDNS:   netip.AddrPortFrom(provNode.Addr, 53),
		MaxIngressQPS:  loadShedThreshold,
		LDNSProcessing: fig5LDNSProc,
		CDNSProcessing: fig5CDNSProc,
	})
	if err != nil {
		return nil, err
	}
	ue := &meccdn.UEClient{EP: tb.Net.Node(lte.NodeUE).Endpoint(), MEC: site.LDNS}

	res := &LoadShedResult{}
	var prevShed, prevServed uint64
	for _, qps := range loadShedSteps {
		sample := stats.New()
		// One second of offered load at this rate, spaced evenly in
		// virtual time.
		gap := time.Second / time.Duration(qps)
		for i := 0; i < qps; i++ {
			tb.Net.Clock.RunUntil(tb.Net.Now() + gap)
			r, err := ue.Resolve(Fig5Query)
			if err != nil {
				return nil, fmt.Errorf("qps %d query %d: %w", qps, i, err)
			}
			sample.Add(r.RTT)
		}
		shed, served := site.Shed.Shed()
		res.Offered = append(res.Offered, qps)
		res.MECServed = append(res.MECServed, served-prevServed)
		res.Diverted = append(res.Diverted, shed-prevShed)
		res.Latency = append(res.Latency, stats.Ms(sample.Mean()))
		prevShed, prevServed = shed, served
		// Let the window roll over between steps.
		tb.Net.Clock.RunUntil(tb.Net.Now() + 2*time.Second)
	}
	return res, nil
}

// Render prints the load ramp.
func (r *LoadShedResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "X5 §3: ingress-threshold DoS mitigation (threshold %d q/s)\n", loadShedThreshold)
	fmt.Fprintf(&b, "%10s %12s %12s %12s\n", "offered", "MEC-served", "diverted", "mean lat")
	for i := range r.Offered {
		fmt.Fprintf(&b, "%8d/s %12d %12d %10.1fms\n",
			r.Offered[i], r.MECServed[i], r.Diverted[i], r.Latency[i])
	}
	return b.String()
}
