package experiments

import (
	"context"
	"fmt"
	"net/netip"
	"strings"
	"time"

	"github.com/meccdn/meccdn/internal/dnsclient"
	"github.com/meccdn/meccdn/internal/dnsserver"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/lte"
	"github.com/meccdn/meccdn/internal/meccdn"
	"github.com/meccdn/meccdn/internal/resolver"
	"github.com/meccdn/meccdn/internal/simnet"
	"github.com/meccdn/meccdn/internal/stats"
	"github.com/meccdn/meccdn/internal/trace"
)

// Fig5Domain is the CDN name the prototype resolves, straight from
// the paper's §4.
const Fig5Domain = "mycdn.ciab.test."

// Fig5Query is the content URL's host name.
const Fig5Query = "video.demo1.mycdn.ciab.test."

// Fig5 scenario keys, in figure order.
const (
	ScenarioMECMEC     = "mec-ldns+mec-cdns"
	ScenarioMECLAN     = "mec-ldns+lan-cdns"
	ScenarioMECWAN     = "mec-ldns+wan-cdns"
	ScenarioLANLDNS    = "lan-ldns"
	ScenarioGoogle     = "google-dns"
	ScenarioCloudflare = "cloudflare-dns"
)

// fig5Env is one built scenario ready to measure.
type fig5Env struct {
	net    *simnet.Network
	target netip.AddrPort
	tap    *trace.Tap
	// valid reports whether an answered address is a correct MEC
	// cache address (used by the ECS correctness check; nil when the
	// scenario does not resolve to MEC caches).
	valid func(netip.Addr) bool
}

// fig5Scenario describes one bar of Figure 5.
type fig5Scenario struct {
	Key   string
	Label string
	build func(seed int64, air lte.AirProfile, ecs bool) (*fig5Env, error)
}

// Latency calibration (one-way) for the non-MEC legs, chosen so the
// simulated bars land near the paper's reported values; the shape —
// ordering, sub-20ms-beyond-the-air set, and the ~9× span — follows
// from the structure, not the constants.
var (
	fig5LDNSProc = simnet.Shifted{Base: 2 * time.Millisecond, Jitter: simnet.Uniform{Max: 400 * time.Microsecond}}
	fig5CDNSProc = simnet.Shifted{Base: 2600 * time.Microsecond, Jitter: simnet.Uniform{Max: 400 * time.Microsecond}}
	fig5ADNSProc = simnet.Constant(1500 * time.Microsecond)

	fig5LANDelay = simnet.Sampler(simnet.Shifted{Base: 2600 * time.Microsecond, Jitter: simnet.Uniform{Max: 800 * time.Microsecond}})
	fig5WANDelay = simnet.Sampler(simnet.Shifted{Base: 14500 * time.Microsecond, Jitter: simnet.LogNormal{Median: 1500 * time.Microsecond, Sigma: 0.6, Max: 30 * time.Millisecond}})
)

func fig5Testbed(seed int64, air lte.AirProfile) *lte.Testbed {
	// Loss-free air for the latency figures: a lost datagram costs a
	// client-timeout retry that would swamp a 15-run bar's whiskers,
	// and the paper's dig runs show no such outliers.
	air.Loss = 0
	return lte.New(lte.Config{
		Seed:     seed,
		Air:      air,
		LANDelay: fig5LANDelay,
		WANDelay: fig5WANDelay,
	})
}

// buildMECSite deploys the full MEC-CDN site with its C-DNS link
// cdnsLink from the P-GW: nil collocates it at MEC (scenario 1);
// fig5LANDelay and fig5WANDelay place it outside the cluster, the
// ETSI/3GPP-style deployments of scenarios 2 and 3.
func buildMECSite(cdnsLink simnet.Sampler) func(int64, lte.AirProfile, bool) (*fig5Env, error) {
	return func(seed int64, air lte.AirProfile, ecs bool) (*fig5Env, error) {
		tb := fig5Testbed(seed, air)
		site, err := meccdn.DeploySite(tb, meccdn.SiteConfig{
			Domain:         Fig5Domain,
			CacheServers:   2,
			EnableECS:      ecs,
			LDNSProcessing: fig5LDNSProc,
			CDNSProcessing: fig5CDNSProc,
			CDNSLink:       cdnsLink,
		})
		if err != nil {
			return nil, err
		}
		validIPs := make(map[netip.Addr]bool)
		for _, svc := range site.CacheServices {
			validIPs[svc.ClusterIP] = true
		}
		return &fig5Env{
			net:    tb.Net,
			target: site.LDNS,
			tap:    trace.Install(tb.Net, lte.NodePGW),
			valid:  func(a netip.Addr) bool { return validIPs[a] },
		}, nil
	}
}

// buildCDNInfra stands up the public CDN resolution chain a
// traditional L-DNS must walk: an A-DNS holding the domain's CNAME
// into the provider's namespace plus a delegation to the provider's
// far-tier C-DNS. attach wires both infra nodes to the resolver host
// with the given one-way delay.
func buildCDNInfra(net *simnet.Network, resolverNode string, oneWay simnet.Sampler) (roots []netip.AddrPort, err error) {
	adnsNode := net.AddNode(resolverNode + "-adns")
	cdnsNode := net.AddNode(resolverNode + "-farcdns")
	net.AddLink(resolverNode, adnsNode.Name, oneWay, 0)
	net.AddLink(resolverNode, cdnsNode.Name, oneWay, 0)

	// A-DNS: the CDN domain is a CNAME into the provider namespace,
	// and the provider's pool zone is delegated to the far C-DNS.
	mycdn := dnsserver.NewZone(Fig5Domain)
	if err := mycdn.AddCNAME(Fig5Query, 30, "edge.pool.cdnprov.example."); err != nil {
		return nil, err
	}
	prov := dnsserver.NewZone("cdnprov.example.")
	if err := prov.Add(&dnswire.NS{
		Hdr: dnswire.RRHeader{Name: "pool.cdnprov.example.", Type: dnswire.TypeNS, Class: dnswire.ClassINET, TTL: 3600},
		NS:  "ns.pool.cdnprov.example.",
	}); err != nil {
		return nil, err
	}
	if err := prov.AddA("ns.pool.cdnprov.example.", 3600, cdnsNode.Addr); err != nil {
		return nil, err
	}
	dnsserver.Attach(adnsNode, dnsserver.Chain(dnsserver.NewZonePlugin(mycdn, prov)), nil, fig5ADNSProc)

	// Far C-DNS: authoritative for the pool, short-TTL answers.
	pool := dnsserver.NewZone("pool.cdnprov.example.")
	if err := pool.AddA("edge.pool.cdnprov.example.", 30, netip.MustParseAddr("198.51.100.80")); err != nil {
		return nil, err
	}
	dnsserver.Attach(cdnsNode, dnsserver.Chain(dnsserver.NewZonePlugin(pool)), nil, fig5CDNSProc)

	return []netip.AddrPort{netip.AddrPortFrom(adnsNode.Addr, 53)}, nil
}

// buildRecursiveLDNS places a recursive L-DNS at `placement` and has
// it resolve through the traditional CDN chain. Used for the LAN
// L-DNS, Google DNS, and Cloudflare DNS bars.
func buildRecursiveLDNS(placement string, toLDNSScale float64, infraOneWay time.Duration) func(int64, lte.AirProfile, bool) (*fig5Env, error) {
	return func(seed int64, air lte.AirProfile, ecs bool) (*fig5Env, error) {
		tb := fig5Testbed(seed, air)
		var ldnsNode *simnet.Node
		if placement == "lan" {
			ldnsNode = tb.AddLAN("lan-ldns")
		} else {
			ldnsNode = tb.AddWAN(placement, toLDNSScale)
		}
		infraDelay := simnet.Shifted{
			Base:   infraOneWay,
			Jitter: simnet.LogNormal{Median: infraOneWay / 10, Sigma: 0.5, Max: infraOneWay},
		}
		roots, err := buildCDNInfra(tb.Net, ldnsNode.Name, infraDelay)
		if err != nil {
			return nil, err
		}
		upClient := newSimClient(tb.Net, ldnsNode.Name)
		rec := resolver.New(upClient, tb.Net.Clock, roots...)
		plugins := []dnsserver.Plugin{}
		if ecs {
			plugins = append(plugins, &dnsserver.ECS{})
		}
		plugins = append(plugins, rec)
		dnsserver.Attach(ldnsNode, dnsserver.Chain(plugins...), nil, fig5LDNSProc)

		env := &fig5Env{
			net:    tb.Net,
			target: netip.AddrPortFrom(ldnsNode.Addr, 53),
			tap:    trace.Install(tb.Net, lte.NodePGW),
		}
		// Warm the resolver's delegation cache (the steady state of a
		// production resolver); answers themselves are short-TTL.
		warm := &dnsclient.Client{Transport: &dnsclient.SimTransport{Endpoint: tb.Net.Node(lte.NodeUE).Endpoint(), Timeout: 3 * time.Second}}
		warm.SetRand(tb.Net.Rand())
		if _, err := warm.Query(context.Background(), env.target, Fig5Query, dnswire.TypeA); err != nil {
			return nil, fmt.Errorf("warming %s: %w", placement, err)
		}
		return env, nil
	}
}

func fig5Scenarios() []fig5Scenario {
	return []fig5Scenario{
		{ScenarioMECMEC, "MEC L-DNS w/ MEC C-DNS", buildMECSite(nil)},
		{ScenarioMECLAN, "MEC L-DNS w/ LAN C-DNS", buildMECSite(fig5LANDelay)},
		{ScenarioMECWAN, "MEC L-DNS w/ WAN C-DNS", buildMECSite(fig5WANDelay)},
		{ScenarioLANLDNS, "LAN L-DNS", buildRecursiveLDNS("lan", 1, 20*time.Millisecond)},
		{ScenarioGoogle, "Google DNS", buildRecursiveLDNS("google-dns", 1, 13*time.Millisecond)},
		{ScenarioCloudflare, "Cloudflare DNS", buildRecursiveLDNS("cloudflare-dns", 2.6, 44*time.Millisecond)},
	}
}

// Fig5Row is one bar with its wireless/resolver breakdown.
type Fig5Row struct {
	Key      string
	Label    string
	Bar      stats.Bar
	Wireless time.Duration // mean UE↔P-GW portion
	Resolver time.Duration // mean beyond-P-GW portion
}

// Fig5Result is the full figure.
type Fig5Result struct {
	Air  string
	Rows []Fig5Row
	Runs int
}

// Fig5Config parameterizes Figure5.
type Fig5Config struct {
	Seed int64
	// Runs per bar; 0 means 15.
	Runs int
	// Air is the radio profile; zero value means 4G LTE. Pass
	// lte.NR5G() for the paper's 5G projection (X3).
	Air lte.AirProfile
}

// Figure5 reproduces the LTE-testbed DNS-latency comparison across
// the six resolver deployments, with the dig-side latency and the
// tcpdump-at-P-GW wireless/resolver breakdown.
func Figure5(cfg Fig5Config) (*Fig5Result, error) {
	if cfg.Runs <= 0 {
		cfg.Runs = 15
	}
	if cfg.Air.Name == "" {
		cfg.Air = lte.LTE4G()
	}
	res := &Fig5Result{Air: cfg.Air.Name, Runs: cfg.Runs}
	for i, sc := range fig5Scenarios() {
		row, _, err := fig5Measure(sc, cfg.Seed+int64(i), cfg.Air, false, cfg.Runs)
		if err != nil {
			return nil, fmt.Errorf("figure 5 %s: %w", sc.Key, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// fig5Measure runs one scenario and reports the bar, plus whether all
// answers were valid MEC cache addresses (always true when the
// scenario has no validity notion).
func fig5Measure(sc fig5Scenario, seed int64, air lte.AirProfile, ecs bool, runs int) (Fig5Row, bool, error) {
	env, err := sc.build(seed, air, ecs)
	if err != nil {
		return Fig5Row{}, false, err
	}
	client := &dnsclient.Client{
		Transport: &dnsclient.SimTransport{Endpoint: env.net.Node(lte.NodeUE).Endpoint(), Timeout: 3 * time.Second},
		Retries:   3,
	}
	client.SetRand(env.net.Rand())

	sample := stats.New()
	var wireless, resolverTime time.Duration
	correct := true
	measured := 0
	for i := 0; i < runs; i++ {
		// Space queries beyond the 30s answer TTL so every run
		// exercises the full path, like the paper's repeated digs.
		env.net.Clock.RunUntil(env.net.Now() + time.Minute)
		env.tap.Reset()
		start := env.net.Now()
		resp, err := client.Query(context.Background(), env.target, Fig5Query, dnswire.TypeA)
		if err != nil {
			return Fig5Row{}, false, fmt.Errorf("run %d: %w", i, err)
		}
		end := env.net.Now()
		sample.Add(end - start)
		b := env.tap.Measure(start, end)
		wireless += b.Wireless
		resolverTime += b.Resolver
		measured++

		var answer netip.Addr
		for _, rr := range resp.Answers {
			if a, ok := rr.(*dnswire.A); ok {
				answer = a.Addr
			}
		}
		if !answer.IsValid() {
			return Fig5Row{}, false, fmt.Errorf("run %d: no A answer (rcode %v)", i, resp.Rcode)
		}
		if env.valid != nil && !env.valid(answer) {
			correct = false
		}
	}
	return Fig5Row{
		Key:      sc.Key,
		Label:    sc.Label,
		Bar:      sample.PaperBar(),
		Wireless: wireless / time.Duration(measured),
		Resolver: resolverTime / time.Duration(measured),
	}, correct, nil
}

// Speedup returns the ratio of the slowest bar to the MEC-MEC bar —
// the paper's "up to 9× lower resolution latency" claim.
func (r *Fig5Result) Speedup() float64 {
	var mec, worst time.Duration
	for _, row := range r.Rows {
		if row.Key == ScenarioMECMEC {
			mec = row.Bar.Mean
		}
		if row.Bar.Mean > worst {
			worst = row.Bar.Mean
		}
	}
	if mec == 0 {
		return 0
	}
	return float64(worst) / float64(mec)
}

// Render prints the figure.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: DNS lookup latency on the %s testbed (%d runs/bar; mean with [min,max])\n", r.Air, r.Runs)
	fmt.Fprintf(&b, "%-26s %10s %10s %10s   %-14s %-14s\n",
		"deployment", "mean", "min", "max", "wireless", "DNS query")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-26s %8.1fms %8.1fms %8.1fms   %10.1fms %12.1fms\n",
			row.Label, stats.Ms(row.Bar.Mean), stats.Ms(row.Bar.Min), stats.Ms(row.Bar.Max),
			stats.Ms(row.Wireless), stats.Ms(row.Resolver))
	}
	fmt.Fprintf(&b, "MEC-CDN speedup over slowest deployment: %.1fx\n", r.Speedup())
	return b.String()
}

// ECSRow compares one deployment with and without ECS.
type ECSRow struct {
	Key      string
	Label    string
	BaseMean time.Duration
	ECSMean  time.Duration
	Ratio    float64
	Correct  bool // ECS answers still point at the MEC cache
}

// ECSResult is the §4 ECS experiment.
type ECSResult struct {
	Rows []ECSRow
}

// ECS reruns the first three Figure 5 deployments with EDNS Client
// Subnet enabled at L-DNS and C-DNS and reports the latency ratio and
// whether the query still resolved to the correct MEC cache server.
func ECS(cfg Fig5Config) (*ECSResult, error) {
	if cfg.Runs <= 0 {
		cfg.Runs = 15
	}
	if cfg.Air.Name == "" {
		cfg.Air = lte.LTE4G()
	}
	res := &ECSResult{}
	for i, sc := range fig5Scenarios()[:3] {
		base, _, err := fig5Measure(sc, cfg.Seed+int64(i), cfg.Air, false, cfg.Runs)
		if err != nil {
			return nil, fmt.Errorf("ecs baseline %s: %w", sc.Key, err)
		}
		// A different seed for the ECS run reproduces the paper's
		// setting: two independent measurement sessions whose
		// difference is dominated by jitter, not by ECS itself.
		withECS, correct, err := fig5Measure(sc, cfg.Seed+500+int64(i), cfg.Air, true, cfg.Runs)
		if err != nil {
			return nil, fmt.Errorf("ecs run %s: %w", sc.Key, err)
		}
		res.Rows = append(res.Rows, ECSRow{
			Key:      sc.Key,
			Label:    sc.Label,
			BaseMean: base.Bar.Mean,
			ECSMean:  withECS.Bar.Mean,
			Ratio:    float64(withECS.Bar.Mean) / float64(base.Bar.Mean),
			Correct:  correct,
		})
	}
	return res, nil
}

// Render prints the ECS comparison.
func (r *ECSResult) Render() string {
	var b strings.Builder
	b.WriteString("§4 ECS: EDNS Client Subnet at L-DNS and C-DNS (first three deployments)\n")
	fmt.Fprintf(&b, "%-26s %12s %12s %8s %s\n", "deployment", "baseline", "with ECS", "ratio", "correct cache")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-26s %10.1fms %10.1fms %7.2fx %v\n",
			row.Label, stats.Ms(row.BaseMean), stats.Ms(row.ECSMean), row.Ratio, row.Correct)
	}
	return b.String()
}
