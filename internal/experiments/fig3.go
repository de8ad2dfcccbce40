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
	"github.com/meccdn/meccdn/internal/netprofile"
	"github.com/meccdn/meccdn/internal/simnet"
	"github.com/meccdn/meccdn/internal/stats"
)

// Pool is one cache-server address pool (a provider CIDR) a CDN
// domain's answers come from.
type Pool struct {
	Provider string
	CIDR     netip.Prefix
}

// Label renders the pool like the Figure 3 legend.
func (p Pool) Label() string { return fmt.Sprintf("%s (%s)", p.Provider, p.CIDR) }

// fig3Site describes one website's pools and the per-access-network
// selection weights. The weights are visual estimates of the paper's
// Figure 3 bars (the authors publish no numbers); they model the
// opaque load-balancing and cascading-CNAME state that maps each
// resolver population to different pools.
type fig3Site struct {
	Website
	Pools []Pool
	// Weights maps access-network name → per-pool weights.
	Weights map[string][]float64
}

func mustPrefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func fig3Sites() []fig3Site {
	t1 := Table1()
	return []fig3Site{
		{
			Website: t1[0], // Airbnb
			Pools: []Pool{
				{"Akamai", mustPrefix("23.55.124.0/24")},
				{"Fastly", mustPrefix("151.101.0.0/16")},
				{"Fastly", mustPrefix("199.232.0.0/16")},
			},
			Weights: map[string][]float64{
				"wired-campus":    {0.55, 0.30, 0.15},
				"wifi-home":       {0.20, 0.55, 0.25},
				"cellular-mobile": {0.10, 0.30, 0.60},
			},
		},
		{
			Website: t1[3], // Agoda
			Pools: []Pool{
				{"Akamai", mustPrefix("23.55.124.0/24")},
				{"Akamai", mustPrefix("23.0.0.0/8")},
			},
			Weights: map[string][]float64{
				"wired-campus":    {0.85, 0.15},
				"wifi-home":       {0.55, 0.45},
				"cellular-mobile": {0.25, 0.75},
			},
		},
		{
			Website: t1[1], // Booking.com: single provider, two CIDRs
			Pools: []Pool{
				{"Amazon CloudFront", mustPrefix("13.249.0.0/16")},
				{"Amazon CloudFront", mustPrefix("54.230.0.0/16")},
			},
			Weights: map[string][]float64{
				"wired-campus":    {0.70, 0.30},
				"wifi-home":       {0.45, 0.55},
				"cellular-mobile": {0.20, 0.80},
			},
		},
		{
			Website: t1[4], // Expedia: two providers, four CIDRs
			Pools: []Pool{
				{"Amazon CloudFront", mustPrefix("13.249.0.0/16")},
				{"Amazon CloudFront", mustPrefix("54.230.0.0/16")},
				{"Fastly", mustPrefix("151.101.0.0/16")},
				{"Fastly", mustPrefix("199.232.0.0/16")},
			},
			Weights: map[string][]float64{
				"wired-campus":    {0.40, 0.20, 0.25, 0.15},
				"wifi-home":       {0.25, 0.35, 0.20, 0.20},
				"cellular-mobile": {0.15, 0.20, 0.30, 0.35},
			},
		},
		{
			Website: t1[2], // TripAdvisor: three providers
			Pools: []Pool{
				{"Akamai", mustPrefix("23.0.0.0/8")},
				{"Akamai", mustPrefix("104.127.91.0/24")},
				{"Fastly", mustPrefix("151.101.0.0/16")},
				{"Fastly", mustPrefix("199.232.0.0/16")},
				{"Edgecast-Verizon", mustPrefix("192.229.0.0/16")},
			},
			Weights: map[string][]float64{
				"wired-campus":    {0.30, 0.20, 0.25, 0.15, 0.10},
				"wifi-home":       {0.20, 0.15, 0.30, 0.20, 0.15},
				"cellular-mobile": {0.10, 0.10, 0.25, 0.30, 0.25},
			},
		},
	}
}

// poolPicker is the authoritative C-DNS of a Figure 3 website: it
// answers A queries from one of the domain's pools, weighted by the
// querying resolver's access network — the observable effect of the
// provider's opaque load balancing.
type poolPicker struct {
	domain  string
	pools   []Pool
	weights []float64
	rng     *simnet.Network
}

func (p *poolPicker) Name() string { return "pool-picker" }

func (p *poolPicker) ServeDNS(_ context.Context, w dnsserver.ResponseWriter, r *dnsserver.Request, next dnsserver.Handler) (dnswire.Rcode, error) {
	rng := p.rng.Rand()
	x := rng.Float64()
	idx := len(p.pools) - 1
	for i, wt := range p.weights {
		if x -= wt; x <= 0 {
			idx = i
			break
		}
	}
	// Pick a host strictly within the pool's CIDR.
	cidr := p.pools[idx].CIDR
	a4 := cidr.Masked().Addr().As4()
	if cidr.Bits() <= 8 {
		a4[1] = byte(rng.Intn(256))
	}
	if cidr.Bits() <= 16 {
		a4[2] = byte(rng.Intn(256))
	}
	a4[3] = 1 + byte(rng.Intn(250))
	host := netip.AddrFrom4(a4)
	a := dnswire.A{Hdr: dnswire.RRHeader{Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 20}, Addr: host}
	answer := [1]dnswire.ReplyRR{{RR: &a, Owner: r.Name()}}
	return dnsserver.WriteReply(w, r, &dnswire.Reply{Authoritative: true, Answers: answer[:]})
}

// Fig3Row is the response distribution for one (site, access) bar.
type Fig3Row struct {
	Site   string
	Domain string
	Access string
	// Shares maps pool label → fraction of responses.
	Shares map[string]float64
	N      int
}

// Fig3Result is the full figure.
type Fig3Result struct {
	Rows []Fig3Row
	// PoolOrder preserves legend order per site.
	PoolOrder map[string][]string
}

// fig3Queries is the number of lookups per bar.
const fig3Queries = 200

// Figure3 reproduces the response-distribution study: repeated
// lookups of each Table 1 domain over each access network, classified
// by the answering cache server's CIDR pool.
func Figure3(seed int64) (*Fig3Result, error) {
	res := &Fig3Result{PoolOrder: make(map[string][]string)}
	for si, site := range fig3Sites() {
		var order []string
		for _, p := range site.Pools {
			order = append(order, p.Label())
		}
		res.PoolOrder[site.Agency] = order
		for ai, access := range netprofile.All() {
			row, err := fig3Row(seed+int64(si*10+ai), site, access)
			if err != nil {
				return nil, fmt.Errorf("figure 3 %s/%s: %w", site.Agency, access.Name, err)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

func fig3Row(seed int64, site fig3Site, access netprofile.Access) (Fig3Row, error) {
	net := simnet.New(seed)
	net.AddNode("client")
	net.AddNode("ldns")
	net.AddNode("cdns")
	net.AddLink("client", "ldns", access.ToLDNS, 0)
	net.AddLink("ldns", "cdns", simnet.Constant(15*time.Millisecond), 0)

	picker := &poolPicker{
		domain:  site.Domain,
		pools:   site.Pools,
		weights: site.Weights[access.Name],
		rng:     net,
	}
	dnsserver.Attach(net.Node("cdns"), dnsserver.Chain(picker), nil, simnet.Constant(time.Millisecond))

	upClient := newSimClient(net, "ldns")
	fwd := &dnsserver.Forward{
		Upstreams: []netip.AddrPort{netip.AddrPortFrom(net.Node("cdns").Addr, 53)},
		Client:    upClient,
	}
	// No L-DNS message cache: Figure 3 counts fresh routing decisions
	// (TTL 20s answers, dig runs spread over days).
	dnsserver.Attach(net.Node("ldns"), dnsserver.Chain(fwd), nil, access.LDNSProcessing)

	client := &dnsclient.Client{
		Transport: &dnsclient.SimTransport{Endpoint: net.Node("client").Endpoint(), Timeout: 2 * time.Second},
		Retries:   3,
	}
	client.SetRand(net.Rand())
	ldns := netip.AddrPortFrom(net.Node("ldns").Addr, 53)

	dist := stats.NewDistribution()
	for i := 0; i < fig3Queries; i++ {
		resp, err := client.Query(context.Background(), ldns, site.Domain, dnswire.TypeA)
		if err != nil {
			return Fig3Row{}, fmt.Errorf("query %d: %w", i, err)
		}
		if len(resp.Answers) == 0 {
			return Fig3Row{}, fmt.Errorf("query %d: empty answer", i)
		}
		addr := resp.Answers[0].(*dnswire.A).Addr
		dist.Add(classifyPool(site.Pools, addr))
	}
	row := Fig3Row{
		Site: site.Agency, Domain: site.Domain, Access: access.Name,
		Shares: make(map[string]float64), N: dist.Total(),
	}
	for _, p := range site.Pools {
		row.Shares[p.Label()] = dist.Share(p.Label())
	}
	return row, nil
}

// classifyPool maps an answer address to its pool label, most
// specific prefix first (Akamai's /24 lies inside its /8).
func classifyPool(pools []Pool, addr netip.Addr) string {
	best := ""
	bestBits := -1
	for _, p := range pools {
		if p.CIDR.Contains(addr) && p.CIDR.Bits() > bestBits {
			best, bestBits = p.Label(), p.CIDR.Bits()
		}
	}
	if best == "" {
		return "unknown"
	}
	return best
}

// Render prints per-site stacked-bar percentages.
func (r *Fig3Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 3: distribution of DNS responses among cache-server pools\n")
	lastSite := ""
	for _, row := range r.Rows {
		if row.Site != lastSite {
			fmt.Fprintf(&b, "\n(%s) %s\n", row.Site, row.Domain)
			lastSite = row.Site
		}
		fmt.Fprintf(&b, "  %-16s", row.Access)
		for _, label := range r.PoolOrder[row.Site] {
			fmt.Fprintf(&b, "  %s %4.1f%%", label, 100*row.Shares[label])
		}
		fmt.Fprintf(&b, "  (n=%d)\n", row.N)
	}
	return b.String()
}
