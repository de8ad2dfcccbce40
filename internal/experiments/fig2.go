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

// fig2Domain extends a Table 1 row with the per-domain behaviour that
// shapes its bars: the answer TTL at the L-DNS (low-TTL domains miss
// more often and pay the authoritative round trip) and the distance
// to the domain's authoritative/C-DNS.
type fig2Domain struct {
	Website
	TTL         uint32
	AuthOneWay  time.Duration
	AuthJitter  time.Duration
	AuthProcess time.Duration
}

func fig2Domains() []fig2Domain {
	t1 := Table1()
	return []fig2Domain{
		{t1[0], 60, 22 * time.Millisecond, 6 * time.Millisecond, 2 * time.Millisecond},   // Airbnb
		{t1[1], 300, 30 * time.Millisecond, 8 * time.Millisecond, 2 * time.Millisecond},  // Booking.com
		{t1[2], 30, 18 * time.Millisecond, 5 * time.Millisecond, 3 * time.Millisecond},   // TripAdvisor
		{t1[3], 300, 35 * time.Millisecond, 10 * time.Millisecond, 2 * time.Millisecond}, // Agoda
		{t1[4], 20, 28 * time.Millisecond, 9 * time.Millisecond, 3 * time.Millisecond},   // Expedia
	}
}

// Fig2Cell is one bar of Figure 2.
type Fig2Cell struct {
	Domain string
	Access string
	Bar    stats.Bar
}

// Fig2Result is the full figure.
type Fig2Result struct {
	// Cells is indexed [domain][access] in Table 1 and profile order.
	Cells [][]Fig2Cell
	// Runs is the number of measured queries per bar.
	Runs int
}

// Fig2Config parameterizes Figure2.
type Fig2Config struct {
	Seed int64
	// Runs per bar; 0 means 15 (the paper uses "at least 12").
	Runs int
}

// fig2Gap is the virtual time between queries, enough for short-TTL
// answers to expire.
const fig2Gap = 20 * time.Second

// Figure2 reproduces the DNS-lookup-latency study: for each Table 1
// domain and each access network, a client issues repeated A queries
// through its Local DNS; bars are 8th–92nd percentile trimmed means
// with min/max whiskers.
func Figure2(cfg Fig2Config) (*Fig2Result, error) {
	if cfg.Runs <= 0 {
		cfg.Runs = 15
	}
	domains := fig2Domains()
	accesses := netprofile.All()
	res := &Fig2Result{Runs: cfg.Runs}
	for di, dom := range domains {
		row := make([]Fig2Cell, 0, len(accesses))
		for ai, access := range accesses {
			seed := cfg.Seed + int64(di*10+ai)
			bar, err := fig2Bar(seed, dom, access, cfg.Runs)
			if err != nil {
				return nil, fmt.Errorf("figure 2 %s/%s: %w", dom.Domain, access.Name, err)
			}
			row = append(row, Fig2Cell{Domain: dom.Domain, Access: access.Name, Bar: bar})
		}
		res.Cells = append(res.Cells, row)
	}
	return res, nil
}

// fig2Bar measures one (domain, access) bar on a fresh topology:
// client —(access)— ldns —(wan)— authoritative C-DNS.
func fig2Bar(seed int64, dom fig2Domain, access netprofile.Access, runs int) (stats.Bar, error) {
	net := simnet.New(seed)
	net.AddNode("client")
	net.AddNode("ldns")
	net.AddNode("auth")
	net.AddLink("client", "ldns", access.ToLDNS, access.Loss)
	net.AddLink("ldns", "auth",
		simnet.Shifted{Base: dom.AuthOneWay, Jitter: simnet.Normal{Mean: dom.AuthJitter, Stddev: dom.AuthJitter / 2}},
		0)

	qname := dnswire.CanonicalName(dom.Domain)
	zone := dnsserver.NewZone(qname)
	if err := zone.AddA(qname, dom.TTL, netip.MustParseAddr("198.51.100.77")); err != nil {
		return stats.Bar{}, err
	}
	dnsserver.Attach(net.Node("auth"), dnsserver.Chain(dnsserver.NewZonePlugin(zone)), nil,
		simnet.Constant(dom.AuthProcess))

	upClient := newSimClient(net, "ldns")
	cache := dnsserver.NewCache(net.Clock)
	fwd := &dnsserver.Forward{Upstreams: []netip.AddrPort{netip.AddrPortFrom(net.Node("auth").Addr, 53)}, Client: upClient}
	dnsserver.Attach(net.Node("ldns"), dnsserver.Chain(cache, fwd), nil, access.LDNSProcessing)

	client := &dnsclient.Client{
		Transport: &dnsclient.SimTransport{Endpoint: net.Node("client").Endpoint(), Timeout: 500 * time.Millisecond},
		Retries:   3,
	}
	client.SetRand(net.Rand())
	ldns := netip.AddrPortFrom(net.Node("ldns").Addr, 53)

	// Warm query: "for popular websites' CDN domains, the A records
	// TTL never expires at L-DNS" — mostly; short-TTL domains will
	// re-miss during the measured run.
	if _, err := client.Query(context.Background(), ldns, qname, dnswire.TypeA); err != nil {
		return stats.Bar{}, fmt.Errorf("warm query: %w", err)
	}

	sample := stats.New()
	for i := 0; i < runs; i++ {
		net.Clock.RunUntil(net.Now() + fig2Gap)
		start := net.Now()
		if _, err := client.Query(context.Background(), ldns, qname, dnswire.TypeA); err != nil {
			return stats.Bar{}, fmt.Errorf("run %d: %w", i, err)
		}
		sample.Add(net.Now() - start)
	}
	return sample.PaperBar(), nil
}

// Render prints the figure as one table: rows are domains, columns
// the three access networks.
func (r *Fig2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: DNS lookup latency (trimmed mean of %d runs, 8th–92nd pct; [min,max] whiskers)\n", r.Runs)
	fmt.Fprintf(&b, "%-26s", "CDN domain")
	if len(r.Cells) > 0 {
		for _, c := range r.Cells[0] {
			fmt.Fprintf(&b, " %-34s", c.Access)
		}
	}
	b.WriteString("\n")
	for _, row := range r.Cells {
		fmt.Fprintf(&b, "%-26s", row[0].Domain)
		for _, c := range row {
			fmt.Fprintf(&b, " %6.1fms [%6.1f,%7.1f] n=%-3d   ",
				stats.Ms(c.Bar.Mean), stats.Ms(c.Bar.Min), stats.Ms(c.Bar.Max), c.Bar.N)
		}
		b.WriteString("\n")
	}
	return b.String()
}
