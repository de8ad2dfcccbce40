package experiments

import (
	"context"
	"fmt"
	"net/netip"
	"strings"
	"time"

	"github.com/meccdn/meccdn/internal/cdn"
	"github.com/meccdn/meccdn/internal/dnsclient"
	"github.com/meccdn/meccdn/internal/dnsserver"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/geoip"
	"github.com/meccdn/meccdn/internal/lte"
	"github.com/meccdn/meccdn/internal/simnet"
	"github.com/meccdn/meccdn/internal/stats"
	"github.com/meccdn/meccdn/internal/trace"
)

// SweepPoint is one C-DNS distance in the budget sweep.
type SweepPoint struct {
	// OneWay is the L-DNS→C-DNS one-way link latency.
	OneWay time.Duration
	// Total is the mean UE-observed resolution latency.
	Total time.Duration
	// Resolver is the mean beyond-P-GW portion.
	Resolver time.Duration
	// FitsBudget reports Resolver < sweepBudget.
	FitsBudget bool
}

// SweepResult is experiment X6: how far away can the C-DNS be before
// the DNS part of the lookup blows the latency budget? §4's
// observation is binary (LAN fits, WAN does not); the sweep locates
// the crossover.
type SweepResult struct {
	Points []SweepPoint
	// Crossover is the first swept distance whose resolver portion
	// exceeds the budget (zero if none did).
	Crossover time.Duration
}

// SweepConfig parameterizes BudgetSweep.
type SweepConfig struct {
	Seed int64
	// Runs per point; 0 means 10.
	Runs int
}

// sweepBudget is the DNS-portion budget: the paper's MEC latency
// envelope.
const sweepBudget = 20 * time.Millisecond

// sweepDistances are the one-way L-DNS→C-DNS latencies swept.
var sweepDistances = []time.Duration{
	200 * time.Microsecond, time.Millisecond, 2 * time.Millisecond,
	5 * time.Millisecond, 8 * time.Millisecond, 12 * time.Millisecond,
	16 * time.Millisecond, 25 * time.Millisecond,
}

// BudgetSweep measures MEC-L-DNS resolution with the C-DNS placed at
// increasing distances, reporting where the beyond-the-air portion
// crosses the latency budget.
func BudgetSweep(cfg SweepConfig) (*SweepResult, error) {
	if cfg.Runs <= 0 {
		cfg.Runs = 10
	}
	res := &SweepResult{}
	for i, d := range sweepDistances {
		point, err := sweepPoint(cfg.Seed+int64(i), d, cfg.Runs)
		if err != nil {
			return nil, fmt.Errorf("sweep %v: %w", d, err)
		}
		point.FitsBudget = point.Resolver < sweepBudget
		res.Points = append(res.Points, point)
		if !point.FitsBudget && res.Crossover == 0 {
			res.Crossover = d
		}
	}
	return res, nil
}

// sweepPoint builds a MEC L-DNS whose stub C-DNS sits oneWay away and
// measures resolution from the UE.
func sweepPoint(seed int64, oneWay time.Duration, runs int) (SweepPoint, error) {
	tb := fig5Testbed(seed, lte.LTE4G())

	router := cdn.NewRouter(Fig5Domain)
	cacheNode := tb.AddMEC("cache")
	server := cdn.NewCacheServer(cacheNode, cdn.CacheServerConfig{
		Name: "cache", Tier: cdn.TierEdge, CapacityBytes: 1 << 20,
		Domains: []string{Fig5Domain},
	})
	router.AddServer(server, geoip.Location{Name: "mec"})

	cdnsNode := tb.Net.AddNode("swept-cdns")
	tb.Net.AddLink(lte.NodePGW, "swept-cdns", simnet.Constant(oneWay), 0)
	dnsserver.Attach(cdnsNode, dnsserver.Chain(router), nil, fig5CDNSProc)

	ldnsNode := tb.AddMEC("mec-ldns")
	upClient := newSimClient(tb.Net, ldnsNode.Name)
	stub := dnsserver.NewStub(upClient)
	stub.Route(Fig5Domain, netip.AddrPortFrom(cdnsNode.Addr, 53))
	dnsserver.Attach(ldnsNode, dnsserver.Chain(stub), nil, fig5LDNSProc)

	tap := trace.Install(tb.Net, lte.NodePGW)
	client := &dnsclient.Client{
		Transport: &dnsclient.SimTransport{Endpoint: tb.Net.Node(lte.NodeUE).Endpoint(), Timeout: 2 * time.Second},
		Retries:   2,
	}
	client.SetRand(tb.Net.Rand())
	target := netip.AddrPortFrom(ldnsNode.Addr, 53)

	total := stats.New()
	var resolver time.Duration
	for i := 0; i < runs; i++ {
		tb.Net.Clock.RunUntil(tb.Net.Now() + time.Minute)
		tap.Reset()
		start := tb.Net.Now()
		if _, err := client.Query(context.Background(), target, Fig5Query, dnswire.TypeA); err != nil {
			return SweepPoint{}, err
		}
		end := tb.Net.Now()
		total.Add(end - start)
		resolver += tap.Measure(start, end).Resolver
	}
	return SweepPoint{
		OneWay:   oneWay,
		Total:    total.Mean(),
		Resolver: resolver / time.Duration(runs),
	}, nil
}

// Render prints the sweep.
func (r *SweepResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "X6 §4: C-DNS distance sweep against a %v DNS budget\n", sweepBudget)
	fmt.Fprintf(&b, "%14s %12s %14s %s\n", "c-dns one-way", "total", "DNS portion", "fits budget")
	for _, p := range r.Points {
		fits := "yes"
		if !p.FitsBudget {
			fits = "NO"
		}
		fmt.Fprintf(&b, "%12.1fms %10.1fms %12.1fms %s\n",
			stats.Ms(p.OneWay), stats.Ms(p.Total), stats.Ms(p.Resolver), fits)
	}
	if r.Crossover > 0 {
		fmt.Fprintf(&b, "crossover: the budget breaks once the C-DNS is ≥%.1fms away (one-way)\n", stats.Ms(r.Crossover))
	} else {
		b.WriteString("crossover: never exceeded in the swept range\n")
	}
	return b.String()
}
