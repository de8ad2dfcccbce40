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
	"github.com/meccdn/meccdn/internal/lpm"
	"github.com/meccdn/meccdn/internal/resolver"
	"github.com/meccdn/meccdn/internal/simnet"
)

// ECSRouteResult is the X7 subnet-routing accuracy comparison: how
// often the C-DNS picks each client's designated PoP when queries
// arrive through a shared recursive resolver, with and without EDNS
// Client Subnet.
type ECSRouteResult struct {
	Clients   int
	PoPs      int
	RouteRows int
	// Accuracy is the fraction of clients answered with their mapped
	// PoP's address, per arm.
	WithoutECS float64
	WithECS    float64
	// ScopeWithECS is the mean ECS scope stamped on the with-ECS
	// answers (the route length the table matched).
	ScopeWithECS float64
}

// ecsRouteQuery is the content host name resolved by every client.
const ecsRouteQuery = "video.demo1.mycdn.ciab.test."

// ECSRouting measures edge-selection accuracy of the subnet→PoP table
// through a recursive-resolver hop. Every client sits in its own /24
// and is assigned a PoP by the C-DNS routing table; all clients share
// one recursive L-DNS in a different subnet (the aggregation the paper
// blames for DNS-based misdirection). Without ECS the C-DNS sees only
// the resolver's source address, so every client collapses onto the
// resolver's PoP; with ECS forwarded, the disclosed /24 restores the
// per-client mapping.
func ECSRouting(seed int64, clients, pops int) (*ECSRouteResult, error) {
	if clients <= 0 {
		clients = 24
	}
	if pops <= 0 {
		pops = 4
	}
	res := &ECSRouteResult{Clients: clients, PoPs: pops}
	base, rows, err := ecsRouteArmRun(seed, clients, pops, false)
	if err != nil {
		return nil, fmt.Errorf("ecsroute without ECS: %w", err)
	}
	withECS, _, err := ecsRouteArmRun(seed+1, clients, pops, true)
	if err != nil {
		return nil, fmt.Errorf("ecsroute with ECS: %w", err)
	}
	res.RouteRows = rows
	res.WithoutECS = base.accuracy
	res.WithECS = withECS.accuracy
	res.ScopeWithECS = withECS.meanScope
	return res, nil
}

type ecsRouteArm struct {
	accuracy  float64
	meanScope float64
}

func ecsRouteArmRun(seed int64, clients, pops int, ecs bool) (ecsRouteArm, int, error) {
	net := simnet.New(seed)
	delay := simnet.Constant(time.Millisecond)
	proc := simnet.Constant(500 * time.Microsecond)

	// C-DNS with the subnet→PoP table: one /24 route per client subnet
	// plus a route covering the resolver, so the no-ECS arm still
	// routes (to the wrong, resolver-local PoP).
	cdnsNode := net.AddNode("cdns")
	router := cdn.NewRouter(Fig5Domain)
	b := lpm.NewBuilder()
	popAddrs := make([]netip.Addr, pops)
	for p := 0; p < pops; p++ {
		popAddrs[p] = netip.AddrFrom4([4]byte{198, 18, 0, byte(p + 1)})
		router.MapPoP(lpm.PoP(p), popAddrs[p])
	}
	want := make([]netip.Addr, clients)
	wantScope := make([]int, clients)
	for c := 0; c < clients; c++ {
		p := c % pops
		prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 77, byte(c), 0}), 24)
		if err := b.Add(prefix, lpm.PoP(p)); err != nil {
			return ecsRouteArm{}, 0, err
		}
		want[c] = popAddrs[p]
		wantScope[c] = 24
	}
	if err := b.Add(netip.MustParsePrefix("192.0.2.0/24"), 0); err != nil {
		return ecsRouteArm{}, 0, err
	}
	table := b.Build()
	router.SetRoutes(table)
	dnsserver.Attach(cdnsNode, dnsserver.Chain(router), proc)

	// A-DNS: the parent zone delegates the CDN domain to the C-DNS, so
	// the resolver walks a real referral before the content query.
	adnsNode := net.AddNode("adns")
	parent := dnsserver.NewZone("ciab.test.")
	if err := parent.Add(&dnswire.NS{
		Hdr: dnswire.RRHeader{Name: Fig5Domain, Type: dnswire.TypeNS, Class: dnswire.ClassINET, TTL: 3600},
		NS:  "ns." + Fig5Domain,
	}); err != nil {
		return ecsRouteArm{}, 0, err
	}
	if err := parent.AddA("ns."+Fig5Domain, 3600, cdnsNode.Addr); err != nil {
		return ecsRouteArm{}, 0, err
	}
	dnsserver.Attach(adnsNode, dnsserver.Chain(dnsserver.NewZonePlugin(parent)), proc)

	// The shared recursive L-DNS, in its own subnet.
	ldnsNode := net.AddNodeAddr("ldns", netip.MustParseAddr("192.0.2.53"))
	net.AddLink("ldns", "adns", delay, 0)
	net.AddLink("ldns", "cdns", delay, 0)
	upClient := &dnsclient.Client{Transport: &dnsclient.SimTransport{Endpoint: ldnsNode.Endpoint()}}
	upClient.SetRand(net.Rand())
	rec := resolver.New(upClient, net.Clock, netip.AddrPortFrom(adnsNode.Addr, 53))
	rec.ForwardECS = ecs
	plugins := []dnsserver.Plugin{}
	if ecs {
		plugins = append(plugins, &dnsserver.ECS{})
	}
	plugins = append(plugins, rec)
	dnsserver.Attach(ldnsNode, dnsserver.Chain(plugins...), proc)

	correct := 0
	scopeSum := 0
	target := netip.AddrPortFrom(ldnsNode.Addr, 53)
	for c := 0; c < clients; c++ {
		name := fmt.Sprintf("client-%d", c)
		node := net.AddNodeAddr(name, netip.AddrFrom4([4]byte{10, 77, byte(c), 1}))
		net.AddLink(name, "ldns", delay, 0)
		// With an OPT: the scope is read off the relayed ECS echo, which a
		// reply to an OPT-less query may not carry (RFC 6891 §7).
		cl := &dnsclient.Client{Transport: &dnsclient.SimTransport{Endpoint: node.Endpoint(), Timeout: 3 * time.Second}, UDPSize: dnswire.DefaultEDNSSize}
		cl.SetRand(net.Rand())
		resp, err := cl.Query(context.Background(), target, ecsRouteQuery, dnswire.TypeA)
		if err != nil {
			return ecsRouteArm{}, 0, fmt.Errorf("client %d: %w", c, err)
		}
		var answer netip.Addr
		for _, rr := range resp.Answers {
			if a, ok := rr.(*dnswire.A); ok {
				answer = a.Addr
			}
		}
		if !answer.IsValid() {
			return ecsRouteArm{}, 0, fmt.Errorf("client %d: no A answer (rcode %v)", c, resp.Rcode)
		}
		if answer == want[c] {
			correct++
		}
		if e, ok := resp.ECS(); ok {
			scopeSum += int(e.ScopePrefix)
		}
	}
	return ecsRouteArm{
		accuracy:  float64(correct) / float64(clients),
		meanScope: float64(scopeSum) / float64(clients),
	}, table.Rows(), nil
}

// Render prints the comparison.
func (r *ECSRouteResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "X7 ECS subnet routing: %d clients in distinct /24s, %d PoPs, %d-row table, one shared recursive L-DNS\n",
		r.Clients, r.PoPs, r.RouteRows)
	fmt.Fprintf(&b, "%-14s %10s\n", "arm", "accuracy")
	fmt.Fprintf(&b, "%-14s %9.1f%%   (C-DNS sees only the resolver's subnet)\n", "without ECS", 100*r.WithoutECS)
	fmt.Fprintf(&b, "%-14s %9.1f%%   (mean answer scope /%.0f)\n", "with ECS", 100*r.WithECS, r.ScopeWithECS)
	return b.String()
}
