package meccdn_test

import (
	"fmt"
	"log"
	"net/netip"
	"time"

	meccdn "github.com/meccdn/meccdn"
)

// Example deploys a complete MEC-CDN site and performs one
// edge-contained resolution + content fetch from the UE.
func Example() {
	tb := meccdn.NewTestbed(meccdn.TestbedConfig{Seed: 1})

	originNode := tb.AddWAN("origin", 1)
	origin := meccdn.NewOrigin()
	catalog := meccdn.NewCatalog("mycdn.ciab.test.")
	catalog.Publish(meccdn.Content{Name: "video.demo1.mycdn.ciab.test.", Size: 4 << 20})
	origin.AddCatalog(catalog)
	meccdn.NewOriginServer(originNode, origin, nil)

	site, err := meccdn.DeploySite(tb, meccdn.SiteConfig{
		Domain:     "mycdn.ciab.test.",
		OriginAddr: originNode.Addr,
	})
	if err != nil {
		log.Fatal(err)
	}
	site.Warm(meccdn.Content{Name: "video.demo1.mycdn.ciab.test.", Size: 4 << 20})

	ue := &meccdn.UEClient{EP: tb.Net.Node(meccdn.NodeUE).Endpoint(), MEC: site.LDNS}
	res, err := ue.ResolveAndFetch("mycdn.ciab.test.", "video.demo1.mycdn.ciab.test.")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("cluster IP:", res.Resolve.Addr)
	fmt.Println("status:", res.Content.Status)
	fmt.Println("edge-contained:", res.Total < 80*time.Millisecond)
	// Output:
	// cluster IP: 10.96.0.1
	// status: HIT
	// edge-contained: true
}

// ExampleNewZone builds an authoritative zone and looks a name up in
// it, entirely in memory.
func ExampleNewZone() {
	zone := meccdn.NewZone("mycdn.ciab.test.")
	_ = zone.AddCNAME("video.demo1.mycdn.ciab.test.", 300, "edge1.mycdn.ciab.test.")
	res, answers, _ := zone.View().Lookup("video.demo1.mycdn.ciab.test.", meccdn.TypeCNAME, nil)
	fmt.Println(res == 0, len(answers)) // LookupSuccess, one CNAME
	// Output:
	// true 1
}

// ExampleUEClient_multicast shows the paper's client-side multicast
// policy: query both the MEC DNS and the provider L-DNS, take the
// faster useful answer.
func ExampleUEClient_multicast() {
	tb := meccdn.NewTestbed(meccdn.TestbedConfig{Seed: 2})
	site, err := meccdn.DeploySite(tb, meccdn.SiteConfig{Domain: "mycdn.ciab.test."})
	if err != nil {
		log.Fatal(err)
	}
	// A (slow) provider L-DNS on the LAN that only refuses.
	provider := tb.AddLAN("provider-ldns")
	meccdn.AttachDNS(provider, meccdn.Chain(), nil)

	ue := &meccdn.UEClient{
		EP:       tb.Net.Node(meccdn.NodeUE).Endpoint(),
		MEC:      site.LDNS,
		Provider: addrPort53(provider),
		Mode:     meccdn.Multicast,
	}
	res, err := ue.Resolve("video.demo1.mycdn.ciab.test.")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("winner:", res.Source)
	// Output:
	// winner: mec
}

// ExampleRunFigure5 regenerates the paper's headline comparison.
func ExampleRunFigure5() {
	res, err := meccdn.RunFigure5(meccdn.Fig5Config{Seed: 42, Runs: 12})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("deployments:", len(res.Rows))
	fmt.Println("MEC-CDN wins by >5x:", res.Speedup() > 5)
	// Output:
	// deployments: 6
	// MEC-CDN wins by >5x: true
}

func addrPort53(n *meccdn.Node) netip.AddrPort { return netip.AddrPortFrom(n.Addr, 53) }
