// Quickstart: deploy a MEC-CDN edge site on the simulated LTE testbed,
// resolve a CDN domain from the UE in a single edge-contained hop, and
// fetch the content — the full Figure 4 flow in ~40 lines. Then a second
// CDN customer joins the site, and one name of each customer resolves
// through the same MEC L-DNS address.
package main

import (
	"fmt"
	"log"
	"time"

	meccdn "github.com/meccdn/meccdn"
)

func main() {
	// A 4G testbed: UE — eNB — S-GW — P-GW, with MEC at the edge.
	tb := meccdn.NewTestbed(meccdn.TestbedConfig{Seed: 1})

	// An origin in the cloud holding the customer's catalog.
	originNode := tb.AddWAN("origin", 1)
	origin := meccdn.NewOrigin()
	catalog := meccdn.NewCatalog("mycdn.ciab.test.")
	catalog.Publish(meccdn.Content{Name: "video.demo1.mycdn.ciab.test.", Size: 4 << 20})
	origin.AddCatalog(catalog)
	meccdn.NewOriginServer(originNode, origin, meccdn.Constant(2*time.Millisecond))

	// The paper's design: split-namespace MEC L-DNS + collocated
	// C-DNS + edge caches, all behind Kubernetes-style cluster IPs.
	site, err := meccdn.DeploySite(tb, meccdn.SiteConfig{
		Domain:     "mycdn.ciab.test.",
		OriginAddr: originNode.Addr,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Pre-position the hot object at the edge.
	site.Warm(meccdn.Content{Name: "video.demo1.mycdn.ciab.test.", Size: 4 << 20})

	// The UE's target DNS is switched to the MEC DNS on attach.
	ue := &meccdn.UEClient{
		EP:  tb.Net.Node(meccdn.NodeUE).Endpoint(),
		MEC: site.LDNS,
	}
	res, err := ue.ResolveAndFetch("mycdn.ciab.test.", "video.demo1.mycdn.ciab.test.")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resolved %s -> %v (cluster IP) in %v via %s\n",
		"video.demo1.mycdn.ciab.test.", res.Resolve.Addr, res.Resolve.RTT, res.Resolve.Source)
	fmt.Printf("content: %s (%d bytes) in %v\n", res.Content.Status, res.Content.Size, res.Content.RTT)
	fmt.Printf("end-to-end: %v — edge-contained, no hierarchical DNS walk\n", res.Total)

	// A second CDN customer on the same site gets its own C-DNS and
	// caches behind cluster IPs, and shares the one public L-DNS.
	if _, err := site.AddDomain("streamco.example.", originNode.Addr, 1); err != nil {
		log.Fatal(err)
	}
	for _, name := range []string{"video.demo1.mycdn.ciab.test.", "live.streamco.example."} {
		r, err := ue.Resolve(name)
		if err != nil {
			log.Fatal(err)
		}
		if !r.Addr.IsValid() {
			log.Fatalf("%s did not resolve through %v", name, site.LDNS)
		}
		fmt.Printf("%s -> %v via the L-DNS at %v\n", name, r.Addr, site.LDNS)
	}
}
