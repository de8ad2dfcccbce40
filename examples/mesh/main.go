// Federated mesh demo: two MEC sites gossiping content tables.
//
// The paper's design resolves CDN names entirely at the edge, but a
// single site only knows its own caches: a miss either fills from the
// parent tier behind the cellular core or eats the WAN latency the
// MEC deployment exists to avoid. This example deploys two sibling
// MEC sites that announce counting-Bloom digests of their content
// tables to each other, then walks through:
//
//  1. peer steering — a flash-crowd object cached only at site B is
//     requested at site A; A's C-DNS sees B's announced digest and
//     refers the UE to B's C-DNS, which answers with its warm cache;
//  2. the peer view — the generation-numbered table an operator reads
//     on the admin /mesh endpoint;
//  3. draining — removing B from A's peer set sends the next miss
//     back down the vertical parent-fill path.
package main

import (
	"fmt"
	"log"
	"time"

	meccdn "github.com/meccdn/meccdn"
)

const domain = "mycdn.ciab.test."
const object = "seg-0042.live.mycdn.ciab.test."

func main() {
	tb := meccdn.NewTestbed(meccdn.TestbedConfig{Seed: 7})

	// Shared origin in the cloud: the vertical fallback.
	originNode := tb.AddWAN("origin", 1)
	origin := meccdn.NewOrigin()
	catalog := meccdn.NewCatalog(domain)
	catalog.Publish(meccdn.Content{Name: object, Size: 4 << 20})
	origin.AddCatalog(catalog)
	meccdn.NewOriginServer(originNode, origin, meccdn.Constant(2*time.Millisecond))

	deploy := func(prefix string) *meccdn.Site {
		site, err := meccdn.DeploySite(tb, meccdn.SiteConfig{
			Domain:     domain,
			NamePrefix: prefix,
			OriginAddr: originNode.Addr,
			Mesh:       true,
		})
		if err != nil {
			log.Fatal(err)
		}
		return site
	}
	siteA, siteB := deploy("a-"), deploy("b-")
	if err := meccdn.ConnectMesh(siteA, siteB); err != nil {
		log.Fatal(err)
	}

	// A live segment lands at site B only; one announce round each way
	// publishes B's content table at A.
	siteB.Warm(meccdn.Content{Name: object, Size: 4 << 20})
	siteA.AnnounceOnce()
	siteB.AnnounceOnce()

	ue := &meccdn.UEClient{EP: tb.Net.Node(meccdn.NodeUE).Endpoint(), MEC: siteA.LDNS}

	fmt.Println("== 1. peer steering: the miss at A is served by sibling B ==")
	fr, err := ue.ResolveAndFetch(domain, object)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resolved via %-18s -> %v\n", fr.Resolve.Source, fr.Resolve.Addr)
	fmt.Printf("content: %s in %v end to end\n\n", fr.Content.Status, fr.Total.Round(time.Millisecond/10))

	fmt.Println("== 2. site A's peer view (the admin /mesh snapshot) ==")
	for _, p := range siteA.Mesh.Snapshot().Peers {
		fmt.Printf("peer %s gen=%d entries=%d load=%.2f eligible=%v\n",
			p.Name, p.Generation, p.Entries, p.Load, p.Eligible)
	}
	fmt.Printf("steered so far: %d peer hits\n\n", siteA.Mesh.View().PeerHits())

	fmt.Println("== 3. draining B: the same miss falls back to the parent ==")
	siteA.Mesh.RemovePeer(siteB.Mesh.Site())
	fr, err = ue.ResolveAndFetch(domain, object)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resolved via %-18s -> %v\n", fr.Resolve.Source, fr.Resolve.Addr)
	fmt.Printf("content: %s (filled from the origin) in %v\n",
		fr.Content.Status, fr.Total.Round(time.Millisecond/10))
}
