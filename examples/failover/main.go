// Failover demo: the health control plane in action.
//
// The paper's MEC-CDN answers DNS queries with edge cache addresses,
// which makes cache liveness a DNS-correctness problem: a stale
// answer points a UE at a dead instance. This example deploys a site
// with the health registry enabled and walks through its two
// mechanisms:
//
//  1. probing admission — new caches join the hash ring only after
//     their first successful probe;
//  2. failure demotion — a cache killed mid-run stops answering
//     probes and is demoted out of routing within one probe interval.
package main

import (
	"fmt"
	"log"
	"time"

	meccdn "github.com/meccdn/meccdn"
)

const domain = "mycdn.ciab.test."
const object = "video.demo1.mycdn.ciab.test."

func main() {
	tb := meccdn.NewTestbed(meccdn.TestbedConfig{Seed: 11})
	net := tb.Net

	// Far tier: origin in the cloud.
	originNode := tb.AddWAN("origin", 1)
	origin := meccdn.NewOrigin()
	catalog := meccdn.NewCatalog(domain)
	catalog.Publish(meccdn.Content{Name: object, Size: 1 << 20})
	origin.AddCatalog(catalog)
	meccdn.NewOriginServer(originNode, origin, meccdn.Constant(2*time.Millisecond))

	// Edge site with the health control plane on: demote after a
	// single failed probe, readmit after one success.
	site, err := meccdn.DeploySite(tb, meccdn.SiteConfig{
		Domain:       domain,
		CacheServers: 2,
		OriginAddr:   originNode.Addr,
		Health: &meccdn.HealthConfig{
			ProbeInterval: time.Second,
			DownAfter:     1,
			UpAfter:       1,
			MinDwell:      -1,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	site.Health.OnTransition(func(name string, from, to meccdn.HealthState) {
		fmt.Printf("  [health] %-12s %s -> %s\n", name, from, to)
	})

	// --- 1) Probing admission ---------------------------------------
	fmt.Printf("deployed %d caches; ring members before first probe: %d\n",
		len(site.Caches), len(site.Router.Ring.Members()))
	site.ProbeOnce()
	fmt.Printf("after first probe sweep: %d ring members\n\n", len(site.Router.Ring.Members()))

	ue := &meccdn.UEClient{EP: net.Node(meccdn.NodeUE).Endpoint(), MEC: site.LDNS}
	baseline, err := ue.ResolveAndFetch(domain, object)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline    -> %-14s via %-10s in %v\n\n", baseline.Resolve.Addr,
		baseline.Resolve.Source, baseline.Resolve.RTT)

	// --- 2) Kill the serving cache mid-run ---------------------------
	owner := site.Router.Ring.Owner(object)
	var victim *meccdn.CacheServer
	for _, c := range site.Caches {
		if c.Name == owner {
			victim = c
		}
	}
	fmt.Printf("killing %s (the instance serving %s)\n", victim.Name, object)
	victim.SetHealthy(false)
	site.ProbeOnce() // one probe interval later: demoted
	if st, _ := site.Health.State(victim.Name); st == meccdn.HealthDown {
		fmt.Printf("%s demoted within one probe interval; ring members: %d\n",
			victim.Name, len(site.Router.Ring.Members()))
	}
	net.Clock.RunUntil(net.Now() + time.Minute) // expire the cached DNS answer
	after, err := ue.ResolveAndFetch(domain, object)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("post-demote -> %-14s via %-10s in %v (survivor)\n\n", after.Resolve.Addr,
		after.Resolve.Source, after.Resolve.RTT)
}
