// Command meccdnsim runs an end-to-end MEC-CDN session on the
// simulated testbed: deploy a site, attach a UE, resolve and fetch a
// working set of objects, and print the latency and cache report —
// a one-command tour of the system.
//
// Usage:
//
//	meccdnsim                      # defaults
//	meccdnsim -objects 50 -requests 500 -air 5g -policy load
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	meccdn "github.com/meccdn/meccdn"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "simulation seed")
		objects  = flag.Int("objects", 20, "catalog size")
		requests = flag.Int("requests", 100, "number of UE requests")
		air      = flag.String("air", "4g", "air interface: 4g or 5g")
		caches   = flag.Int("caches", 2, "edge cache instances")
		policy   = flag.String("policy", "availability", "C-DNS policy: availability, rr, load")
		trace    = flag.Bool("trace", false, "print a per-hop packet timeline of the first request")
		metrics  = flag.Bool("metrics", false, "dump the site's telemetry registry in Prometheus text format after the run")
	)
	flag.Parse()
	if err := run(os.Stdout, *seed, *objects, *requests, *air, *caches, *policy, *trace, *metrics); err != nil {
		fmt.Fprintln(os.Stderr, "meccdnsim:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, seed int64, objects, requests int, air string, caches int, policy string, trace, metrics bool) error {
	airProfile := meccdn.LTE4G()
	if air == "5g" {
		airProfile = meccdn.NR5G()
	}
	policies := map[string]meccdn.SelectionPolicy{
		"availability": meccdn.AvailabilityFirst{},
		"rr":           &meccdn.RoundRobin{},
		"load":         meccdn.LeastLoaded{},
	}
	pol, ok := policies[policy]
	if !ok {
		return fmt.Errorf("unknown policy %q", policy)
	}

	tb := meccdn.NewTestbed(meccdn.TestbedConfig{Seed: seed, Air: airProfile})
	originNode := tb.AddWAN("origin", 1)
	origin := meccdn.NewOrigin()
	const domain = "mycdn.ciab.test."
	catalog := meccdn.NewCatalog(domain)
	for i := 0; i < objects; i++ {
		catalog.Publish(meccdn.Content{
			Name: fmt.Sprintf("chunk-%04d.video.%s", i, domain),
			Size: 1 << 20,
		})
	}
	origin.AddCatalog(catalog)
	meccdn.NewOriginServer(originNode, origin, meccdn.Constant(2*time.Millisecond))

	site, err := meccdn.DeploySite(tb, meccdn.SiteConfig{
		Domain:       domain,
		CacheServers: caches,
		OriginAddr:   originNode.Addr,
		Policy:       pol,
	})
	if err != nil {
		return err
	}

	ue := &meccdn.UEClient{EP: tb.Net.Node(meccdn.NodeUE).Endpoint(), MEC: site.LDNS}

	if trace {
		// Tap every node and narrate the first request hop by hop —
		// the simulated equivalent of tcpdump on every interface.
		fmt.Fprintln(out, "hop-by-hop timeline of the first request:")
		start := tb.Net.Now()
		for _, name := range tb.Net.Nodes() {
			node := tb.Net.Node(name)
			nodeName := name
			node.Tap(func(ev meccdn.HopEvent) {
				fmt.Fprintf(out, "  %9.3fms  %-8s %-22s %4dB exchange=%d reply=%v\n",
					float64(ev.Time-start)/float64(time.Millisecond),
					ev.Kind, nodeName, len(ev.Dg.Payload), ev.Dg.ExchangeID, ev.Dg.Reply)
			})
		}
		name := fmt.Sprintf("chunk-0000.video.%s", domain)
		if _, err := ue.ResolveAndFetch(domain, name); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}

	var totalResolve, totalFetch time.Duration
	hits := 0
	for i := 0; i < requests; i++ {
		name := fmt.Sprintf("chunk-%04d.video.%s", i%objects, domain)
		res, err := ue.ResolveAndFetch(domain, name)
		if err != nil {
			return fmt.Errorf("request %d (%s): %w", i, name, err)
		}
		totalResolve += res.Resolve.RTT
		totalFetch += res.Content.RTT
		if res.Content.Status == "HIT" {
			hits++
		}
	}

	fmt.Fprintf(out, "MEC-CDN session on %s: %d requests over %d objects, %d caches, policy %s\n",
		airProfile.Name, requests, objects, caches, policy)
	fmt.Fprintf(out, "  mean resolve latency: %8.2fms (edge-contained, single hop)\n",
		float64(totalResolve)/float64(requests)/float64(time.Millisecond))
	fmt.Fprintf(out, "  mean fetch latency:   %8.2fms\n",
		float64(totalFetch)/float64(requests)/float64(time.Millisecond))
	fmt.Fprintf(out, "  edge hit ratio:       %7.1f%% (%d HIT / %d FILLED-or-HIT)\n",
		100*float64(hits)/float64(requests), hits, requests)
	fmt.Fprintf(out, "  site cache hit ratio: %7.1f%%\n", 100*site.HitRatio())
	for i, cache := range site.Caches {
		st := cache.Cache().Stats()
		fmt.Fprintf(out, "  cache %d: %d objects, %.1f MiB, %d hits / %d misses, %d evictions\n",
			i, st.Objects, float64(st.UsedBytes)/(1<<20), st.Hits, st.Misses, st.Evictions)
	}
	ms := site.MsgCache.Stats()
	fmt.Fprintf(out, "  L-DNS msg cache: %d entries over %d shards, %d hits / %d misses, %d coalesced\n",
		ms.Entries, ms.Shards, ms.Hits, ms.Misses, ms.Coalesced)
	if d := site.Hub.ServeDuration; d.Count() > 0 {
		msec := func(t time.Duration) float64 { return float64(t) / float64(time.Millisecond) }
		fmt.Fprintf(out, "  L-DNS serve time (virtual): mean %8.2fms  p50 <=%.2fms  p99 <=%.2fms  n=%d\n",
			msec(d.Sum())/float64(d.Count()), msec(d.Quantile(0.50)), msec(d.Quantile(0.99)), d.Count())
	}
	fmt.Fprintf(out, "  virtual time elapsed: %v (wall time: instantaneous)\n", tb.Net.Now().Round(time.Millisecond))

	if metrics {
		// The same families a live dnsd serves on /metrics, here fed by
		// virtual time — so simulated and real deployments report
		// against identical metric names.
		reg := meccdn.NewTelemetryRegistry()
		if err := reg.Register(site.Metrics.Collectors()...); err != nil {
			return err
		}
		if err := reg.Register(site.MsgCache.Collectors()...); err != nil {
			return err
		}
		if err := reg.Register(site.Router.Collectors()...); err != nil {
			return err
		}
		if site.Shed != nil {
			if err := reg.Register(site.Shed.Collectors()...); err != nil {
				return err
			}
		}
		fmt.Fprintln(out, "\n# telemetry registry (Prometheus text exposition)")
		if err := reg.WritePrometheus(out); err != nil {
			return err
		}
	}
	return nil
}
