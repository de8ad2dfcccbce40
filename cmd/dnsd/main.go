// Command dnsd runs the plugin-chain DNS server on real UDP and TCP
// sockets, serving operator-authored zone files authoritatively and
// forwarding everything else to an upstream resolver — a miniature
// CoreDNS shaped like the paper's MEC L-DNS.
//
// Usage:
//
//	dnsd -listen 127.0.0.1:5353 -zone mycdn.ciab.test.=./mycdn.zone \
//	     -stub cdn.example.=192.0.2.53:53 -forward 9.9.9.9:53,8.8.8.8:53 \
//	     -hedge 25ms -admin 127.0.0.1:8053
//
// The flags are the deployment: addresses, zones, routes and peers.
// The tuning every site shares is fixed in internal/dnsd (a 4096-entry
// cache over 16 shards, a 5s upstream cooldown after 3 failures, one
// ingress socket per core, ...).
//
// Flags may repeat: -zone and -stub accumulate. -forward and stub
// upstreams take comma-separated lists tried in order, with automatic
// failover on SERVFAIL/REFUSED and per-upstream cooldowns; -hedge
// races a second upstream after the given delay for tail-latency
// control.
//
// -probe-interval enables active upstream health probing: every
// forward and stub upstream is probed with a lightweight NS query on
// that cadence, scored through a hysteresis state machine (3
// consecutive failures demote, 2 successes promote), and the
// forwarders try probe-verified upstreams first.
//
// -cdn-domain embeds the C-DNS request router for one CDN domain.
// -routes loads its subnet→PoP table ("prefix popID" per line, #
// comments) and -pop maps each PoP ID to the edge address it answers
// with; a query whose ECS-disclosed subnet (or, without ECS, resolver
// source address) matches a route is answered with its PoP's address
// and an RFC 7871 scope equal to the matched route length. Lookups
// are exported as meccdn_route_lookups_total / meccdn_route_rows and
// summarized on the admin /routes endpoint.
//
// -mesh joins the embedded C-DNS to a federated multi-MEC mesh: it
// listens for ANNOUNCE/DIGEST datagrams on the given UDP address,
// gossips this site's content digest to every -peers target (repeat
// the flag: name=host:port) every 2s, and steers cache misses to the
// sibling MEC whose announced digest holds the object before falling
// back to the parent tier. Peer liveness is
// scored by a dedicated health registry fed by announce exchanges;
// the peer view is summarized on admin /mesh and exported as the
// meccdn_mesh_* metric families. -mesh-name sets the announced site
// identity (default: hostname). Requires -cdn-domain.
//
// -admin starts a side HTTP listener with /metrics (Prometheus text),
// /healthz (503 while draining), /health (upstream health JSON),
// /routes (subnet-table summary), /mesh (peer-view JSON), /reload
// (POST: online config reload), /querylog (sampled JSON-lines trace,
// rate set by -qlog-sample) and /debug/pprof. On SIGTERM/SIGINT the server
// drains: it stops accepting, waits up to 5s for in-flight queries,
// then prints the session's stats.
//
// SIGHUP (or POST /reload) re-parses every -zone file and the -routes
// file and atomically swaps the serving snapshots: a zone whose file
// changed publishes a new revision (the SOA serial adopted from the
// file when it advanced, else bumped), an unchanged zone or routes file
// publishes nothing, the response cache is flushed only when something
// was published, and not a single in-flight query is dropped or blocked —
// readers finish on the old snapshot while new queries see the new one.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/meccdn/meccdn/internal/dnsd"
)

// bind defines every dnsd flag on fs, each storing straight into its
// Config field.
func bind(fs *flag.FlagSet, c *dnsd.Config) {
	fs.StringVar(&c.Listen, "listen", "127.0.0.1:5353", "listen address (UDP and TCP)")
	fs.StringVar(&c.Forward, "forward", "", "upstream resolver(s) for unmatched names, comma-separated host:port tried in order")
	fs.DurationVar(&c.Hedge, "hedge", 0, "hedged-query delay: race a second upstream after this delay (0 disables)")
	fs.StringVar(&c.Admin, "admin", "", "admin HTTP address serving /metrics, /healthz, /querylog and /debug/pprof (empty disables)")
	fs.IntVar(&c.QlogSample, "qlog-sample", 16, "head-sample 1 in N queries into the query log (<=1 keeps all)")
	fs.DurationVar(&c.ProbeInterval, "probe-interval", 0, "active upstream health-probe cadence (0 disables probing)")
	fs.StringVar(&c.CDNDomain, "cdn-domain", "", "CDN domain served by the embedded C-DNS request router (empty disables)")
	fs.StringVar(&c.Routes, "routes", "", "subnet→PoP routes file for the C-DNS router, one \"prefix popID\" per line; requires -cdn-domain")
	fs.StringVar(&c.Mesh, "mesh", "", "UDP listen address for federated-mesh ANNOUNCE/DIGEST gossip (empty disables); requires -cdn-domain")
	fs.StringVar(&c.MeshName, "mesh-name", "", "site name announced to mesh peers (default: hostname); requires -mesh")
	fs.Func("zone", "origin=path to a zone file (repeatable)", c.AddZone)
	fs.Func("stub", "domain=upstream for stub-domain routing (repeatable)", c.AddStub)
	fs.Func("pop", "id=addr answer address for a PoP in the routes file (repeatable); requires -cdn-domain", c.AddPoP)
	fs.Func("peers", "name=host:port mesh peer to announce to (repeatable); requires -mesh", c.AddPeer)
}

func main() {
	var cfg dnsd.Config
	bind(flag.CommandLine, &cfg)
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "dnsd:", err)
		os.Exit(1)
	}
}

func run(cfg dnsd.Config) error {
	d, err := dnsd.Build(cfg)
	if err != nil {
		return err
	}
	if err := d.Start(); err != nil {
		return err
	}
	for _, line := range d.Describe() {
		fmt.Println(line)
	}
	fmt.Printf("dnsd listening on %v (UDP+TCP); Ctrl-C to stop, SIGHUP to reload\n", d.Server.LocalAddr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	for s := range sig {
		if s != syscall.SIGHUP {
			break
		}
		// Online reload; queries keep flowing throughout.
		switch err := d.Reload(); {
		case errors.Is(err, dnsd.ErrNothingReloadable):
			fmt.Println("SIGHUP:", err)
		case err != nil:
			fmt.Printf("SIGHUP reload failed: %v\n", err)
		default:
			fmt.Println("SIGHUP: configuration reloaded")
		}
	}

	// Graceful drain: stop accepting, give in-flight queries a bounded
	// window to finish, then report what the process saw.
	ctx, cancel := context.WithTimeout(context.Background(), dnsd.DrainBudget)
	defer cancel()
	fmt.Printf("\ndraining (up to %v)...\n", dnsd.DrainBudget)
	if err := d.Shutdown(ctx); err != nil {
		fmt.Printf("drain cut short: %v\n", err)
	}
	fmt.Printf("served %d queries\n", d.Metrics.Total())
	cs := d.Cache.Stats()
	fmt.Printf("cache: %d entries over %d shards, %d hits / %d misses, %d coalesced, %d evictions\n",
		cs.Entries, cs.Shards, cs.Hits, cs.Misses, cs.Coalesced, cs.Evictions)
	if lat := d.Hub.ServeDuration; lat.Count() > 0 {
		// Quantiles are histogram bucket bounds, hence "<=".
		fmt.Printf("serve latency: mean %v  p50 <=%v  p99 <=%v (n=%d)\n",
			(lat.Sum() / time.Duration(lat.Count())).Round(time.Microsecond),
			lat.Quantile(0.50), lat.Quantile(0.99), lat.Count())
	}
	return nil
}
