// Command dnsd runs the plugin-chain DNS server on real UDP and TCP
// sockets, serving operator-authored zone files authoritatively and
// forwarding everything else to an upstream resolver — a miniature
// CoreDNS shaped like the paper's MEC L-DNS.
//
// Usage:
//
//	dnsd -listen 127.0.0.1:5353 -zone mycdn.ciab.test.=./mycdn.zone \
//	     -stub cdn.example.=192.0.2.53:53 -forward 9.9.9.9:53,8.8.8.8:53 \
//	     -hedge 25ms -cooldown 5s -cache-shards 16 -admin 127.0.0.1:8053
//
// Flags may repeat: -zone and -stub accumulate. -forward and stub
// upstreams take comma-separated lists tried in order, with automatic
// failover on SERVFAIL/REFUSED and per-upstream cooldowns; -hedge
// races a second upstream after the given delay for tail-latency
// control.
//
// -probe-interval enables active upstream health probing: every
// forward and stub upstream is probed with a lightweight NS query on
// that cadence, scored through a hysteresis state machine
// (-down-after consecutive failures demote, -up-after successes
// promote), and the forwarders try probe-verified upstreams first.
// -load-high/-load-low are ingress watermarks on the share of
// -udp-queue in use (UDP queries waiting on the network): above the
// high mark the registry flips its fallback switch (exported as
// meccdn_health_fallback_active) until load stays under the low mark.
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
// the flag: name=host:port) on the -announce-interval cadence, and
// steers cache misses to the sibling MEC whose announced digest holds
// the object before falling back to the parent tier. Peer liveness is
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
// drains: it stops accepting, waits up to -drain for in-flight
// queries, then prints the session's stats.
//
// SIGHUP (or POST /reload) re-parses every -zone file and the -routes
// file and atomically swaps the serving snapshots: zones keep their
// identity (so IXFR delta journals accumulate across reloads, with
// the SOA serial adopted from the file when it advanced, else bumped)
// and not a single in-flight query is dropped or blocked — readers
// finish on the old snapshot while new queries see the new one.
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
	fs.DurationVar(&c.Cooldown, "cooldown", 5*time.Second, "base cooldown window for an upstream after repeated failures")
	fs.IntVar(&c.MaxFailures, "max-failures", 3, "consecutive upstream failures before the cooldown trips")
	fs.IntVar(&c.CacheEntries, "cache-entries", 4096, "response cache capacity in entries")
	fs.IntVar(&c.CacheShards, "cache-shards", 16, "response cache shard count (reduced automatically for small caches)")
	fs.StringVar(&c.Admin, "admin", "", "admin HTTP address serving /metrics, /healthz, /querylog and /debug/pprof (empty disables)")
	fs.IntVar(&c.QlogSample, "qlog-sample", 16, "head-sample 1 in N queries into the query log (<=1 keeps all)")
	fs.IntVar(&c.QlogCap, "qlog-cap", 1024, "query-log ring capacity; oldest entries are overwritten")
	fs.DurationVar(&c.Drain, "drain", 5*time.Second, "graceful-drain budget for in-flight queries on shutdown")
	fs.IntVar(&c.UDPQueue, "udp-queue", 0, "UDP queries that may wait on the network (upstream exchanges) at once; a query that would wait beyond it is shed (0 means 128x GOMAXPROCS)")
	fs.IntVar(&c.Sockets, "sockets", 0, "SO_REUSEPORT-sharded UDP ingress sockets (0 means GOMAXPROCS; 1 or unsupported platforms use a single socket)")
	fs.IntVar(&c.Batch, "batch", 0, "max UDP datagrams moved per syscall via recvmmsg/sendmmsg (0 means 32 on Linux; 1 disables batching; capped at 64; non-Linux always 1)")
	fs.IntVar(&c.MaxConns, "max-conns", 0, "concurrent TCP connection cap; connections beyond it are closed at accept (0 means 512)")
	fs.Float64Var(&c.PrefetchFrac, "prefetch-frac", 0.1, "refresh-ahead window as a fraction of TTL: hits in the last frac of their lifetime trigger an async re-resolve (0 disables)")
	fs.DurationVar(&c.MaxStale, "max-stale", time.Hour, "RFC 8767 serve-stale window: on upstream failure, expired entries this recent are served with a clamped 30s TTL (0 disables)")
	fs.DurationVar(&c.ProbeInterval, "probe-interval", 0, "active upstream health-probe cadence (0 disables probing)")
	fs.DurationVar(&c.ProbeTimeout, "probe-timeout", 0, "per-probe timeout (0 means half the interval, capped at 2s)")
	fs.IntVar(&c.DownAfter, "down-after", 3, "consecutive probe failures before an upstream is marked down")
	fs.IntVar(&c.UpAfter, "up-after", 2, "consecutive probe successes before a down upstream recovers")
	fs.Float64Var(&c.LoadHigh, "load-high", 0, "ingress-load high watermark in [0,1] flipping the fallback switch (0 disables)")
	fs.Float64Var(&c.LoadLow, "load-low", 0, "ingress-load low watermark; routing restores after load stays below it (0 means half of -load-high)")
	fs.StringVar(&c.CDNDomain, "cdn-domain", "", "CDN domain served by the embedded C-DNS request router (empty disables)")
	fs.StringVar(&c.Routes, "routes", "", "subnet→PoP routes file for the C-DNS router, one \"prefix popID\" per line; requires -cdn-domain")
	fs.BoolVar(&c.RingBounded, "ring-bounded", false, "bounded-load routing: cap each CDN cache at -ring-load-factor times the mean load, spilling hot keys to the next ring owner with capacity; requires -cdn-domain")
	fs.Float64Var(&c.RingLoadFactor, "ring-load-factor", 1.25, "bounded-load cap as a multiple of the mean per-cache load (must be > 1); requires -cdn-domain")
	fs.StringVar(&c.Mesh, "mesh", "", "UDP listen address for federated-mesh ANNOUNCE/DIGEST gossip (empty disables); requires -cdn-domain")
	fs.StringVar(&c.MeshName, "mesh-name", "", "site name announced to mesh peers (default: hostname); requires -mesh")
	fs.DurationVar(&c.AnnounceInterval, "announce-interval", 2*time.Second, "mesh announce cadence; requires -mesh")
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
	ctx, cancel := context.WithTimeout(context.Background(), cfg.Drain)
	defer cancel()
	fmt.Printf("\ndraining (up to %v)...\n", cfg.Drain)
	if err := d.Shutdown(ctx); err != nil {
		fmt.Printf("drain cut short: %v\n", err)
	}
	fmt.Printf("served %d queries\n", d.Metrics.Total())
	cs := d.Cache.Stats()
	fmt.Printf("cache: %d entries over %d shards, %d hits / %d misses, %d coalesced, %d evictions\n",
		cs.Entries, cs.Shards, cs.Hits, cs.Misses, cs.Coalesced, cs.Evictions)
	if lat := d.Metrics.Duration(); lat.Count() > 0 {
		// Quantiles are histogram bucket bounds, hence "<=".
		fmt.Printf("serve latency: mean %v  p50 <=%v  p99 <=%v (n=%d)\n",
			(lat.Sum() / time.Duration(lat.Count())).Round(time.Microsecond),
			lat.Quantile(0.50), lat.Quantile(0.99), lat.Count())
	}
	return nil
}
