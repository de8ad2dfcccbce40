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
// -load-high/-load-low are ingress watermarks on the UDP queue: above
// the high mark the registry flips its fallback switch (exported as
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
	"flag"
	"fmt"
	"net"
	"net/netip"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	meccdn "github.com/meccdn/meccdn"
)

type repeated []string

func (r *repeated) String() string     { return strings.Join(*r, ",") }
func (r *repeated) Set(v string) error { *r = append(*r, v); return nil }

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:5353", "listen address (UDP and TCP)")
		forward     = flag.String("forward", "", "upstream resolver(s) for unmatched names, comma-separated host:port tried in order")
		hedge       = flag.Duration("hedge", 0, "hedged-query delay: race a second upstream after this delay (0 disables)")
		cooldown    = flag.Duration("cooldown", 5*time.Second, "base cooldown window for an upstream after repeated failures")
		maxFailures = flag.Int("max-failures", 3, "consecutive upstream failures before the cooldown trips")
		cacheSize   = flag.Int("cache-entries", 4096, "response cache capacity in entries")
		cacheShards = flag.Int("cache-shards", 16, "response cache shard count (reduced automatically for small caches)")
		admin       = flag.String("admin", "", "admin HTTP address serving /metrics, /healthz, /querylog and /debug/pprof (empty disables)")
		qlogSample  = flag.Int("qlog-sample", 16, "head-sample 1 in N queries into the query log (<=1 keeps all)")
		qlogCap     = flag.Int("qlog-cap", 1024, "query-log ring capacity; oldest entries are overwritten")
		drain       = flag.Duration("drain", 5*time.Second, "graceful-drain budget for in-flight queries on shutdown")
		workers     = flag.Int("workers", 0, "UDP worker goroutines serving the ingress queue (0 means GOMAXPROCS)")
		udpQueue    = flag.Int("udp-queue", 0, "UDP ingress queue depth; packets beyond it are shed (0 means 4x workers)")
		sockets     = flag.Int("sockets", 0, "SO_REUSEPORT-sharded UDP ingress sockets (0 means GOMAXPROCS; 1 or unsupported platforms use a single socket)")
		batch       = flag.Int("batch", 0, "max UDP datagrams moved per syscall via recvmmsg/sendmmsg (0 means 32 on Linux; 1 disables batching; capped at 64; non-Linux always 1)")
		maxConns    = flag.Int("max-conns", 0, "concurrent TCP connection cap; connections beyond it are closed at accept (0 means 512)")
		prefetch    = flag.Float64("prefetch-frac", 0.1, "refresh-ahead window as a fraction of TTL: hits in the last frac of their lifetime trigger an async re-resolve (0 disables)")
		maxStale    = flag.Duration("max-stale", time.Hour, "RFC 8767 serve-stale window: on upstream failure, expired entries this recent are served with a clamped 30s TTL (0 disables)")
		probeIvl    = flag.Duration("probe-interval", 0, "active upstream health-probe cadence (0 disables probing)")
		probeTmo    = flag.Duration("probe-timeout", 0, "per-probe timeout (0 means half the interval, capped at 2s)")
		downAfter   = flag.Int("down-after", 3, "consecutive probe failures before an upstream is marked down")
		upAfter     = flag.Int("up-after", 2, "consecutive probe successes before a down upstream recovers")
		loadHigh    = flag.Float64("load-high", 0, "ingress-load high watermark in [0,1] flipping the fallback switch (0 disables)")
		loadLow     = flag.Float64("load-low", 0, "ingress-load low watermark; routing restores after load stays below it (0 means half of -load-high)")
		cdnDomain   = flag.String("cdn-domain", "", "CDN domain served by the embedded C-DNS request router (empty disables)")
		routes      = flag.String("routes", "", "subnet→PoP routes file for the C-DNS router, one \"prefix popID\" per line; requires -cdn-domain")
		ringBounded = flag.Bool("ring-bounded", false, "bounded-load routing: cap each CDN cache at -ring-load-factor times the mean load, spilling hot keys to the next ring owner with capacity; requires -cdn-domain")
		ringFactor  = flag.Float64("ring-load-factor", 1.25, "bounded-load cap as a multiple of the mean per-cache load (must be > 1); requires -cdn-domain")
		meshAddr    = flag.String("mesh", "", "UDP listen address for federated-mesh ANNOUNCE/DIGEST gossip (empty disables); requires -cdn-domain")
		meshName    = flag.String("mesh-name", "", "site name announced to mesh peers (default: hostname); requires -mesh")
		announceIvl = flag.Duration("announce-interval", 2*time.Second, "mesh announce cadence; requires -mesh")
		zones       repeated
		stubs       repeated
		pops        repeated
		peers       repeated
	)
	flag.Var(&zones, "zone", "origin=path to a zone file (repeatable)")
	flag.Var(&stubs, "stub", "domain=upstream for stub-domain routing (repeatable)")
	flag.Var(&pops, "pop", "id=addr answer address for a PoP in the routes file (repeatable); requires -cdn-domain")
	flag.Var(&peers, "peers", "name=host:port mesh peer to announce to (repeatable); requires -mesh")
	flag.Parse()

	cfg := serverConfig{
		listen:      *listen,
		forward:     *forward,
		hedge:       *hedge,
		cooldown:    *cooldown,
		maxFailures: *maxFailures,
		cacheSize:   *cacheSize,
		cacheShards: *cacheShards,
		admin:       *admin,
		qlogSample:  *qlogSample,
		qlogCap:     *qlogCap,
		drain:       *drain,
		workers:     *workers,
		udpQueue:    *udpQueue,
		sockets:     *sockets,
		batch:       *batch,
		maxConns:    *maxConns,
		prefetch:    *prefetch,
		maxStale:    *maxStale,
		probeIvl:    *probeIvl,
		probeTmo:    *probeTmo,
		downAfter:   *downAfter,
		upAfter:     *upAfter,
		loadHigh:    *loadHigh,
		loadLow:     *loadLow,
		cdnDomain:   *cdnDomain,
		routes:      *routes,
		ringBounded: *ringBounded,
		ringFactor:  *ringFactor,
		meshAddr:    *meshAddr,
		meshName:    *meshName,
		announceIvl: *announceIvl,
		zones:       zones,
		stubs:       stubs,
		pops:        pops,
		peers:       peers,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "dnsd:", err)
		os.Exit(1)
	}
}

// serverConfig carries the flag values into build.
type serverConfig struct {
	listen, forward        string
	hedge, cooldown        time.Duration
	maxFailures            int
	cacheSize, cacheShards int
	admin                  string
	qlogSample, qlogCap    int
	drain                  time.Duration
	workers, udpQueue      int
	sockets, maxConns      int
	batch                  int
	prefetch               float64
	maxStale               time.Duration
	probeIvl, probeTmo     time.Duration
	downAfter, upAfter     int
	loadHigh, loadLow      float64
	cdnDomain, routes      string
	ringBounded            bool
	ringFactor             float64
	meshAddr, meshName     string
	announceIvl            time.Duration
	zones, stubs, pops     []string
	peers                  []string
}

// daemon is the assembled-but-not-started server process.
type daemon struct {
	srv      *meccdn.DNSServer
	upstream *meccdn.NetTransport // every upstream exchange's sockets
	metrics  *meccdn.DNSMetrics
	cache    *meccdn.DNSCache
	hub      *meccdn.Telemetry
	admin    *meccdn.TelemetryAdmin // nil unless -admin was given
	health   *meccdn.HealthRegistry // nil unless -probe-interval was given
	checker  *meccdn.HealthChecker  // probe loop feeding health
	router   *meccdn.Router         // nil unless -cdn-domain was given
	mesh     *meccdn.MeshAgent      // nil unless -mesh was given
	meshAddr string                 // mesh UDP listen address
	reloader *reloader              // nil when nothing is reloadable
}

// zoneSource ties a served zone to the file it was parsed from, so a
// reload can re-parse the file and swap the records into the same
// *Zone (preserving identity, and with it the IXFR delta journal).
type zoneSource struct {
	zone *meccdn.Zone
	path string
}

// reloader re-reads the zone and routes files and publishes the new
// snapshots in place. Serving never pauses: in-flight queries finish
// on the old snapshots, new ones see the new — the same copy-on-write
// publish every mutation path uses, just driven from files.
type reloader struct {
	mu         sync.Mutex // one reload at a time (SIGHUP vs /reload)
	zones      []zoneSource
	routesPath string
	router     *meccdn.Router
	cache      *meccdn.DNSCache // flushed after a successful swap

	total      *meccdn.TelemetryCounterVec
	zoneSwaps  *meccdn.TelemetryCounter
	routeSwaps *meccdn.TelemetryCounter
}

func newReloader(zones []zoneSource, routesPath string, router *meccdn.Router, cache *meccdn.DNSCache) *reloader {
	return &reloader{
		zones:      zones,
		routesPath: routesPath,
		router:     router,
		cache:      cache,
		total: meccdn.NewTelemetryCounterVec("meccdn_reload_total",
			"Online reloads (SIGHUP or admin /reload) by result.", "result"),
		zoneSwaps: meccdn.NewTelemetryCounter("meccdn_reload_zone_swaps_total",
			"Zone snapshots republished by online reloads."),
		routeSwaps: meccdn.NewTelemetryCounter("meccdn_reload_route_swaps_total",
			"Subnet→PoP route tables republished by online reloads."),
	}
}

// collectors returns the reload metric families for registration.
func (r *reloader) collectors() []meccdn.TelemetryCollector {
	return []meccdn.TelemetryCollector{r.total, r.zoneSwaps, r.routeSwaps}
}

// reload re-parses every tracked file and swaps the snapshots. Files
// are applied as they parse; the first error aborts (already-applied
// swaps stay — each swap is individually consistent).
func (r *reloader) reload() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, zs := range r.zones {
		f, err := os.Open(zs.path)
		if err != nil {
			r.total.Inc("error")
			return err
		}
		parsed, err := meccdn.ParseZone(zs.zone.Origin, f)
		f.Close()
		if err != nil {
			r.total.Inc("error")
			return fmt.Errorf("reloading %s: %w", zs.path, err)
		}
		zs.zone.Replace(parsed)
		r.zoneSwaps.Inc()
	}
	if r.routesPath != "" && r.router != nil {
		f, err := os.Open(r.routesPath)
		if err != nil {
			r.total.Inc("error")
			return err
		}
		table, err := meccdn.ParseRoutes(f)
		f.Close()
		if err != nil {
			r.total.Inc("error")
			return fmt.Errorf("reloading %s: %w", r.routesPath, err)
		}
		r.router.SetRoutes(table)
		r.routeSwaps.Inc()
	}
	// Answers cached before the swap may cite replaced records; drop
	// them so clients converge on the new data immediately.
	if r.cache != nil {
		r.cache.Flush()
	}
	r.total.Inc("ok")
	return nil
}

func run(cfg serverConfig) error {
	d, err := build(cfg)
	if err != nil {
		return err
	}
	if err := d.srv.Start(); err != nil {
		return err
	}
	if d.checker != nil {
		d.checker.Start()
		defer d.checker.Stop()
		hc := d.health.Config()
		fmt.Printf("health probing %d upstreams every %v (down after %d failures, up after %d successes)\n",
			len(d.health.Targets()), hc.ProbeInterval, hc.DownAfter, hc.UpAfter)
	}
	if d.mesh != nil {
		conn, err := net.ListenPacket("udp", d.meshAddr)
		if err != nil {
			d.srv.Close()
			return err
		}
		defer conn.Close()
		go func() { _ = d.mesh.ServeUDP(conn) }()
		d.mesh.Start()
		defer d.mesh.Stop()
		fmt.Printf("mesh gossip on %v as %q, announcing to %d peer(s) every %v\n",
			conn.LocalAddr(), d.mesh.Site(), len(d.mesh.PeerNames()), cfg.announceIvl)
	}
	if d.admin != nil {
		if err := d.admin.Start(); err != nil {
			d.srv.Close()
			return err
		}
		defer d.admin.Close()
		fmt.Printf("admin endpoint on http://%v (/metrics /healthz /health /routes /mesh /reload /querylog /debug/pprof)\n", d.admin.LocalAddr())
	}
	fmt.Printf("dnsd listening on %v (UDP+TCP); Ctrl-C to stop, SIGHUP to reload\n", d.srv.LocalAddr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	for s := range sig {
		if s != syscall.SIGHUP {
			break
		}
		// Online reload: re-parse the zone/routes files and swap the
		// serving snapshots; queries keep flowing throughout.
		if d.reloader == nil {
			fmt.Println("SIGHUP: nothing reloadable (no -zone/-routes files)")
			continue
		}
		if err := d.reloader.reload(); err != nil {
			fmt.Printf("SIGHUP reload failed: %v\n", err)
		} else {
			fmt.Println("SIGHUP: configuration reloaded")
		}
	}

	// Graceful drain: stop accepting, give in-flight queries a bounded
	// window to finish, then report what the process saw.
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	fmt.Printf("\ndraining (up to %v)...\n", cfg.drain)
	if err := d.shutdown(drainCtx); err != nil {
		fmt.Printf("drain cut short: %v\n", err)
	}
	metrics, cache := d.metrics, d.cache
	fmt.Printf("served %d queries\n", metrics.Total())
	cs := cache.Stats()
	fmt.Printf("cache: %d entries over %d shards, %d hits / %d misses, %d coalesced, %d evictions\n",
		cs.Entries, cs.Shards, cs.Hits, cs.Misses, cs.Coalesced, cs.Evictions)
	if lat := metrics.Latency(); lat.Len() > 0 {
		fmt.Printf("serve latency: p50 %v  p99 %v  max %v (n=%d)\n",
			lat.Percentile(50).Round(time.Microsecond),
			lat.Percentile(99).Round(time.Microsecond),
			lat.Max().Round(time.Microsecond), lat.Len())
	}
	return nil
}

// shutdown drains the server, then closes the upstream sockets the
// drained queries left idle.
func (d *daemon) shutdown(ctx context.Context) error {
	err := d.srv.Shutdown(ctx)
	d.upstream.Close()
	return err
}

// build assembles the server from the flag values without starting it.
func build(cfg serverConfig) (*daemon, error) {
	metrics := meccdn.NewDNSMetrics()
	cache := meccdn.NewDNSCache(meccdn.RealClock())
	cache.MaxEntries = cfg.cacheSize
	cache.Shards = cfg.cacheShards
	cache.PrefetchFrac = cfg.prefetch
	cache.MaxStale = cfg.maxStale
	plugins := []meccdn.DNSPlugin{metrics, cache}

	upstream := &meccdn.NetTransport{}
	client := &meccdn.Client{Transport: upstream, Timeout: 3 * time.Second, Retries: 1}

	// Every forward and stub upstream is a candidate probe target for
	// the health registry (deduplicated by address).
	var probeTargets []netip.AddrPort
	seenTarget := make(map[netip.AddrPort]bool)
	addTargets := func(addrs []netip.AddrPort) {
		for _, a := range addrs {
			if !seenTarget[a] {
				seenTarget[a] = true
				probeTargets = append(probeTargets, a)
			}
		}
	}

	var stub *meccdn.Stub
	if len(cfg.stubs) > 0 {
		stub = meccdn.NewStub(client)
		stub.FailureThreshold = cfg.maxFailures
		stub.Cooldown = cfg.cooldown
		stub.HedgeDelay = cfg.hedge
		for _, s := range cfg.stubs {
			domain, upstream, ok := strings.Cut(s, "=")
			if !ok {
				return nil, fmt.Errorf("bad -stub %q, want domain=host:port", s)
			}
			addrs, err := parseUpstreams(upstream)
			if err != nil {
				return nil, fmt.Errorf("bad stub upstream %q: %w", upstream, err)
			}
			stub.Route(domain, addrs...)
			addTargets(addrs)
			fmt.Printf("stub-domain %s -> %v\n", meccdn.CanonicalName(domain), addrs)
		}
		plugins = append(plugins, stub)
	}

	var zoneSources []zoneSource
	if len(cfg.zones) > 0 {
		zp := meccdn.NewZonePlugin()
		for _, z := range cfg.zones {
			origin, path, ok := strings.Cut(z, "=")
			if !ok {
				return nil, fmt.Errorf("bad -zone %q, want origin=path", z)
			}
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			zone, err := meccdn.ParseZone(origin, f)
			f.Close()
			if err != nil {
				return nil, err
			}
			zp.AddZone(zone)
			zoneSources = append(zoneSources, zoneSource{zone: zone, path: path})
			fmt.Printf("authoritative for %s (%d names)\n", zone.Origin, len(zone.Names()))
		}
		plugins = append(plugins, zp)
	}

	var router *meccdn.Router
	if cfg.cdnDomain != "" {
		router = meccdn.NewRouter(cfg.cdnDomain)
		if cfg.ringBounded && cfg.ringFactor <= 1 {
			return nil, fmt.Errorf("-ring-load-factor must be > 1, got %v", cfg.ringFactor)
		}
		router.Ring.Bounded = cfg.ringBounded
		router.Ring.LoadFactor = cfg.ringFactor
		if cfg.ringBounded {
			fmt.Printf("bounded-load routing for %s: cap %.2fx mean\n",
				meccdn.CanonicalName(cfg.cdnDomain), cfg.ringFactor)
		}
		for _, p := range cfg.pops {
			idStr, addrStr, ok := strings.Cut(p, "=")
			if !ok {
				return nil, fmt.Errorf("bad -pop %q, want id=addr", p)
			}
			id, err := strconv.ParseUint(idStr, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("bad -pop id %q: %w", idStr, err)
			}
			addr, err := netip.ParseAddr(addrStr)
			if err != nil {
				return nil, fmt.Errorf("bad -pop address %q: %w", addrStr, err)
			}
			router.MapPoP(meccdn.PoP(id), addr)
		}
		if cfg.routes != "" {
			f, err := os.Open(cfg.routes)
			if err != nil {
				return nil, err
			}
			table, err := meccdn.ParseRoutes(f)
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("parsing -routes %s: %w", cfg.routes, err)
			}
			router.SetRoutes(table)
			fmt.Printf("subnet routing for %s: %d routes (%d v4, %d v6), %d PoPs mapped\n",
				meccdn.CanonicalName(cfg.cdnDomain), table.Rows(), table.RowsV4(), table.RowsV6(), len(cfg.pops))
		}
		plugins = append(plugins, router)
	} else if cfg.routes != "" || len(cfg.pops) > 0 {
		return nil, fmt.Errorf("-routes and -pop require -cdn-domain")
	} else if cfg.ringBounded {
		return nil, fmt.Errorf("-ring-bounded requires -cdn-domain")
	} else if cfg.meshAddr != "" {
		return nil, fmt.Errorf("-mesh requires -cdn-domain")
	}
	if cfg.meshAddr == "" && len(cfg.peers) > 0 {
		return nil, fmt.Errorf("-peers requires -mesh")
	}

	var fwd *meccdn.Forward
	if cfg.forward != "" {
		addrs, err := parseUpstreams(cfg.forward)
		if err != nil {
			return nil, fmt.Errorf("bad -forward %q: %w", cfg.forward, err)
		}
		fwd = &meccdn.Forward{
			Upstreams:        addrs,
			Client:           client,
			FailureThreshold: cfg.maxFailures,
			Cooldown:         cfg.cooldown,
			HedgeDelay:       cfg.hedge,
		}
		plugins = append(plugins, fwd)
		addTargets(addrs)
		fmt.Printf("forwarding unmatched names to %v\n", addrs)
	}

	var reg *meccdn.HealthRegistry
	if cfg.probeIvl > 0 && len(probeTargets) > 0 {
		reg = meccdn.NewHealthRegistry(meccdn.HealthConfig{
			ProbeInterval: cfg.probeIvl,
			ProbeTimeout:  cfg.probeTmo,
			DownAfter:     cfg.downAfter,
			UpAfter:       cfg.upAfter,
			LoadHigh:      cfg.loadHigh,
			LoadLow:       cfg.loadLow,
		})
		for _, a := range probeTargets {
			reg.Add(a.String(), a.String())
		}
		if fwd != nil {
			fwd.Health = reg
		}
		if stub != nil {
			stub.Health = reg
		}
	}

	hub := meccdn.NewTelemetry(meccdn.RealClock())
	hub.SampleEvery = cfg.qlogSample
	hub.Log = meccdn.NewQueryLog(cfg.qlogCap)
	if err := hub.Registry.Register(metrics.Collectors()...); err != nil {
		return nil, err
	}
	if err := hub.Registry.Register(cache.Collectors()...); err != nil {
		return nil, err
	}
	if err := hub.Registry.Register(upstream.Collectors()...); err != nil {
		return nil, err
	}
	// Only the main forwarder registers: stub routes build their own
	// Forward instances whose families would collide by name.
	if fwd != nil {
		if err := hub.Registry.Register(fwd.Collectors()...); err != nil {
			return nil, err
		}
	}
	if reg != nil {
		if err := hub.Registry.Register(reg.Collectors()...); err != nil {
			return nil, err
		}
	}
	if router != nil {
		if err := hub.Registry.Register(router.Collectors()...); err != nil {
			return nil, err
		}
	}

	nsockets := cfg.sockets
	if nsockets <= 0 {
		nsockets = runtime.GOMAXPROCS(0)
	}
	srv := &meccdn.DNSServer{
		Addr:       cfg.listen,
		Handler:    meccdn.Chain(plugins...),
		Telemetry:  hub,
		Workers:    cfg.workers,
		QueueDepth: cfg.udpQueue,
		Sockets:    nsockets,
		Batch:      cfg.batch,
		MaxConns:   cfg.maxConns,
	}
	// Refresh-ahead prefetches drain with the server's in-flight work.
	cache.Background = srv
	if err := hub.Registry.Register(srv.Collectors()...); err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, upstream: upstream, metrics: metrics, cache: cache, hub: hub, health: reg, router: router}
	if cfg.meshAddr != "" && router != nil {
		var meshPeers []meccdn.MeshPeer
		for _, p := range cfg.peers {
			name, addr, ok := strings.Cut(p, "=")
			if !ok {
				return nil, fmt.Errorf("bad -peers %q, want name=host:port", p)
			}
			if _, err := netip.ParseAddrPort(addr); err != nil {
				return nil, fmt.Errorf("bad -peers address %q: %w", addr, err)
			}
			meshPeers = append(meshPeers, meccdn.MeshPeer{Name: name, Addr: addr})
		}
		// Peer liveness gets a registry of its own: the main registry's
		// DNSProber speaks NS queries, which mesh UDP endpoints do not,
		// and its meccdn_health_* families are already registered above.
		// Liveness is fed by the announce exchanges themselves, so this
		// registry needs no checker and exports nothing.
		meshHealth := meccdn.NewHealthRegistry(meccdn.HealthConfig{
			DownAfter: cfg.downAfter,
			UpAfter:   cfg.upAfter,
		})
		site := cfg.meshName
		if site == "" {
			site, _ = os.Hostname()
		}
		if site == "" {
			site = "dnsd"
		}
		// Peers refer steered clients to this server's own DNS address.
		answer := cfg.listen
		if ap, err := netip.ParseAddrPort(cfg.listen); err == nil {
			answer = ap.Addr().String()
		}
		d.mesh = meccdn.NewMeshAgent(meccdn.MeshConfig{
			Site:             site,
			AnswerAddr:       answer,
			Peers:            meshPeers,
			AnnounceInterval: cfg.announceIvl,
			Health:           meshHealth,
			Transport:        &meccdn.MeshUDPTransport{},
			Load:             srv.IngressLoad,
		})
		d.meshAddr = cfg.meshAddr
		router.UseMesh(d.mesh.View())
		if err := hub.Registry.Register(d.mesh.Collectors()...); err != nil {
			return nil, err
		}
	}
	if len(zoneSources) > 0 || cfg.routes != "" {
		d.reloader = newReloader(zoneSources, cfg.routes, router, cache)
		if err := hub.Registry.Register(d.reloader.collectors()...); err != nil {
			return nil, err
		}
	}
	if reg != nil {
		// Probe goroutines drain with the server; ingress load is the
		// UDP queue's fill fraction.
		d.checker = &meccdn.HealthChecker{
			Registry:   reg,
			Prober:     &meccdn.DNSProber{Client: client},
			Background: srv,
			Load:       srv.IngressLoad,
		}
		if router != nil {
			// Halve the ring's per-cache load counters each probe
			// sweep so the bounded-load cap tracks a recent-traffic
			// window at the same cadence the health view refreshes.
			d.checker.OnSweep = func() { router.Ring.DecayLoads(0.5) }
		}
	}
	if cfg.admin != "" {
		d.admin = &meccdn.TelemetryAdmin{
			Addr:     cfg.admin,
			Registry: hub.Registry,
			Log:      hub.Log,
			Healthy:  func() bool { return !srv.Draining() },
		}
		if reg != nil {
			d.admin.Health = func() any { return reg.Snapshot() }
		}
		if router != nil {
			d.admin.Routes = func() any {
				t := router.Routes()
				if t == nil {
					return map[string]any{"rows": 0}
				}
				return map[string]any{
					"rows":    t.Rows(),
					"rows_v4": t.RowsV4(),
					"rows_v6": t.RowsV6(),
					"spans":   t.Spans(),
				}
			}
		}
		if d.mesh != nil {
			d.admin.Mesh = func() any { return d.mesh.Snapshot() }
		}
		if d.reloader != nil {
			d.admin.Reload = d.reloader.reload
		}
	}
	return d, nil
}

// parseUpstreams parses a comma-separated list of host:port addresses.
func parseUpstreams(s string) ([]netip.AddrPort, error) {
	var addrs []netip.AddrPort
	for _, part := range strings.Split(s, ",") {
		addr, err := netip.ParseAddrPort(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		addrs = append(addrs, addr)
	}
	return addrs, nil
}
