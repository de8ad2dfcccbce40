package dnsd

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/meccdn/meccdn/internal/cdn"
	"github.com/meccdn/meccdn/internal/dnsclient"
	"github.com/meccdn/meccdn/internal/dnsserver"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/health"
	"github.com/meccdn/meccdn/internal/lpm"
	"github.com/meccdn/meccdn/internal/mesh"
	"github.com/meccdn/meccdn/internal/telemetry"
	"github.com/meccdn/meccdn/internal/vclock"
)

// The tuning every dnsd shares. The rest of it (cache size, upstream
// cooldown, UDP queue, TCP cap, query-log ring, probe hysteresis, mesh
// cadence) is each component's own default, which Build leaves unset.
const (
	// prefetchFrac is the refresh-ahead window, a fraction of the TTL.
	prefetchFrac = 0.1
	// maxStale is the RFC 8767 serve-stale window.
	maxStale = time.Hour
	// DrainBudget is how long in-flight queries get to finish when the
	// daemon stops: cmd/dnsd's shutdown, and a failed Start unwinding.
	DrainBudget = 5 * time.Second
)

// Daemon is an assembled dnsd. Build returns it not yet started; the
// exported fields are the parts a caller may inspect or drive, nil
// where the Config left the part out.
type Daemon struct {
	Server   *dnsserver.Server
	Plugins  []dnsserver.Plugin // the L-DNS chain Server serves, in serving order
	Metrics  *dnsserver.Metrics
	Cache    *dnsserver.Cache
	Forward  *dnsserver.Forward // nil without -forward
	Router   *cdn.Router        // nil without -cdn-domain
	Hub      *telemetry.Hub
	Upstream *dnsclient.NetTransport // every upstream exchange's sockets
	Health   *health.Registry        // nil unless probing is on and there are upstreams
	Mesh     *mesh.Agent             // nil without -mesh
	Admin    *telemetry.Admin        // nil without -admin

	cfg      Config
	checker  *health.Checker // the probe loop feeding Health
	meshConn net.PacketConn  // bound by Start
	meshDone chan struct{}   // closed when the mesh receive loop exits

	// Reload state (reload.go).
	reloadMu   sync.Mutex        // one reload at a time (SIGHUP vs /reload)
	zones      []*dnsserver.Zone // parallel to cfg.Zones, whose files Reload re-reads
	reloads    *telemetry.Family // by reloadOK, reloadError
	zoneSwaps  *telemetry.Counter
	routeSwaps *telemetry.Counter
}

// Build assembles the daemon cfg describes; nothing is listening and
// no goroutine runs when it returns. Each optional part has one block
// that makes it, links it into the chain, exports its metric families
// and wires its admin view (an unwired view answers 404). The chain's
// order is dnsserver.LDNS's to decide.
func Build(cfg Config) (*Daemon, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var forwardTo []netip.AddrPort
	if cfg.Forward != "" {
		var err error
		if forwardTo, err = parseUpstreams(cfg.Forward); err != nil {
			return nil, fmt.Errorf("bad -forward %q: %w", cfg.Forward, err)
		}
	}

	d := &Daemon{cfg: cfg, Upstream: &dnsclient.NetTransport{}, Hub: telemetry.NewHub(vclock.NewReal())}
	d.Hub.SampleEvery = cfg.QlogSample
	client := &dnsclient.Client{Transport: d.Upstream, Timeout: 3 * time.Second, Retries: 1}
	admin := &telemetry.Admin{
		Addr:     cfg.Admin,
		Registry: d.Hub.Registry,
		Log:      d.Hub.Log,
		Healthy:  func() bool { return !d.Server.Draining() },
	}

	chain := dnsserver.LDNS{Metrics: dnsserver.NewMetrics(), Cache: dnsserver.NewCache(vclock.NewReal())}
	chain.Cache.PrefetchFrac = prefetchFrac
	chain.Cache.MaxStale = maxStale
	families := append(chain.Metrics.Collectors(), chain.Cache.Collectors()...)
	families = append(families, d.Upstream.Collectors()...)

	// The health registry comes before the stub: a route's forwarder
	// takes the registry the Stub holds when the route is made.
	if d.Health = newHealth(cfg, forwardTo); d.Health != nil {
		families = append(families, d.Health.Collectors()...)
		admin.Health = func() any { return d.Health.Snapshot() }
	}
	if len(cfg.Stubs) > 0 {
		// Stub routes own private Forwards whose families would collide
		// with the main forwarder's by name; they are not exported.
		chain.Stub = dnsserver.NewStub(client)
		chain.Stub.HedgeDelay = cfg.Hedge
		chain.Stub.Health = d.Health
		for _, s := range cfg.Stubs {
			chain.Stub.Route(s.Domain, s.Upstreams...)
		}
	}
	if len(cfg.Zones) > 0 {
		chain.Zones = dnsserver.NewZonePlugin()
		for _, zf := range cfg.Zones {
			zone, err := parseZone(zf.Origin, zf.Path)
			if err != nil {
				return nil, err
			}
			chain.Zones.AddZone(zone)
			d.zones = append(d.zones, zone)
		}
	}
	if cfg.CDNDomain != "" {
		d.Router = cdn.NewRouter(cfg.CDNDomain)
		for _, p := range cfg.PoPs {
			d.Router.MapPoP(p.ID, p.Addr)
		}
		if cfg.Routes != "" {
			table, err := parseFile(cfg.Routes, lpm.ParseRoutes)
			if err != nil {
				return nil, err
			}
			d.Router.SetRoutes(table)
		}
		chain.Router = d.Router
		families = append(families, d.Router.Collectors()...)
		admin.Routes = d.routesSummary
	}
	if forwardTo != nil {
		chain.Forward = &dnsserver.Forward{
			Upstreams:  forwardTo,
			Client:     client,
			HedgeDelay: cfg.Hedge,
			Health:     d.Health,
		}
		families = append(families, chain.Forward.Collectors()...)
	}
	d.Plugins = chain.Plugins()
	d.Metrics, d.Cache, d.Forward = chain.Metrics, chain.Cache, chain.Forward

	d.Server = &dnsserver.Server{
		Addr:      cfg.Listen,
		Handler:   dnsserver.Chain(d.Plugins...),
		Telemetry: d.Hub,
		Sockets:   runtime.GOMAXPROCS(0), // one ingress socket per core
	}
	families = append(families, d.Server.Collectors()...)
	// Refresh-ahead prefetches drain with the server's in-flight work.
	d.Cache.Background = d.Server

	if d.Health != nil {
		// Probe goroutines drain with the server.
		d.checker = &health.Checker{
			Registry:   d.Health,
			Prober:     &health.DNSProber{Client: client},
			Background: d.Server,
		}
	}
	if cfg.Mesh != "" {
		d.Mesh = newMesh(cfg, d.Server.IngressLoad)
		d.Router.UseMesh(d.Mesh.View())
		families = append(families, d.Mesh.Collectors()...)
		admin.Mesh = func() any { return d.Mesh.Snapshot() }
	}
	if d.reloadable() {
		d.reloads = telemetry.NewCounters("meccdn_reload_total",
			"Online reloads (SIGHUP or admin /reload) by result.", "result", "ok", "error")
		d.zoneSwaps = telemetry.NewCounter("meccdn_reload_zone_swaps_total",
			"Zone snapshots republished by online reloads.")
		d.routeSwaps = telemetry.NewCounter("meccdn_reload_route_swaps_total",
			"Subnet→PoP route tables republished by online reloads.")
		families = append(families, d.reloads, d.zoneSwaps, d.routeSwaps)
		admin.Reload = d.Reload
	}
	if err := d.Hub.Registry.Register(families...); err != nil {
		return nil, err
	}
	if cfg.Admin != "" {
		d.Admin = admin
	}
	return d, nil
}

// newHealth builds the probe registry over the union of stub and
// forward upstreams; nil when probing is off or there is nothing to
// probe.
func newHealth(cfg Config, forwardTo []netip.AddrPort) *health.Registry {
	if cfg.ProbeInterval <= 0 || len(cfg.Stubs)+len(forwardTo) == 0 {
		return nil
	}
	reg := health.New(health.Config{ProbeInterval: cfg.ProbeInterval})
	add := func(addrs []netip.AddrPort) {
		for _, a := range addrs {
			reg.Add(a.String(), a.String()) // a repeated address is one target
		}
	}
	for _, s := range cfg.Stubs {
		add(s.Upstreams)
	}
	add(forwardTo)
	return reg
}

// newMesh builds the mesh agent. Peer liveness gets a registry of its
// own: the main registry's DNSProber speaks NS queries, which mesh UDP
// endpoints do not, and its meccdn_health_* families are taken.
// Liveness is fed by the announce exchanges themselves, so this
// registry needs no checker and exports nothing.
func newMesh(cfg Config, load func() float64) *mesh.Agent {
	site := cfg.MeshName
	if site == "" {
		site, _ = os.Hostname() // no hostname: the fixed name below
	}
	if site == "" {
		site = "dnsd"
	}
	// Peers refer steered clients to this server's own DNS address.
	answer := cfg.Listen
	if ap, err := netip.ParseAddrPort(cfg.Listen); err == nil {
		answer = ap.Addr().String()
	}
	return mesh.NewAgent(mesh.Config{
		Site:       site,
		AnswerAddr: answer,
		Peers:      cfg.Peers,
		Health:     health.New(health.Config{}),
		Transport:  &mesh.UDPTransport{},
		Load:       load,
	})
}

// routesSummary is the admin /routes view.
func (d *Daemon) routesSummary() any {
	t := d.Router.Routes()
	if t == nil {
		return map[string]any{"rows": 0}
	}
	return map[string]any{"rows": t.Rows(), "rows_v4": t.RowsV4(), "rows_v6": t.RowsV6(), "spans": t.Spans()}
}

// Start brings the daemon up in dependency order: DNS sockets, health
// prober, mesh listener and announce loop, admin endpoint. A step that
// fails takes the started ones down again through Shutdown — drain
// included, budget DrainBudget — and Start returns that step's error.
func (d *Daemon) Start() (err error) {
	if err := d.Server.Start(); err != nil {
		return err
	}
	defer func() {
		if err != nil {
			ctx, cancel := context.WithTimeout(context.Background(), DrainBudget)
			defer cancel()
			_ = d.Shutdown(ctx) // the failed step's error is the one to report
		}
	}()
	if d.checker != nil {
		d.checker.Start()
	}
	if d.Mesh != nil {
		conn, err := net.ListenPacket("udp", d.cfg.Mesh)
		if err != nil {
			return err
		}
		d.meshConn, d.meshDone = conn, make(chan struct{})
		go func() {
			defer close(d.meshDone)
			_ = d.Mesh.ServeUDP(conn) // returns when Shutdown closes conn
		}()
		d.Mesh.Start()
	}
	if d.Admin != nil {
		return d.Admin.Start()
	}
	return nil
}

// Shutdown drains the server — bounded by ctx, the admin endpoint
// still answering (/healthz says draining) — then stops the admin
// endpoint, the mesh and the prober, and last closes the upstream
// sockets the drained queries left idle. It returns ctx.Err() when the
// deadline cut the drain short. Safe on a daemon that never started or
// only partly did.
func (d *Daemon) Shutdown(ctx context.Context) error {
	err := d.Server.Shutdown(ctx)
	if d.Admin != nil {
		d.Admin.Close()
	}
	if d.meshConn != nil {
		d.Mesh.Stop()
		d.meshConn.Close()
		<-d.meshDone
	}
	if d.checker != nil {
		d.checker.Stop()
	}
	d.Upstream.Close()
	return err
}

// Describe returns one console line per configured part beyond the
// bare server; the mesh and admin lines carry bound addresses and
// appear once Start has bound them.
func (d *Daemon) Describe() []string {
	var out []string
	say := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	for _, s := range d.cfg.Stubs {
		say("stub-domain %s -> %v", dnswire.CanonicalName(s.Domain), s.Upstreams)
	}
	for _, zone := range d.zones {
		say("authoritative for %s (%d names)", zone.Origin, len(zone.Names()))
	}
	if d.Router != nil {
		if t := d.Router.Routes(); t != nil {
			say("subnet routing for %s: %d routes (%d v4, %d v6), %d PoPs mapped",
				dnswire.CanonicalName(d.cfg.CDNDomain), t.Rows(), t.RowsV4(), t.RowsV6(), len(d.cfg.PoPs))
		}
	}
	if d.Forward != nil {
		say("forwarding unmatched names to %v", d.Forward.Upstreams)
	}
	if d.Health != nil {
		hc := d.Health.Config()
		say("health probing %d upstreams every %v (down after %d failures, up after %d successes)",
			len(d.Health.Targets()), hc.ProbeInterval, hc.DownAfter, hc.UpAfter)
	}
	if d.meshConn != nil {
		say("mesh gossip on %v as %q, announcing to %d peer(s) every %v",
			d.meshConn.LocalAddr(), d.Mesh.Site(), len(d.Mesh.PeerNames()), mesh.AnnounceInterval)
	}
	if d.Admin != nil && d.Admin.LocalAddr() != nil {
		say("admin endpoint on http://%v (/metrics /healthz /health /routes /mesh /reload /querylog /debug/pprof)", d.Admin.LocalAddr())
	}
	return out
}
