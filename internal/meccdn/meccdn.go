// Package meccdn assembles the paper's MEC-CDN design: a CDN whose
// DNS resolution is fully contained at the mobile edge.
//
// DeploySite stands up, on an lte.Testbed, everything Figure 4 shows:
//
//   - a Kubernetes-style orchestrator (internal/orchestrator) whose
//     service registry feeds a split-namespace DNS;
//   - the MEC L-DNS (CoreDNS role): one plugin chain serving the
//     internal VNF namespace to cluster clients and the public
//     MEC-CDN namespace to UEs, with a stub-domain route handing the
//     CDN domain to the collocated C-DNS (P1: find a cache quickly);
//   - the C-DNS (ATC Traffic Router role): scoped to the edge site's
//     cache instances, selecting one that has the content (P2: find
//     the right cache);
//   - edge cache servers behind stable cluster IPs, so mobile clients
//     only ever see Kubernetes cluster IPs (public-IP reuse);
//   - ingress-load shedding that switches to the provider L-DNS above
//     a threshold (DoS mitigation);
//   - an optional client-side multicast/fallback policy for non-MEC
//     names (best-effort resolution).
package meccdn

import (
	"context"
	"fmt"
	"net/netip"
	"time"

	"github.com/meccdn/meccdn/internal/cdn"
	"github.com/meccdn/meccdn/internal/dnsclient"
	"github.com/meccdn/meccdn/internal/dnsserver"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/geoip"
	"github.com/meccdn/meccdn/internal/health"
	"github.com/meccdn/meccdn/internal/lte"
	"github.com/meccdn/meccdn/internal/mesh"
	"github.com/meccdn/meccdn/internal/orchestrator"
	"github.com/meccdn/meccdn/internal/simnet"
)

// MeshOptions parameterizes the site's federated-mesh agent.
type MeshOptions struct {
	// AnnounceInterval is the gossip cadence; zero means 2s. In
	// virtual-time experiments drive rounds with Site.AnnounceOnce
	// instead of the wall-clock loop.
	AnnounceInterval time.Duration
	// DigestBits / DigestHashes size the content digest; zero means
	// the mesh defaults (8192 bits / 4 hashes).
	DigestBits   int
	DigestHashes int
	// LoadFactor is the bounded-load factor over peer steering; ≤1
	// means 1.25.
	LoadFactor float64
	// StaleAfter drops peers whose last announce is older; zero means
	// 3× the announce interval.
	StaleAfter time.Duration
}

// SiteConfig parameterizes DeploySite.
type SiteConfig struct {
	// Domain is the CDN domain deployed at this MEC site, e.g.
	// "mycdn.ciab.test.". Required.
	Domain string
	// PublicDomain is the MEC public namespace for non-CDN MEC apps;
	// "" means "mec.example.".
	PublicDomain string
	// CacheServers is the number of edge cache instances; 0 means 2.
	CacheServers int
	// CacheCapacity is each instance's byte budget; 0 means 64 MiB.
	CacheCapacity int64
	// OriginAddr, when valid, is where cache misses are filled from.
	OriginAddr netip.Addr
	// Policy selects cache servers at the C-DNS; nil means
	// availability-first.
	Policy cdn.SelectionPolicy
	// Geo, when non-nil, localizes clients for geo policies.
	Geo *geoip.DB
	// ProviderLDNS is the mobile network's own L-DNS; used as the
	// load-shed fallback and for non-MEC names.
	ProviderLDNS netip.AddrPort
	// MaxIngressQPS bounds MEC DNS ingress before shedding to the
	// provider L-DNS; 0 disables shedding.
	MaxIngressQPS int
	// EnableECS attaches EDNS Client Subnet at the L-DNS when
	// forwarding to the C-DNS (the paper's §4 ECS experiment).
	EnableECS bool
	// ECSProcessing is the extra per-query processing cost ECS adds
	// at each DNS hop; zero means 60µs.
	ECSProcessing time.Duration
	// LDNSProcessing is CoreDNS's per-query processing time; nil
	// means ~300µs.
	LDNSProcessing simnet.Sampler
	// CDNSProcessing is the Traffic Router's per-query processing
	// time; nil means ~700µs (ATC does content-aware selection).
	CDNSProcessing simnet.Sampler
	// NamePrefix distinguishes multiple sites on one testbed.
	NamePrefix string
	// Health, when non-nil, attaches a health registry to the site's
	// C-DNS: cache instances are admitted into the hash ring only
	// after their first successful probe, and probe failures demote
	// them out of routing. The config's Clock defaults to the
	// testbed's virtual clock. Nil keeps the legacy instantly-routable
	// behavior.
	Health *health.Config
	// Mesh, when non-nil, deploys a federated-mesh agent at the site:
	// it gossips the cache fleet's content digest to peer sites (wire
	// them with PeerWith or ConnectMesh) and the C-DNS steers local
	// misses to eligible peers before the parent tier.
	Mesh *MeshOptions
}

// Site is a deployed MEC-CDN edge site.
type Site struct {
	// Orch is the site's cluster control plane.
	Orch *orchestrator.Orchestrator
	// LDNS is the MEC DNS address UEs are switched to on attach:
	// the cluster IP of the CoreDNS service.
	LDNS netip.AddrPort
	// CDNS is the cluster IP of the collocated CDN router.
	CDNS netip.AddrPort
	// Router is the C-DNS selection engine.
	Router *cdn.Router
	// Caches are the edge cache instances.
	Caches []*cdn.CacheServer
	// CacheServices front each cache instance with a cluster IP.
	CacheServices []*orchestrator.Service
	// MsgCache is the L-DNS response cache.
	MsgCache *dnsserver.Cache
	// Metrics counts queries at the MEC L-DNS public view.
	Metrics *dnsserver.Metrics
	// Shed is the ingress load shedder (nil when disabled).
	Shed *dnsserver.LoadShed
	// PublicZone holds non-CDN public MEC names.
	PublicZone *dnsserver.Zone
	// Health is the site's cache health registry (nil unless
	// SiteConfig.Health was set).
	Health *health.Registry
	// Mesh is the site's federated-mesh agent (nil unless
	// SiteConfig.Mesh was set).
	Mesh *mesh.Agent

	cfg       SiteConfig
	tb        *lte.Testbed
	nextCache int
	checker   *health.Checker
	meshNode  *simnet.Node

	stub     *dnsserver.Stub
	tenants  map[string]*DomainDeployment
	nextTent int
}

// DomainDeployment is one CDN customer domain hosted at the site: its
// own C-DNS scope and cache instances, sharing the MEC L-DNS (and so
// the site's single public ingress IP) with every other tenant.
type DomainDeployment struct {
	Domain        string
	Router        *cdn.Router
	Caches        []*cdn.CacheServer
	CacheServices []*orchestrator.Service
	// CDNS is the tenant router's stable cluster IP.
	CDNS netip.AddrPort

	cdnsService *orchestrator.Service
}

// DeploySite builds a complete MEC-CDN edge site on tb.
func DeploySite(tb *lte.Testbed, cfg SiteConfig) (*Site, error) {
	if cfg.Domain == "" {
		return nil, fmt.Errorf("meccdn: SiteConfig.Domain is required")
	}
	cfg.Domain = dnswire.CanonicalName(cfg.Domain)
	if cfg.PublicDomain == "" {
		cfg.PublicDomain = "mec.example."
	}
	cfg.PublicDomain = dnswire.CanonicalName(cfg.PublicDomain)
	if cfg.CacheServers <= 0 {
		cfg.CacheServers = 2
	}
	if cfg.CacheCapacity <= 0 {
		cfg.CacheCapacity = 64 << 20
	}
	if cfg.LDNSProcessing == nil {
		cfg.LDNSProcessing = simnet.Shifted{Base: 250 * time.Microsecond, Jitter: simnet.Uniform{Max: 100 * time.Microsecond}}
	}
	if cfg.CDNSProcessing == nil {
		cfg.CDNSProcessing = simnet.Shifted{Base: 600 * time.Microsecond, Jitter: simnet.Uniform{Max: 200 * time.Microsecond}}
	}
	if cfg.ECSProcessing == 0 {
		cfg.ECSProcessing = 60 * time.Microsecond
	}

	prefix := cfg.NamePrefix
	net := tb.Net
	orch, err := orchestrator.New(orchestrator.Config{
		Net:        net,
		FabricNode: lte.NodePGW,
		PodDelay:   tb.Cfg.MECDelay,
	})
	if err != nil {
		return nil, err
	}
	site := &Site{Orch: orch, cfg: cfg, tb: tb}

	// Public namespace zone, fed by the orchestrator.
	site.PublicZone = dnsserver.NewZone(cfg.PublicDomain)
	orch.SetPublicZone(site.PublicZone)

	// Edge cache instances, each on its own MEC node, each fronted by
	// a Service so DNS answers carry cluster IPs only.
	site.Router = cdn.NewRouter(cfg.Domain)
	site.Router.Policy = cfg.Policy
	site.Router.Geo = cfg.Geo
	if cfg.Health != nil {
		hc := *cfg.Health
		if hc.Clock == nil {
			hc.Clock = net.Clock
		}
		site.Health = health.New(hc)
		// Attached before any AddCache so new instances enter the ring
		// through the probing → healthy admission path.
		site.Router.UseHealth(site.Health)
	}
	for i := 0; i < cfg.CacheServers; i++ {
		if _, err := site.AddCache(); err != nil {
			return nil, err
		}
	}

	// C-DNS: the Traffic Router, collocated at MEC, scoped to this
	// site's caches, fronted by a fixed cluster IP.
	cdnsNode := tb.AddMEC(prefix + "mec-cdns")
	cdnsProc := cfg.CDNSProcessing
	if cfg.EnableECS {
		cdnsProc = simnet.Shifted{Base: cfg.ECSProcessing, Jitter: cdnsProc}
	}
	dnsserver.Attach(cdnsNode, dnsserver.Chain(site.Router), cdnsProc)
	if site.Health != nil {
		// The Traffic Router doubles as the probe vantage: it PINGs its
		// own cache fleet, the same path ATC's health protocol takes.
		site.checker = &health.Checker{
			Registry: site.Health,
			Prober:   &cdn.CacheProber{Endpoint: cdnsNode.Endpoint(), Timeout: site.Health.Config().ProbeTimeout},
		}
	}
	cdnsSvc, err := orch.CreateService(orchestrator.ServiceSpec{
		Name:      prefix + "cdn-traffic-router",
		Namespace: "cdn",
		Endpoints: []netip.Addr{cdnsNode.Addr},
	})
	if err != nil {
		return nil, fmt.Errorf("creating C-DNS service: %w", err)
	}
	site.CDNS = netip.AddrPortFrom(cdnsSvc.ClusterIP, 53)

	// Federated-mesh agent: its own MEC node on the shared datagram
	// plane, announcing the cache fleet's content digest and steering
	// the C-DNS miss path to peers. The announce answer address is the
	// site's C-DNS cluster IP, so a steered client lands on the peer
	// site's Traffic Router and gets that site's own cache selection.
	if cfg.Mesh != nil {
		site.meshNode = tb.AddMEC(prefix + "mec-mesh")
		site.Mesh = mesh.NewAgent(mesh.Config{
			Site:             prefix + "mec",
			AnswerAddr:       site.CDNS.Addr().String(),
			AnnounceInterval: cfg.Mesh.AnnounceInterval,
			DigestBits:       cfg.Mesh.DigestBits,
			DigestHashes:     cfg.Mesh.DigestHashes,
			LoadFactor:       cfg.Mesh.LoadFactor,
			StaleAfter:       cfg.Mesh.StaleAfter,
			Clock:            net.Clock,
			Health:           site.Health,
			Source: func(add func(string)) {
				for _, c := range site.Caches {
					c.Cache().Each(func(content cdn.Content) { add(content.Name) })
				}
			},
			Load: func() float64 {
				if site.Health != nil {
					return site.Health.Snapshot().Load
				}
				return 0
			},
		})
		site.Mesh.BindSimnet(site.meshNode)
		site.Router.UseMesh(site.Mesh.View())
	}

	// MEC L-DNS (CoreDNS): split namespaces, stub-domain to C-DNS.
	ldnsNode := tb.AddMEC(prefix + "mec-ldns")
	upClient := &dnsclient.Client{Transport: &dnsclient.SimTransport{Endpoint: ldnsNode.Endpoint()}}
	upClient.SetRand(net.Rand())

	site.stub = dnsserver.NewStub(upClient)
	site.stub.Clock = net.Clock
	site.stub.Route(cfg.Domain, site.CDNS)

	site.MsgCache = dnsserver.NewCache(net.Clock)
	site.Metrics = dnsserver.NewMetrics()
	site.Metrics.Clock = net.Clock

	// The public view's links; their serving order is LDNS.Plugins'.
	public := dnsserver.LDNS{
		Metrics: site.Metrics,
		Cache:   site.MsgCache,
		Stub:    site.stub,
		Zones:   dnsserver.NewZonePlugin(site.PublicZone),
	}
	providerForward := func() *dnsserver.Forward {
		return &dnsserver.Forward{
			Upstreams: []netip.AddrPort{cfg.ProviderLDNS},
			Client:    upClient,
			Clock:     net.Clock,
		}
	}
	if cfg.MaxIngressQPS > 0 {
		site.Shed = &dnsserver.LoadShed{
			Clock:      net.Clock,
			MaxQueries: cfg.MaxIngressQPS,
			Window:     time.Second,
		}
		if cfg.ProviderLDNS.IsValid() {
			site.Shed.Fallback = dnsserver.Chain(providerForward())
		}
		public.Shed = site.Shed
	}
	if cfg.EnableECS {
		public.ECS = &dnsserver.ECS{}
	}
	if cfg.ProviderLDNS.IsValid() {
		// Non-MEC names are forwarded upstream so the MEC DNS can be
		// the UE's only resolver (the server-side workaround of §3).
		public.Forward = providerForward()
	}

	clusterCIDR := netip.MustParsePrefix("10.96.0.0/16")
	split := &dnsserver.Split{
		IsInternal: func(a netip.Addr) bool { return clusterCIDR.Contains(a) },
		Internal:   dnsserver.Chain(dnsserver.NewZonePlugin(orch.InternalZone())),
		Public:     dnsserver.Chain(public.Plugins()...),
	}
	ldnsProc := cfg.LDNSProcessing
	if cfg.EnableECS {
		ldnsProc = simnet.Shifted{Base: cfg.ECSProcessing, Jitter: ldnsProc}
	}
	dnsserver.Attach(ldnsNode, dnsserver.Chain(split), ldnsProc)
	ldnsSvc, err := orch.CreateService(orchestrator.ServiceSpec{
		Name:      prefix + "coredns",
		Namespace: "kube-system",
		Endpoints: []netip.Addr{ldnsNode.Addr},
	})
	if err != nil {
		return nil, fmt.Errorf("creating CoreDNS service: %w", err)
	}
	site.LDNS = netip.AddrPortFrom(ldnsSvc.ClusterIP, 53)
	return site, nil
}

// ProbeOnce runs one synchronous health-probe sweep over the site's
// cache instances. Virtual-time experiments call it between events in
// place of the wall-clock Checker loop; a site deployed without
// SiteConfig.Health no-ops. A cache in the probing state joins the
// hash ring on its first successful sweep.
func (s *Site) ProbeOnce() {
	if s.checker == nil {
		return
	}
	s.checker.RunOnce(context.Background())
}

// MeshAddr returns the site's mesh endpoint address (zero when the
// site was deployed without a mesh).
func (s *Site) MeshAddr() netip.Addr {
	if s.meshNode == nil {
		return netip.Addr{}
	}
	return s.meshNode.Addr
}

// PeerWith configures this site to announce to other (one direction;
// call both ways — or ConnectMesh — for mutual steering). Both sites
// must have been deployed with SiteConfig.Mesh.
func (s *Site) PeerWith(other *Site) error {
	if s.Mesh == nil || other.Mesh == nil {
		return fmt.Errorf("meccdn: both sites need SiteConfig.Mesh to peer")
	}
	s.Mesh.AddPeer(mesh.Peer{Name: other.Mesh.Site(), Addr: other.MeshAddr().String()})
	return nil
}

// ConnectMesh peers every site with every other, both directions —
// the full-mesh federation the experiments use.
func ConnectMesh(sites ...*Site) error {
	for i, a := range sites {
		for _, b := range sites[i+1:] {
			if err := a.PeerWith(b); err != nil {
				return err
			}
			if err := b.PeerWith(a); err != nil {
				return err
			}
		}
	}
	return nil
}

// AnnounceOnce runs one synchronous mesh announce round, the
// virtual-time analogue of the agent's wall-clock loop (pair with
// ProbeOnce between experiment ticks). No-op without a mesh.
func (s *Site) AnnounceOnce() {
	if s.Mesh == nil {
		return
	}
	s.Mesh.AnnounceOnce()
}

// newCacheInstance builds one edge cache instance for domain — a new
// MEC node, the cache server on it, and a fronting Service with a fresh
// stable cluster IP — and registers it with router.
func (s *Site) newCacheInstance(router *cdn.Router, nodeName, svcName, domain string, parent netip.Addr) (*cdn.CacheServer, *orchestrator.Service, error) {
	node := s.tb.AddMEC(nodeName)
	server := cdn.NewCacheServer(node, cdn.CacheServerConfig{
		Name:          nodeName,
		Site:          s.cfg.NamePrefix + "mec",
		Tier:          cdn.TierEdge,
		CapacityBytes: s.cfg.CacheCapacity,
		Parent:        parent,
		Domains:       []string{domain},
		ServeDelay:    simnet.Shifted{Base: 200 * time.Microsecond, Jitter: simnet.Uniform{Max: 100 * time.Microsecond}},
	})
	svc, err := s.Orch.CreateService(orchestrator.ServiceSpec{
		Name:      svcName,
		Namespace: "cdn",
		Endpoints: []netip.Addr{node.Addr},
	})
	if err != nil {
		return nil, nil, fmt.Errorf("creating cache service %s: %w", svcName, err)
	}
	router.AddServerAdvertise(server, geoip.Location{Name: s.cfg.NamePrefix + "mec"}, svc.ClusterIP)
	return server, svc, nil
}

// AddCache scales the site up by one cache instance: a new MEC node,
// a fronting Service with a fresh stable cluster IP, and registration
// with the C-DNS. Routing via the consistent-hash ring means only
// ~1/N of the content mapping moves. With health enabled the instance
// starts in the probing state and is not routed to until its first
// successful probe (see ProbeOnce).
func (s *Site) AddCache() (*cdn.CacheServer, error) {
	i := s.nextCache
	s.nextCache++
	server, svc, err := s.newCacheInstance(s.Router,
		fmt.Sprintf("%smec-cache-%d", s.cfg.NamePrefix, i),
		fmt.Sprintf("%scache-%d", s.cfg.NamePrefix, i),
		s.cfg.Domain, s.cfg.OriginAddr)
	if err != nil {
		return nil, err
	}
	s.Caches = append(s.Caches, server)
	s.CacheServices = append(s.CacheServices, svc)
	return server, nil
}

// RemoveCache scales the site down by one instance (the most recently
// added): it is deregistered from the C-DNS (which also drops it from
// the health registry when one is attached), its Service deleted, and
// the server marked unhealthy so in-flight routing skips it.
func (s *Site) RemoveCache() error {
	if len(s.Caches) == 0 {
		return fmt.Errorf("meccdn: no cache instances to remove")
	}
	i := len(s.Caches) - 1
	server, svc := s.Caches[i], s.CacheServices[i]
	s.Caches, s.CacheServices = s.Caches[:i], s.CacheServices[:i]
	s.Router.RemoveServer(server.Name)
	server.SetHealthy(false)
	if err := s.Orch.DeleteService(svc.Namespace, svc.Name); err != nil {
		return fmt.Errorf("deleting cache service: %w", err)
	}
	return nil
}

// AddDomain deploys another CDN customer's domain at the site: a
// tenant-scoped C-DNS behind its own cluster IP, cache instances, and
// a stub-domain route at the shared MEC L-DNS. Every tenant shares
// the site's single public ingress — the §3/§5 IP-reuse property at
// work ("assigning the same public IP for CDN domains of the many CDN
// customers").
func (s *Site) AddDomain(domain string, originAddr netip.Addr, cacheServers int) (*DomainDeployment, error) {
	domain = dnswire.CanonicalName(domain)
	if s.tenants == nil {
		s.tenants = make(map[string]*DomainDeployment)
	}
	if domain == s.cfg.Domain {
		return nil, fmt.Errorf("meccdn: %s is the site's primary domain", domain)
	}
	if _, exists := s.tenants[domain]; exists {
		return nil, fmt.Errorf("meccdn: domain %s already deployed", domain)
	}
	if cacheServers <= 0 {
		cacheServers = 1
	}
	s.nextTent++
	tag := fmt.Sprintf("%stenant%d-", s.cfg.NamePrefix, s.nextTent)

	dep := &DomainDeployment{Domain: domain, Router: cdn.NewRouter(domain)}
	dep.Router.Policy = s.cfg.Policy
	dep.Router.Geo = s.cfg.Geo
	for i := 0; i < cacheServers; i++ {
		name := fmt.Sprintf("%scache-%d", tag, i)
		server, svc, err := s.newCacheInstance(dep.Router, name, name, domain, originAddr)
		if err != nil {
			return nil, err
		}
		dep.Caches = append(dep.Caches, server)
		dep.CacheServices = append(dep.CacheServices, svc)
	}

	cdnsNode := s.tb.AddMEC(tag + "cdns")
	dnsserver.Attach(cdnsNode, dnsserver.Chain(dep.Router), s.cfg.CDNSProcessing)
	svc, err := s.Orch.CreateService(orchestrator.ServiceSpec{
		Name:      tag + "traffic-router",
		Namespace: "cdn",
		Endpoints: []netip.Addr{cdnsNode.Addr},
	})
	if err != nil {
		return nil, fmt.Errorf("creating tenant C-DNS service: %w", err)
	}
	dep.CDNS = netip.AddrPortFrom(svc.ClusterIP, 53)
	dep.cdnsService = svc
	s.stub.Route(domain, dep.CDNS)
	s.tenants[domain] = dep
	return dep, nil
}

// RemoveDomain tears a tenant down: its stub route, services, and
// C-DNS registration disappear; queries for the domain fall through
// to the provider path (or REFUSED).
func (s *Site) RemoveDomain(domain string) error {
	domain = dnswire.CanonicalName(domain)
	dep, ok := s.tenants[domain]
	if !ok {
		return fmt.Errorf("meccdn: domain %s not deployed", domain)
	}
	delete(s.tenants, domain)
	s.stub.Unroute(domain)
	for _, server := range dep.Caches {
		dep.Router.RemoveServer(server.Name)
		server.SetHealthy(false)
	}
	for _, svc := range dep.CacheServices {
		if err := s.Orch.DeleteService(svc.Namespace, svc.Name); err != nil {
			return err
		}
	}
	if dep.cdnsService != nil {
		if err := s.Orch.DeleteService(dep.cdnsService.Namespace, dep.cdnsService.Name); err != nil {
			return err
		}
	}
	return nil
}

// Tenant returns the deployment for a hosted customer domain, or nil.
func (s *Site) Tenant(domain string) *DomainDeployment {
	return s.tenants[dnswire.CanonicalName(domain)]
}

// Warm preloads content onto the cache instance the router's hash
// ring assigns it to, emulating orchestrated pre-positioning.
func (s *Site) Warm(contents ...cdn.Content) {
	byName := make(map[string]*cdn.CacheServer, len(s.Caches))
	for _, c := range s.Caches {
		byName[c.Name] = c
	}
	for _, content := range contents {
		owner := s.Router.Ring.Owner(content.Name)
		if server := byName[owner]; server != nil {
			server.Warm(content)
		}
	}
}

// Domain returns the site's CDN domain.
func (s *Site) Domain() string { return s.cfg.Domain }

// HitRatio aggregates the cache instances' hit ratios.
func (s *Site) HitRatio() float64 {
	var hits, total uint64
	for _, c := range s.Caches {
		st := c.Cache().Stats()
		hits += st.Hits
		total += st.Hits + st.Misses
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}
