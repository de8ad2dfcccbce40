package main

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"time"

	"github.com/meccdn/meccdn/internal/cdn"
	"github.com/meccdn/meccdn/internal/dnsclient"
	"github.com/meccdn/meccdn/internal/dnsserver"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/geoip"
	"github.com/meccdn/meccdn/internal/lpm"
	"github.com/meccdn/meccdn/internal/mesh"
	"github.com/meccdn/meccdn/internal/simnet"
	"github.com/meccdn/meccdn/internal/telemetry"
	"github.com/meccdn/meccdn/internal/vclock"
)

// Fixed site constants. None depends on the seed: the seed varies the
// traffic, never the deployment, so two runs differ only in what the
// program under test receives.
const (
	mecZone      = "mec.test."
	svcCount     = 1000
	providerZone = "example.test."
	hostCount    = 5000
	cdnDomain    = "cdn.test."
	// recordTTL also goes on the router's answers: its default of 30 s
	// would expire cached answers in the middle of a run.
	recordTTL = 300

	// The route table covers 10.0.0.0/7: 512 /16 rows over all of it
	// plus routes24 /24 rows inside. (A /8 holds only 65 536 /24s, so
	// the 100 000 rows the table is sized at need the /7.)
	subnetBits = 17 // /24s in a /7
	routes16   = 512
	routes24   = 100_000

	popCount     = 16
	cacheServers = 8
	meshPeers    = 4
	meshPeerKeys = 256

	cacheEntries = 4096
	cacheShards  = 16
	qlogSample   = 16
	qlogCap      = 1024
)

// A subnet is the index n of a /24 inside 10.0.0.0/7. Whether it has a
// /24 row of its own, and which PoP each row names, are arithmetic in
// n, so the client's oracle never calls into lpm.

func subnetAddr(n uint32) [4]byte {
	return [4]byte{10 + byte(n>>16), byte(n >> 8), byte(n), 0}
}

// hasRoute24 is true for exactly routes24 of the 1<<17 subnets:
// multiplying by an odd constant permutes the residues mod 2^17.
func hasRoute24(n uint32) bool { return (n*40503)&(1<<subnetBits-1) < routes24 }

func pop24(n uint32) lpm.PoP { return lpm.PoP(1 + (n*7+5)%popCount) }
func pop16(n uint32) lpm.PoP { return lpm.PoP(1 + (n>>8)%popCount) }

func popAddr(p lpm.PoP) [4]byte { return [4]byte{203, 0, 113, byte(p)} }

// routeAnswer is the oracle for a subnet inside the table: the address
// the router must answer with and the ECS scope it must stamp.
func routeAnswer(n uint32) (addr [4]byte, scope uint8) {
	if hasRoute24(n) {
		return popAddr(pop24(n)), 24
	}
	return popAddr(pop16(n)), 16
}

func svcAddr(i int) [4]byte  { return [4]byte{172, 16, byte(i >> 8), byte(i)} }
func hostAddr(i int) [4]byte { return [4]byte{192, 0, 2 + byte(i>>8), byte(i)} }

func buildRoutes() (*lpm.Table, error) {
	b := lpm.NewBuilder()
	for n := uint32(0); n < 1<<subnetBits; n += 256 {
		a := subnetAddr(n)
		if err := b.Add(netip.PrefixFrom(netip.AddrFrom4(a), 16), pop16(n)); err != nil {
			return nil, err
		}
	}
	for n := uint32(0); n < 1<<subnetBits; n++ {
		if !hasRoute24(n) {
			continue
		}
		if err := b.Add(netip.PrefixFrom(netip.AddrFrom4(subnetAddr(n)), 24), pop24(n)); err != nil {
			return nil, err
		}
	}
	if b.Len() != routes16+routes24 {
		return nil, fmt.Errorf("route table has %d rows, want %d", b.Len(), routes16+routes24)
	}
	return b.Build(), nil
}

func buildZone(origin, label string, count int, addr func(int) [4]byte) (*dnsserver.Zone, error) {
	z := dnsserver.NewZone(origin)
	err := z.Update(func(b *dnsserver.ZoneBuilder) error {
		for i := 0; i < count; i++ {
			name := fmt.Sprintf("%s-%d.%s", label, i, origin)
			if err := b.AddA(name, recordTTL, netip.AddrFrom4(addr(i))); err != nil {
				return err
			}
		}
		return nil
	})
	return z, err
}

// site is the deployment under test, assembled in-process: the L-DNS
// chain cmd/dnsd build() wires, the collocated C-DNS its stub points
// at, and an authoritative server standing in for the provider
// resolver. Everything is reached over real loopback UDP sockets.
type site struct {
	ldns, cdns, provider *dnsserver.Server

	hub     *telemetry.Hub // the L-DNS hub
	cdnsHub *telemetry.Hub
	plugins []dnsserver.Plugin // the L-DNS chain, in order
	cache   *dnsserver.Cache
	fwd     *dnsserver.Forward
	router  *cdn.Router
	table   *lpm.Table
	view    *mesh.View

	ringAddrs map[[4]byte]bool // what a ring-share answer may be
	peerAddrs map[[4]byte]bool // what a mesh referral may point at
}

// newHub is the hub dnsd always builds: sampling 1 in 16 queries into
// a 1024-entry query log.
func newHub() *telemetry.Hub {
	hub := telemetry.NewHub(vclock.NewReal())
	hub.SampleEvery = qlogSample
	hub.Log = telemetry.NewQueryLog(qlogCap)
	return hub
}

// newServer is the dnsd server shape: Workers, QueueDepth and Batch at
// their zero-value defaults, one ingress socket per core.
func newServer(h dnsserver.Handler, hub *telemetry.Hub) *dnsserver.Server {
	return &dnsserver.Server{
		Addr:      "127.0.0.1:0",
		Handler:   h,
		Telemetry: hub,
		Sockets:   runtime.GOMAXPROCS(0),
	}
}

// buildRouter assembles the C-DNS router and what the oracle needs to
// know about it.
func (s *site) buildRouter() error {
	s.router = cdn.NewRouter(cdnDomain)
	s.router.TTL = recordTTL
	s.router.Policy = cdn.AvailabilityFirst{}
	var err error
	if s.table, err = buildRoutes(); err != nil {
		return err
	}
	s.router.SetRoutes(s.table)
	for p := lpm.PoP(1); p <= popCount; p++ {
		s.router.MapPoP(p, netip.AddrFrom4(popAddr(p)))
	}
	s.ringAddrs = make(map[[4]byte]bool, cacheServers)
	net := simnet.New(1)
	for i := 0; i < cacheServers; i++ {
		name := fmt.Sprintf("cache-%d", i)
		cs := cdn.NewCacheServer(net.AddNode(name), cdn.CacheServerConfig{Name: name, CapacityBytes: 1 << 20})
		s.router.AddServer(cs, geoip.Location{X: float64(i)})
		s.ringAddrs[cs.Addr().As4()] = true
	}
	// Four sibling MECs announce 256 keys each, none of them a name the
	// workloads ask for: the miss path pays the digest probes and steers
	// only on a Bloom false positive.
	s.peerAddrs = make(map[[4]byte]bool, meshPeers)
	agent := mesh.NewAgent(mesh.Config{Site: "local", Clock: &vclock.Fixed{}})
	for p := 0; p < meshPeers; p++ {
		d := mesh.NewDigest(mesh.DefaultDigestBits, mesh.DefaultDigestHashes)
		for i := 0; i < meshPeerKeys; i++ {
			d.Add(fmt.Sprintf("peer-%d-%d.%s", p, i, cdnDomain))
		}
		addr := [4]byte{10, 8, 0, byte(p + 2)}
		ann, err := mesh.EncodeAnnounce(fmt.Sprintf("peer-%d", p), netip.AddrFrom4(addr).String(),
			1, d.Entries(), 0.1, d.Hashes(), d.Bitmap())
		if err != nil {
			return err
		}
		agent.HandleDatagram(ann)
		s.peerAddrs[addr] = true
	}
	s.view = agent.View()
	if n := s.view.EligiblePeers(); n != meshPeers {
		return fmt.Errorf("mesh view has %d eligible peers, want %d", n, meshPeers)
	}
	s.router.UseMesh(s.view)
	return nil
}

func newSite() (*site, error) {
	s := &site{}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()

	// Provider resolver stand-in.
	pz, err := buildZone(providerZone, "host", hostCount, hostAddr)
	if err != nil {
		return nil, err
	}
	s.provider = newServer(dnsserver.Chain(dnsserver.NewMetrics(), dnsserver.NewZonePlugin(pz)), nil)
	if err := s.provider.Start(); err != nil {
		return nil, err
	}

	// C-DNS.
	if err := s.buildRouter(); err != nil {
		return nil, err
	}
	cm := dnsserver.NewMetrics()
	s.cdnsHub = newHub()
	if err := s.cdnsHub.Registry.Register(cm.Collectors()...); err != nil {
		return nil, err
	}
	if err := s.cdnsHub.Registry.Register(s.router.Collectors()...); err != nil {
		return nil, err
	}
	s.cdns = newServer(dnsserver.Chain(cm, s.router), s.cdnsHub)
	if err := s.cdnsHub.Registry.Register(s.cdns.Collectors()...); err != nil {
		return nil, err
	}
	if err := s.cdns.Start(); err != nil {
		return nil, err
	}

	// L-DNS: Metrics → Cache → Stub → ZonePlugin → Forward.
	metrics := dnsserver.NewMetrics()
	s.cache = dnsserver.NewCache(vclock.NewReal())
	s.cache.MaxEntries = cacheEntries
	s.cache.Shards = cacheShards
	s.cache.PrefetchFrac = 0.1
	s.cache.MaxStale = time.Hour
	client := &dnsclient.Client{Transport: &dnsclient.NetTransport{}, Timeout: 3 * time.Second, Retries: 1}
	stub := dnsserver.NewStub(client)
	stub.FailureThreshold = 3
	stub.Cooldown = 5 * time.Second
	stub.Route(cdnDomain, s.cdns.LocalAddr())
	mz, err := buildZone(mecZone, "svc", svcCount, svcAddr)
	if err != nil {
		return nil, err
	}
	s.fwd = &dnsserver.Forward{
		Upstreams:        []netip.AddrPort{s.provider.LocalAddr()},
		Client:           client,
		FailureThreshold: 3,
		Cooldown:         5 * time.Second,
	}
	s.plugins = []dnsserver.Plugin{metrics, s.cache, stub, dnsserver.NewZonePlugin(mz), s.fwd}
	s.hub = newHub()
	for _, cs := range [][]telemetry.Collector{metrics.Collectors(), s.cache.Collectors(), s.fwd.Collectors()} {
		if err := s.hub.Registry.Register(cs...); err != nil {
			return nil, err
		}
	}
	s.ldns = newServer(dnsserver.Chain(s.plugins...), s.hub)
	s.cache.Background = s.ldns
	if err := s.hub.Registry.Register(s.ldns.Collectors()...); err != nil {
		return nil, err
	}
	if err := s.ldns.Start(); err != nil {
		return nil, err
	}
	ok = true
	return s, nil
}

// close drains the three servers, front first, and waits for every
// goroutine they started.
func (s *site) close() {
	for _, srv := range []*dnsserver.Server{s.ldns, s.cdns, s.provider} {
		if srv == nil {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = srv.Shutdown(ctx) // a cut-short drain still closes the sockets
		cancel()
	}
}

// cannedServer is the bare-I/O probe target: the same server shape
// with a handler that answers every query with one pre-packed reply,
// so what remains is socket I/O, queue hand-off and the query parse.
func cannedServer(reply []byte) *dnsserver.Server {
	h := dnsserver.HandlerFunc(func(_ context.Context, w dnsserver.ResponseWriter, r *dnsserver.Request) (dnswire.Rcode, error) {
		buf := dnswire.GetBuffer()
		n := copy(buf, reply)
		dnswire.PatchID(buf[:n], r.Msg.ID)
		return dnswire.RcodeSuccess, w.(dnsserver.OwnedWireWriter).WriteWireOwned(buf, n)
	})
	return newServer(h, nil)
}
