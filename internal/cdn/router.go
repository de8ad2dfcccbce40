package cdn

import (
	"context"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/meccdn/meccdn/internal/dnsserver"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/geoip"
	"github.com/meccdn/meccdn/internal/health"
	"github.com/meccdn/meccdn/internal/lpm"
	"github.com/meccdn/meccdn/internal/mesh"
	"github.com/meccdn/meccdn/internal/telemetry"
)

// PoP aliases lpm.PoP so callers wiring subnet routes do not need a
// separate lpm import.
type PoP = lpm.PoP

// ServerInfo is the router's view of one cache server.
type ServerInfo struct {
	Server *CacheServer
	// Location is where AddServer placed the server; no policy reads it.
	Location geoip.Location
	// Advertise, when valid, is the address published in DNS answers
	// instead of the server's own — a k8s Service cluster IP in the
	// paper's design, so clients never learn host IPs.
	Advertise netip.Addr
}

// Answer returns the address to publish for this server.
func (si *ServerInfo) Answer() netip.Addr {
	if si.Advertise.IsValid() {
		return si.Advertise
	}
	return si.Server.Addr()
}

// ClientInfo is what the router can learn about the requester: its
// apparent address (often a gateway, not the end client) and, when
// ECS is present, the disclosed client subnet.
type ClientInfo struct {
	Addr netip.Addr
	ECS  netip.Prefix
}

// SelectionPolicy picks one cache server among candidates. Candidates
// are always healthy; the slice is never empty.
type SelectionPolicy interface {
	// Name labels the policy in experiment output.
	Name() string
	Select(candidates []*ServerInfo, key string, client ClientInfo) *ServerInfo
}

// AvailabilityFirst prefers servers that already hold the content,
// breaking ties by load: the "(iii) C-DNS must pick a cache server
// which has the content and is nearest" requirement, content half.
type AvailabilityFirst struct{}

// Name implements SelectionPolicy.
func (AvailabilityFirst) Name() string { return "availability-first" }

// Select implements SelectionPolicy.
func (AvailabilityFirst) Select(candidates []*ServerInfo, key string, _ ClientInfo) *ServerInfo {
	var have, best *ServerInfo
	for _, c := range candidates {
		if c.Server.Cache().Contains(key) {
			if have == nil || c.Server.Load() < have.Server.Load() {
				have = c
			}
		}
		if best == nil || c.Server.Load() < best.Server.Load() {
			best = c
		}
	}
	if have != nil {
		return have
	}
	return best
}

// RoundRobin cycles through candidates, the classic load-balancing
// baseline whose ignorance of content placement disaggregates
// requests (the paper's Observation 2).
type RoundRobin struct {
	n atomic.Uint64
}

// Name implements SelectionPolicy.
func (*RoundRobin) Name() string { return "round-robin" }

// Select implements SelectionPolicy.
func (r *RoundRobin) Select(candidates []*ServerInfo, _ string, _ ClientInfo) *ServerInfo {
	return candidates[(r.n.Add(1)-1)%uint64(len(candidates))]
}

// LeastLoaded picks the candidate with the fewest requests in its
// load window.
type LeastLoaded struct{}

// Name implements SelectionPolicy.
func (LeastLoaded) Name() string { return "least-loaded" }

// Select implements SelectionPolicy.
func (LeastLoaded) Select(candidates []*ServerInfo, _ string, _ ClientInfo) *ServerInfo {
	best := candidates[0]
	for _, c := range candidates[1:] {
		if c.Server.Load() < best.Server.Load() {
			best = c
		}
	}
	return best
}

// Router is the CDN request router (C-DNS): a dnsserver plugin that
// answers A queries for names under its CDN domain with the address
// of a selected cache server. It is the reproduction of Apache
// Traffic Control's Traffic Router, scoped — when deployed at the MEC
// — to just the edge site's cache instances.
type Router struct {
	// Domain is the CDN domain the router is authoritative for.
	Domain string
	// Policy selects among candidate servers; nil means
	// AvailabilityFirst.
	Policy SelectionPolicy
	// TTL for answers; CDN routers use short TTLs to keep routing
	// responsive. Zero means 30.
	TTL uint32
	// Ring maps content keys to servers; populated by AddServer.
	Ring *HashRing
	// Replicas is how many ring owners are candidates per key; zero
	// means 2.
	Replicas int
	// Parent, when valid, is the C-DNS one tier up: queries this
	// router cannot serve locally are answered with the parent's
	// address, the paper's cross-tier referral.
	Parent netip.Addr
	// Health, when set (via UseHealth), replaces blind trust in the
	// server's own flag: candidates must be routable per the probe-fed
	// registry and a new server joins the hash ring only after its
	// first successful probe. Nil preserves the historical behaviour
	// (CacheServer.Healthy alone).
	Health *health.Registry

	// state is the immutable server/PoP registry snapshot, published
	// via atomic pointer: candidate selection and PoP resolution load
	// it once per query and never lock.
	state atomic.Pointer[routerState]
	// wmu serializes registry writers (AddServer, MapPoP, health
	// transitions); readers never take it.
	wmu sync.Mutex

	// subnets is the ECS-driven subnet→PoP routing table, consulted
	// before the policy path. Swapped atomically so a reload never
	// blocks serving; nil means no table (legacy policy routing only).
	subnets atomic.Pointer[lpm.Table]

	// peers is the federated-mesh peer view (via UseMesh): on a local
	// content miss the router asks which eligible, non-overloaded peer
	// MEC announced the object before escalating to the parent tier,
	// and a dead LPM-mapped PoP falls back to the nearest healthy
	// peer. Nil means no mesh (vertical-only, the historical shape).
	peers atomic.Pointer[mesh.View]

	ctrOnce  sync.Once
	routed   *telemetry.Family // by routed* cell
	routeCtr *telemetry.Family // by lookup* cell
}

// Cells of meccdn_cdn_routed_total.
const (
	routedSelected = iota
	routedPeer
	routedReferral
	routedPeerFallback
	routedFailed
	routedNodata
)

// Cells of meccdn_route_lookups_total.
const (
	lookupHit = iota
	lookupMiss
	lookupPeerFallback
	lookupUnmapped
)

// routerState is one immutable revision of the router's registry: the
// cache servers and the PoP→answer-address map. Writers copy, mutate
// the copy, and publish; the maps in a published state are never
// written again.
type routerState struct {
	servers map[string]*ServerInfo
	pops    map[lpm.PoP]netip.Addr
}

// emptyRouterState backs routers built as plain struct literals.
var emptyRouterState = &routerState{}

// snapshot returns the current registry revision, never nil.
func (rt *Router) snapshot() *routerState {
	if s := rt.state.Load(); s != nil {
		return s
	}
	return emptyRouterState
}

// updateState copies the current registry, applies fn, publishes.
// Callers must hold rt.wmu.
func (rt *Router) updateState(fn func(*routerState)) {
	old := rt.snapshot()
	next := &routerState{
		servers: make(map[string]*ServerInfo, len(old.servers)+1),
		pops:    make(map[lpm.PoP]netip.Addr, len(old.pops)+1),
	}
	for n, s := range old.servers {
		next.servers[n] = s
	}
	for p, t := range old.pops {
		next.pops[p] = t
	}
	fn(next)
	rt.state.Store(next)
}

// counters lazily builds the routing counters, so Router keeps working
// as a plain struct literal.
func (rt *Router) counters() *telemetry.Family {
	rt.ctrOnce.Do(func() {
		rt.routed = telemetry.NewCounters("meccdn_cdn_routed_total",
			"C-DNS routing decisions by result (selected, peer, referral, peer_fallback, failed, nodata).", "result",
			"selected", "peer", "referral", "peer_fallback", "failed", "nodata")
		rt.routeCtr = telemetry.NewCounters("meccdn_route_lookups_total",
			"Subnet→PoP table lookups by result: hit (route matched and answered), miss (no covering route), peer_fallback (route matched a PoP with no address and a healthy mesh peer took the client), unmapped (route matched a PoP with no address and no healthy mesh peer to fall back to).", "result",
			"hit", "miss", "peer_fallback", "unmapped")
	})
	return rt.routed
}

// Collectors returns the router's metric families for registration on
// a telemetry.Registry: the routing-decision counters, a live
// server-count gauge, and the subnet-table row gauge.
func (rt *Router) Collectors() []telemetry.Collector {
	rt.counters()
	return []telemetry.Collector{
		rt.routed,
		rt.routeCtr,
		telemetry.NewGaugeFunc("meccdn_cdn_servers",
			"Cache servers currently registered with the C-DNS router.",
			func() float64 {
				return float64(len(rt.snapshot().servers))
			}),
		telemetry.NewGaugeFunc("meccdn_route_rows",
			"Rows in the installed subnet→PoP routing table (0 when none).",
			func() float64 {
				if t := rt.subnets.Load(); t != nil {
					return float64(t.Rows())
				}
				return 0
			}),
		telemetry.NewGaugeFunc("meccdn_ring_members",
			"Members currently on the consistent-hash ring.",
			func() float64 { return float64(rt.Ring.NumMembers()) }),
		telemetry.NewGaugeFunc("meccdn_ring_load_spread",
			"Max/mean member load on the hash ring (1.0 is perfectly even; a bounded ring stays ≤ its load factor).",
			rt.Ring.LoadSpread),
		telemetry.NewCounterFunc("meccdn_ring_spills_total",
			"Bounded-load lookups that spilled past a saturated hash-primary owner.",
			func() float64 { return float64(rt.Ring.Spills()) }),
		telemetry.NewCounterFunc("meccdn_ring_cap_rejections_total",
			"Saturated ring members skipped during bounded-load spill walks.",
			func() float64 { return float64(rt.Ring.CapRejections()) }),
	}
}

// SetRoutes installs (or atomically replaces) the subnet→PoP routing
// table. Safe to call while serving: in-flight lookups finish on the
// old table, new ones see the new — the immutable-snapshot-swap
// pattern, so a million-row table can be rebuilt and reloaded with
// zero dropped queries.
func (rt *Router) SetRoutes(t *lpm.Table) { rt.subnets.Store(t) }

// Routes returns the installed subnet→PoP table, or nil.
func (rt *Router) Routes() *lpm.Table { return rt.subnets.Load() }

// MapPoP publishes addr as the answer address for clients whose subnet
// routes to pop. This is the standalone deployment shape (cmd/dnsd
// -pop): the PoP's edge address is configuration, not a registered
// CacheServer.
func (rt *Router) MapPoP(pop lpm.PoP, addr netip.Addr) {
	rt.wmu.Lock()
	defer rt.wmu.Unlock()
	rt.updateState(func(s *routerState) { s.pops[pop] = addr })
}

// subnetRoute consults the subnet→PoP table for the client's
// ECS-disclosed subnet (or, absent ECS, the resolver source address —
// the very conflation the paper faults plain DNS for, kept only as the
// fallback signal). It returns the answer address (invalid when the
// table missed or the PoP has no address), a peer-referral address
// (valid when the mapped PoP was dead but a healthy mesh peer can take
// the client instead), the ECS scope to stamp, and whether a table is
// installed at all.
//
// Scope semantics (RFC 7871): a route hit discriminated the client at
// exactly the matched prefix length, so that is the scope; a miss (or
// an unmapped PoP) means the table did not discriminate — scope 0, the
// answer is as good for any subnet. Without a table the router stays
// on its historical echo (scope = source).
func (rt *Router) subnetRoute(client ClientInfo) (addr, peerRef netip.Addr, scope int, tabled bool) {
	table := rt.subnets.Load()
	if table == nil {
		return netip.Addr{}, netip.Addr{}, -1, false
	}
	lookupAddr := client.Addr
	if client.ECS.IsValid() {
		lookupAddr = client.ECS.Addr()
	}
	pop, bits, ok := table.Lookup(lookupAddr)
	if !ok {
		rt.routeCtr.Inc(lookupMiss)
		return netip.Addr{}, netip.Addr{}, 0, true
	}
	addr, ok = rt.snapshot().pops[pop]
	if !ok {
		// The LPM route named a PoP with no address. Rather than
		// answering a dead edge, hand the client to the nearest healthy
		// peer MEC from the mesh view.
		if v := rt.peers.Load(); v != nil {
			if hit, hitOK := v.Nearest(); hitOK && hit.Addr.IsValid() {
				rt.routeCtr.Inc(lookupPeerFallback)
				return netip.Addr{}, hit.Addr, 0, true
			}
		}
		rt.routeCtr.Inc(lookupUnmapped)
		return netip.Addr{}, netip.Addr{}, 0, true
	}
	rt.routeCtr.Inc(lookupHit)
	return addr, netip.Addr{}, bits, true
}

// NewRouter returns a router for domain.
func NewRouter(domain string) *Router {
	return &Router{
		Domain: canonicalDomain(domain),
		Ring:   NewHashRing(),
	}
}

// UseHealth attaches a health registry to the router. From then on
// candidate selection consults the registry's probe-fed verdicts
// (layered with each server's own flag), newly added servers start in
// the probing state and enter the hash ring only on their first
// successful probe, and a server demoted to down leaves the ring. Call
// before AddServer.
func (rt *Router) UseHealth(reg *health.Registry) {
	rt.wmu.Lock()
	rt.Health = reg
	rt.wmu.Unlock()
	reg.OnTransition(func(name string, _, to State) {
		// The listener runs without the registry lock held, so taking
		// the writer lock here cannot invert the serve path's
		// registry-consulting order (readers never take wmu).
		rt.wmu.Lock()
		defer rt.wmu.Unlock()
		if _, tracked := rt.snapshot().servers[name]; !tracked {
			return
		}
		if to.Routable() {
			rt.Ring.Add(name)
		} else {
			rt.Ring.Remove(name)
		}
	})
}

// State aliases health.State so callers wiring UseHealth listeners do
// not need a separate health import.
type State = health.State

// PeerHit aliases mesh.PeerHit so callers consuming RoutePeer results
// do not need a separate mesh import.
type PeerHit = mesh.PeerHit

// UseMesh attaches a federated-mesh peer view to the router. From
// then on the miss path — a key no local candidate already holds —
// asks the view which eligible, non-overloaded peer MEC announced the
// object and answers with a referral to that peer's C-DNS before
// escalating to the parent tier, and a dead LPM-mapped PoP falls back
// to the nearest healthy peer. Safe to call while serving.
func (rt *Router) UseMesh(v *mesh.View) { rt.peers.Store(v) }

// Mesh returns the attached peer view, or nil.
func (rt *Router) Mesh() *mesh.View { return rt.peers.Load() }

// AddServer registers a cache server with the router.
func (rt *Router) AddServer(s *CacheServer, loc geoip.Location) {
	rt.AddServerAdvertise(s, loc, netip.Addr{})
}

// AddServerAdvertise registers a cache server that is published in
// DNS answers under advertise (a Service cluster IP) rather than its
// host address. With a health registry attached the server starts
// probing and joins the hash ring only after its first successful
// probe; without one it is instantly routable, as before.
func (rt *Router) AddServerAdvertise(s *CacheServer, loc geoip.Location, advertise netip.Addr) {
	rt.wmu.Lock()
	defer rt.wmu.Unlock()
	rt.updateState(func(st *routerState) {
		st.servers[s.Name] = &ServerInfo{Server: s, Location: loc, Advertise: advertise}
	})
	if rt.Health == nil {
		rt.Ring.Add(s.Name)
		return
	}
	rt.Health.Add(s.Name, s.Addr().String())
	if st, ok := rt.Health.State(s.Name); ok && st.Routable() {
		// Re-registration of a server the registry already vouches for.
		rt.Ring.Add(s.Name)
	}
}

// Name implements dnsserver.Plugin.
func (rt *Router) Name() string { return "cdn-router" }

// ServeDNS implements dnsserver.Plugin. A question of a class other
// than IN or ANY goes to next: the router's answers are IN records.
func (rt *Router) ServeDNS(ctx context.Context, w dnsserver.ResponseWriter, r *dnsserver.Request, next dnsserver.Handler) (dnswire.Rcode, error) {
	qname := r.Name()
	if !dnswire.IsSubdomain(rt.Domain, qname) || !r.ClassIN() {
		return next.ServeDNS(ctx, w, r)
	}
	routed := rt.counters()
	if r.Type() != dnswire.TypeA && r.Type() != dnswire.TypeANY {
		// The CDN domain exists but we only publish A records.
		routed.Inc(routedNodata)
		telemetry.Annotate(ctx, "cdn-router", "nodata")
		return rt.reply(w, r, dnswire.RcodeSuccess, netip.Addr{}, 0)
	}

	hop := telemetry.StartHop(ctx, "cdn-router")
	client := rt.clientInfo(r)

	// Subnet→PoP table first: with a table installed the disclosed
	// subnet picks the edge directly; scope stays -1 without one.
	var addr netip.Addr
	scope := -1
	if popAddr, popRef, popScope, tabled := rt.subnetRoute(client); tabled {
		if popRef.IsValid() {
			// Peer fallback: the mapped PoP is dead, so delegate
			// to the nearest healthy peer MEC instead of answering it.
			routed.Inc(routedPeerFallback)
			hop.End("peer-fallback")
			return rt.writeReferralTo(w, r, popRef)
		}
		scope = popScope
		addr = popAddr
	}

	switch {
	case addr.IsValid():
		routed.Inc(routedSelected)
		hop.End("subnet-route")
	default:
		selected, peer, steered := rt.RoutePeer(qname, client)
		switch {
		case steered:
			// Horizontal cooperation: a sibling MEC announced this
			// object, so delegate the client there — same referral
			// mechanics as the cross-tier escalation, just pointed at
			// the peer's C-DNS instead of the parent's.
			routed.Inc(routedPeer)
			hop.End(peer.Target)
			return rt.writeReferralTo(w, r, peer.Addr)
		case selected != nil:
			addr = selected.Answer()
			routed.Inc(routedSelected)
			hop.End(selected.Server.Name)
		case rt.Parent.IsValid():
			// Cross-tier referral: "C-DNS simply returns the address of
			// another C-DNS running at a different CDN tier" (§3 P2).
			// Encoded as a proper DNS referral so clients and resolvers
			// can chase it: NS in authority, glue in additional.
			routed.Inc(routedReferral)
			hop.End("referral")
			return rt.writeReferralTo(w, r, rt.Parent)
		default:
			routed.Inc(routedFailed)
			hop.End("failed")
			return rt.reply(w, r, dnswire.RcodeServerFailure, netip.Addr{}, 0)
		}
	}
	return rt.reply(w, r, dnswire.RcodeSuccess, addr, scope)
}

// reply answers r with rcode — an A record for addr when it is valid,
// else NODATA or SERVFAIL — through dnsserver.WriteReply. An A record
// echoes ECS with the scope it depended on (RFC 7871 §7.2.1): the
// matched route length on a table hit, 0 when the table did not
// discriminate, and without a table (scope < 0) the source length.
func (rt *Router) reply(w dnsserver.ResponseWriter, r *dnsserver.Request, rcode dnswire.Rcode, addr netip.Addr, scope int) (dnswire.Rcode, error) {
	reply := dnswire.Reply{Authoritative: rcode == dnswire.RcodeSuccess, Rcode: rcode}
	var echo dnswire.ECSOption
	if ecs, ok := r.Msg.ECS(); ok && addr.IsValid() {
		if scope < 0 {
			scope = int(ecs.SourcePrefix)
		}
		echo = ecs.Echo(uint8(scope))
		reply.Echo = &echo
	}
	var answer [1]dnswire.ReplyRR
	var a dnswire.A
	if addr.IsValid() {
		ttl := rt.TTL
		if ttl == 0 {
			ttl = 30
		}
		a = dnswire.A{Hdr: dnswire.RRHeader{Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: ttl}, Addr: addr}
		answer[0] = dnswire.ReplyRR{RR: &a, Owner: r.Name()}
		reply.Answers = answer[:]
	}
	return dnsserver.WriteReply(w, r, &reply)
}

// ReferralNS is the owner label used for cross-tier C-DNS referrals:
// the NS target is "<ReferralNS>.<cdn domain>" with a glue A record
// carrying the parent router's address.
const ReferralNS = "cdns-next-tier"

// writeReferralTo answers with a delegation pointing at another C-DNS
// — the parent tier or a mesh peer site: the NS in authority, its glue
// A record in additional, both on the stack.
func (rt *Router) writeReferralTo(w dnsserver.ResponseWriter, r *dnsserver.Request, next netip.Addr) (dnswire.Rcode, error) {
	nsName := ReferralNS + "." + rt.Domain
	ns := dnswire.NS{Hdr: dnswire.RRHeader{Name: rt.Domain, Type: dnswire.TypeNS, Class: dnswire.ClassINET, TTL: 30}, NS: nsName}
	glue := dnswire.A{Hdr: dnswire.RRHeader{Name: nsName, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 30}, Addr: next}
	authority := [1]dnswire.ReplyRR{{RR: &ns}}
	additional := [1]dnswire.ReplyRR{{RR: &glue}}
	return dnsserver.WriteReply(w, r, &dnswire.Reply{Authorities: authority[:], Additionals: additional[:]})
}

// Referral extracts the next-tier C-DNS address from a response, if
// it is a cross-tier referral produced by writeReferralTo.
func Referral(m *dnswire.Message) (netip.Addr, bool) {
	if len(m.Answers) > 0 {
		return netip.Addr{}, false
	}
	hasNS := false
	for _, rr := range m.Authorities {
		if ns, ok := rr.(*dnswire.NS); ok &&
			dnswire.CanonicalName(ns.NS) == dnswire.CanonicalName(ReferralNS+"."+ns.Hdr.Name) {
			hasNS = true
		}
	}
	if !hasNS {
		return netip.Addr{}, false
	}
	for _, rr := range m.Additionals {
		if a, ok := rr.(*dnswire.A); ok {
			return a.Addr, true
		}
	}
	return netip.Addr{}, false
}

// Route selects a cache server for a content key, or nil when no
// healthy server can serve it locally. With a health registry
// attached, a candidate must pass both the server's own flag and the
// registry's verdict, and healthy servers are preferred over degraded
// ones — an all-degraded set still serves best-effort rather than
// failing over. Route is mesh-blind; RoutePeer layers peer steering
// on top.
func (rt *Router) Route(key string, client ClientInfo) *ServerInfo {
	selected := rt.selectLocal(key, client)
	if selected != nil {
		// Feed the ring's load cells: one unit per routing decision,
		// charged to the server the policy actually picked (which may
		// differ from the bounded walk's first owner). The bounded
		// lookup's cap reads these counters; under a plain ring they
		// only drive the meccdn_ring_* load metrics.
		rt.Ring.RecordLoad(selected.Server.Name)
	}
	return selected
}

// RoutePeer is the mesh-aware routing decision: local candidate
// selection first, then — when the local pick would miss (no candidate
// at all, or the policy's pick does not hold the object) — the peer
// view. A steered decision returns (nil, hit, true) and charges the
// peer's bounded-load cell; otherwise the local pick (possibly nil)
// is returned and charged exactly as Route would. Lock-free on the
// serve path: the snapshot loads aside, no locks are taken.
func (rt *Router) RoutePeer(key string, client ClientInfo) (*ServerInfo, mesh.PeerHit, bool) {
	selected := rt.selectLocal(key, client)
	if v := rt.peers.Load(); v != nil {
		if selected == nil || !selected.Server.Cache().Contains(key) {
			if hit, ok := v.Steer(key); ok {
				return nil, hit, true
			}
		}
	}
	if selected != nil {
		rt.Ring.RecordLoad(selected.Server.Name)
	}
	return selected, mesh.PeerHit{}, false
}

// selectLocal runs candidate selection over the site's own servers
// without charging the ring's load cells.
func (rt *Router) selectLocal(key string, client ClientInfo) *ServerInfo {
	st := rt.snapshot()
	if len(st.servers) == 0 {
		return nil
	}
	replicas := rt.Replicas
	if replicas <= 0 {
		replicas = 2
	}
	// The ring walk appends candidates into fixed backing arrays on the
	// stack, and the owner names stay there too: selectPolicy hands the
	// arrays to the built-in policies only through their concrete types.
	var prefArr, degArr [smallOwners]*ServerInfo
	preferred, degraded := prefArr[:0], degArr[:0]
	consider := func(name string) {
		s := st.servers[name]
		if s == nil || !s.Server.Healthy() {
			return
		}
		if rt.Health == nil {
			preferred = append(preferred, s)
			return
		}
		routable, deg := rt.Health.Eligible(name)
		switch {
		case !routable:
		case deg:
			degraded = append(degraded, s)
		default:
			preferred = append(preferred, s)
		}
	}
	var ownersBuf [smallOwners]string
	for _, name := range rt.Ring.OwnersAppend(ownersBuf[:0], key, replicas) {
		consider(name)
	}
	if len(preferred) == 0 && len(degraded) == 0 {
		// All ring owners are down: fall back to any healthy server,
		// iterated in sorted order for determinism.
		names := make([]string, 0, len(st.servers))
		for n := range st.servers {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, name := range names {
			consider(name)
		}
	}
	candidates := preferred
	if len(candidates) == 0 {
		candidates = degraded
	}
	if len(candidates) == 0 {
		return nil
	}
	return selectPolicy(rt.Policy, candidates, key, client)
}

// selectPolicy calls policy, nil meaning AvailabilityFirst. The three
// built-in policies are called through their concrete types, which
// keep no reference to candidates, so the caller's stack arrays stay
// on the stack. Any other policy is an interface call the compiler
// cannot see through, and gets a copy of the candidates on the heap.
func selectPolicy(policy SelectionPolicy, candidates []*ServerInfo, key string, client ClientInfo) *ServerInfo {
	switch p := policy.(type) {
	case nil:
		return AvailabilityFirst{}.Select(candidates, key, client)
	case AvailabilityFirst:
		return p.Select(candidates, key, client)
	case *RoundRobin:
		return p.Select(candidates, key, client)
	case LeastLoaded:
		return p.Select(candidates, key, client)
	}
	return policy.Select(append([]*ServerInfo(nil), candidates...), key, client)
}

// clientInfo assembles what the router knows about the requester.
func (rt *Router) clientInfo(r *dnsserver.Request) ClientInfo {
	info := ClientInfo{Addr: r.Client.Addr()}
	if ecs, ok := r.Msg.ECS(); ok {
		info.ECS = ecs.Prefix()
	}
	return info
}
