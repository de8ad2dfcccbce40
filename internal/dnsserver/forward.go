package dnsserver

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/meccdn/meccdn/internal/dnsclient"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/health"
	"github.com/meccdn/meccdn/internal/telemetry"
	"github.com/meccdn/meccdn/internal/vclock"
)

// ForwardStats is a snapshot of the forwarding counters.
type ForwardStats struct {
	// Queries counts forwarded queries.
	Queries uint64
	// Failovers counts answers obtained from an upstream other than
	// the first one tried (after a transport error, SERVFAIL, or
	// REFUSED from an earlier upstream).
	Failovers uint64
	// Skipped counts times an upstream was demoted because it was in
	// its failure cooldown window.
	Skipped uint64
	// Hedged counts queries for which a hedged second exchange was
	// launched; HedgeWins counts those the hedge answered first.
	Hedged, HedgeWins uint64
}

// upstreamEntry tracks one upstream's consecutive failures and the
// cooldown deadline it must sit out after tripping the threshold.
// Both fields are atomics so exchanges record outcomes without a
// lock; the entry itself is carried across upstream-set rebuilds so
// health survives reconfiguration.
type upstreamEntry struct {
	addr      netip.AddrPort
	fails     atomic.Int32
	downUntil atomic.Int64 // vclock nanoseconds; 0 = not cooling
}

// upstreamSet is the immutable, atomically published view of the
// forwarder's upstream list: the configured order, the per-upstream
// health cells, and the resolved clock. Readers load it once per
// query; it is rebuilt (preserving health state) only when the
// Upstreams or Clock fields change.
type upstreamSet struct {
	addrs   []netip.AddrPort
	entries []*upstreamEntry
	index   map[netip.AddrPort]*upstreamEntry
	// clockSrc is the Forward.Clock value this set was built from
	// (possibly nil); clock is the resolved, never-nil clock.
	clockSrc vclock.Clock
	clock    vclock.Clock
}

// Forward sends queries to one or more upstream resolvers, trying
// each in order until one answers usably. It is the "forward ." of
// the provider L-DNS and the upstream leg of the MEC DNS fallback
// path.
//
// Robustness features:
//
//   - Failover treats SERVFAIL and REFUSED like transport errors: the
//     next upstream is tried rather than relaying the failure. When
//     every upstream fails, the last upstream response (if any) is
//     relayed so the client sees the real upstream verdict.
//   - Per-upstream health: FailureThreshold consecutive failures put
//     an upstream into a Cooldown window (with exponential backoff)
//     during which it is tried only as a last resort. Health state
//     lives in atomic cells inside an RCU-published upstream set, so
//     candidate ordering and outcome recording never take a lock on
//     the serve path.
//   - Hedging: when HedgeDelay > 0 and a second upstream is
//     available, a second exchange is launched after the delay and
//     the first usable answer wins — trading a duplicate upstream
//     query for tail latency, per the classic tied-request technique.
type Forward struct {
	// Upstreams are tried in order.
	Upstreams []netip.AddrPort
	// Client performs the exchanges; required.
	Client *dnsclient.Client
	// Match, when non-empty, limits forwarding to names under this
	// domain; others fall through to the next plugin.
	Match string
	// Clock supplies time for health cooldown accounting. Nil means a
	// wall clock (initialized on first use). Use the simnet clock in
	// experiments so cooldowns run in virtual time.
	Clock vclock.Clock
	// FailureThreshold is the number of consecutive failures that
	// puts an upstream into cooldown; 0 means 3.
	FailureThreshold int
	// Cooldown is the base sit-out window for a tripped upstream;
	// 0 means 5s. Repeated failures back off exponentially up to
	// 64× the base.
	Cooldown time.Duration
	// HedgeDelay, when > 0, launches a second exchange against the
	// next upstream after this delay and takes the first usable
	// answer. The delay runs on the wall clock, so hedging is only
	// meaningful on live servers; leave it zero under simnet.
	HedgeDelay time.Duration
	// Health, when set, reorders non-cooling upstreams by the probe
	// registry's verdict before each query: healthy upstreams first,
	// then unknown, degraded, probing, down — ties broken by EWMA
	// probe latency, equal keys kept in configured order. Targets are
	// looked up by their AddrPort string. This layers the active
	// control plane over the forwarder's own reactive (per-exchange)
	// cooldown tracking; neither replaces the other.
	Health *health.Registry

	ups atomic.Pointer[upstreamSet]
	// wmu serializes upstream-set rebuilds; the serve path never
	// takes it once the set matches the configured upstreams.
	wmu sync.Mutex

	ctrOnce sync.Once
	ctr     forwardCounters
}

// forwardCounters are the forwarding counters as lock-free telemetry
// instruments (replacing the old mutex-guarded stats struct, which
// contended with the health map on every query).
type forwardCounters struct {
	queries, failovers, skipped, hedged, hedgeWins *telemetry.Counter
}

// counters lazily builds the instruments, so Forward keeps working as
// a plain struct literal.
func (f *Forward) counters() *forwardCounters {
	f.ctrOnce.Do(func() {
		f.ctr = forwardCounters{
			queries:   telemetry.NewCounter("meccdn_dns_forward_queries_total", "Queries sent to upstream resolvers."),
			failovers: telemetry.NewCounter("meccdn_dns_forward_failovers_total", "Answers obtained from an upstream other than the first tried."),
			skipped:   telemetry.NewCounter("meccdn_dns_forward_skipped_total", "Upstream demotions due to an active failure cooldown."),
			hedged:    telemetry.NewCounter("meccdn_dns_forward_hedged_total", "Queries for which a hedged second exchange was launched."),
			hedgeWins: telemetry.NewCounter("meccdn_dns_forward_hedge_wins_total", "Hedged exchanges the second upstream answered first."),
		}
	})
	return &f.ctr
}

// Collectors returns the forwarder's metric families for registration
// on a telemetry.Registry.
func (f *Forward) Collectors() []telemetry.Collector {
	c := f.counters()
	return []telemetry.Collector{c.queries, c.failovers, c.skipped, c.hedged, c.hedgeWins}
}

// Name implements Plugin.
func (f *Forward) Name() string { return "forward" }

// Stats returns a snapshot of the forwarding counters.
func (f *Forward) Stats() ForwardStats {
	c := f.counters()
	return ForwardStats{
		Queries:   c.queries.Value(),
		Failovers: c.failovers.Value(),
		Skipped:   c.skipped.Value(),
		Hedged:    c.hedged.Value(),
		HedgeWins: c.hedgeWins.Value(),
	}
}

// set returns the published upstream set, rebuilding it first if the
// Upstreams or Clock fields changed since the last build. The common
// case — configuration unchanged — is one atomic load plus a short
// slice comparison, no lock.
func (f *Forward) set() *upstreamSet {
	s := f.ups.Load()
	if s != nil && s.clockSrc == f.Clock && equalAddrPorts(s.addrs, f.Upstreams) {
		return s
	}
	f.wmu.Lock()
	defer f.wmu.Unlock()
	s = f.ups.Load()
	if s != nil && s.clockSrc == f.Clock && equalAddrPorts(s.addrs, f.Upstreams) {
		return s
	}
	clock := f.Clock
	if clock == nil {
		clock = vclock.NewReal()
	}
	next := &upstreamSet{
		addrs:    append([]netip.AddrPort(nil), f.Upstreams...),
		entries:  make([]*upstreamEntry, 0, len(f.Upstreams)),
		index:    make(map[netip.AddrPort]*upstreamEntry, len(f.Upstreams)),
		clockSrc: f.Clock,
		clock:    clock,
	}
	for _, up := range next.addrs {
		var e *upstreamEntry
		if s != nil {
			e = s.index[up] // carry health across rebuilds
		}
		if e == nil {
			e = &upstreamEntry{addr: up}
		}
		next.entries = append(next.entries, e)
		next.index[up] = e
	}
	f.ups.Store(next)
	return next
}

// equalAddrPorts reports whether two upstream lists are identical in
// content and order.
func equalAddrPorts(a, b []netip.AddrPort) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// failoverRcode reports whether rcode should trigger a try of the
// next upstream rather than being relayed.
func failoverRcode(rc dnswire.Rcode) bool {
	return rc == dnswire.RcodeServerFailure || rc == dnswire.RcodeRefused
}

// candidates orders the upstreams for this query: healthy ones first
// in configured order (probe-registry-scored when Health is
// attached), cooled-down ones appended as a last resort. Lock-free:
// one snapshot load and per-entry atomic reads.
func (f *Forward) candidates() []netip.AddrPort {
	s := f.set()
	now := int64(s.clock.Now())
	healthy := make([]netip.AddrPort, 0, len(s.entries))
	var cooling []netip.AddrPort
	for _, e := range s.entries {
		if du := e.downUntil.Load(); du != 0 && now < du {
			cooling = append(cooling, e.addr)
			f.counters().skipped.Inc()
			continue
		}
		healthy = append(healthy, e.addr)
	}
	if f.Health != nil && len(healthy) > 1 {
		type score struct {
			rank int
			ewma time.Duration
		}
		scores := make(map[netip.AddrPort]score, len(healthy))
		for _, up := range healthy {
			rank, ewma := f.Health.Rank(up.String())
			scores[up] = score{rank, ewma}
		}
		sort.SliceStable(healthy, func(i, j int) bool {
			a, b := scores[healthy[i]], scores[healthy[j]]
			if a.rank != b.rank {
				return a.rank < b.rank
			}
			return a.ewma < b.ewma
		})
	}
	return append(healthy, cooling...)
}

// recordFailure notes one failed exchange and trips the cooldown once
// the threshold is reached, backing off exponentially after that.
func (f *Forward) recordFailure(up netip.AddrPort) {
	s := f.set()
	e := s.index[up]
	if e == nil {
		return
	}
	fails := int(e.fails.Add(1))
	threshold := f.FailureThreshold
	if threshold <= 0 {
		threshold = 3
	}
	if fails < threshold {
		return
	}
	cooldown := f.Cooldown
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	// Exponential backoff: 1×, 2×, 4×, … capped at 64× the base.
	exp := fails - threshold
	if exp > 6 {
		exp = 6
	}
	e.downUntil.Store(int64(s.clock.Now() + cooldown<<exp))
}

// recordSuccess resets an upstream's failure state.
func (f *Forward) recordSuccess(up netip.AddrPort) {
	s := f.ups.Load()
	if s == nil {
		return
	}
	if e := s.index[up]; e != nil {
		e.fails.Store(0)
		e.downUntil.Store(0)
	}
}

// ServeDNS implements Plugin.
func (f *Forward) ServeDNS(ctx context.Context, w ResponseWriter, r *Request, next Handler) (dnswire.Rcode, error) {
	if f.Match != "" && !dnswire.IsSubdomain(f.Match, r.Name()) {
		return next.ServeDNS(ctx, w, r)
	}
	if f.Client == nil {
		return dnswire.RcodeServerFailure, errors.New("dnsserver: forward has no client")
	}
	ups := f.candidates()
	if len(ups) == 0 {
		return dnswire.RcodeServerFailure, fmt.Errorf("forwarding %s: no upstreams configured", r.Name())
	}
	ctr := f.counters()
	ctr.queries.Inc()
	endHop := telemetry.StartHop(ctx, "forward")

	var lastErr error
	var lastResp *dnswire.Message
	hedgeFell := false

	if f.HedgeDelay > 0 && len(ups) > 1 {
		resp, fromHedge, ok := f.hedgedExchange(ctx, ups[0], ups[1], r)
		if ok {
			if fromHedge {
				ctr.failovers.Inc() // answered by other than the first upstream
				endHop("hedge:" + ups[1].String())
			} else {
				endHop(ups[0].String())
			}
			return writeUpstream(w, r, resp)
		}
		// Both raced upstreams failed; fall through to the rest.
		ups = ups[2:]
		hedgeFell = true
	}

	for i, up := range ups {
		resp, err := f.Client.Do(ctx, up, r.Msg)
		if err != nil {
			f.recordFailure(up)
			lastErr = err
			continue
		}
		if failoverRcode(resp.Rcode) {
			f.recordFailure(up)
			lastResp = resp
			continue
		}
		f.recordSuccess(up)
		if i > 0 || hedgeFell {
			ctr.failovers.Inc()
		}
		endHop(up.String())
		return writeUpstream(w, r, resp)
	}
	if lastResp != nil {
		// Every upstream answered with SERVFAIL/REFUSED; relay the
		// last verdict rather than synthesizing our own.
		endHop("relayed-failure")
		return writeUpstream(w, r, lastResp)
	}
	if lastErr == nil {
		lastErr = errors.New("all upstreams failed")
	}
	endHop("error")
	return dnswire.RcodeServerFailure, fmt.Errorf("forwarding %s: %w", r.Name(), lastErr)
}

// writeUpstream relays an upstream response to the client under the
// client's query ID.
func writeUpstream(w ResponseWriter, r *Request, resp *dnswire.Message) (dnswire.Rcode, error) {
	resp.ID = r.Msg.ID
	if err := w.WriteMsg(resp); err != nil {
		return dnswire.RcodeServerFailure, err
	}
	return resp.Rcode, nil
}

// hedgedExchange races primary against secondary: the secondary
// exchange starts after HedgeDelay (or immediately once the primary
// fails), and the first usable answer wins. Returns ok=false when
// both failed; fromHedge reports whether the secondary won. Returning
// cancels the loser: over real sockets the transport wakes its read at
// once and closes the socket, so it holds neither a goroutine nor a
// port until the attempt timeout.
func (f *Forward) hedgedExchange(ctx context.Context, primary, secondary netip.AddrPort, r *Request) (resp *dnswire.Message, fromHedge, ok bool) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		resp *dnswire.Message
		err  error
		up   netip.AddrPort
	}
	ch := make(chan result, 2)
	// The losing exchange can still be running when the winner returns
	// control to ServeDNS — and the server recycles r.Msg for the next
	// packet the moment ServeDNS is done. Clone once up front so the
	// stragglers hold their own copy instead of racing the reuse.
	q := r.Msg.Clone()
	launch := func(up netip.AddrPort) {
		go func() {
			resp, err := f.Client.Do(ctx, up, q)
			ch <- result{resp, err, up}
		}()
	}
	launch(primary)
	launched := 1
	timer := time.NewTimer(f.HedgeDelay)
	defer timer.Stop()
	hedge := func() {
		launch(secondary)
		launched = 2
		f.counters().hedged.Inc()
	}
	for received := 0; received < launched; {
		select {
		case res := <-ch:
			received++
			if res.err == nil && !failoverRcode(res.resp.Rcode) {
				f.recordSuccess(res.up)
				if res.up == secondary {
					f.counters().hedgeWins.Inc()
					return res.resp, true, true
				}
				return res.resp, false, true
			}
			f.recordFailure(res.up)
			if launched == 1 {
				// Primary failed before the hedge timer: fail over
				// immediately instead of waiting out the delay.
				hedge()
			}
		case <-timer.C:
			if launched == 1 {
				hedge()
			}
		}
	}
	return nil, false, false
}

// stubRoute is one stub domain's upstream set with its persistent
// forwarder (persistent so upstream health survives across queries).
type stubRoute struct {
	upstreams []netip.AddrPort
	fwd       *Forward
	labels    int
}

// stubTable is one immutable revision of the stub route table,
// published via atomic pointer so match() never locks.
type stubTable struct {
	routes map[string]*stubRoute
}

// Stub routes queries for specific sub-domains to dedicated upstream
// servers, the CoreDNS stub-domain mechanism the paper's prototype
// uses to hand the CDN domain from the MEC L-DNS (CoreDNS) to the
// collocated C-DNS (the ATC Traffic Router):
//
//	stub := NewStub()
//	stub.Route("mycdn.ciab.test.", cdnsAddr)
//
// Route and Unroute may be called concurrently with query serving (a
// live reconfiguration): writers copy the route table, mutate the
// copy, and publish it atomically; the per-query longest-match walk
// is a single snapshot load with no lock.
type Stub struct {
	table atomic.Pointer[stubTable]
	// wmu serializes Route/Unroute; match never takes it.
	wmu sync.Mutex
	// Client performs the exchanges; required.
	Client *dnsclient.Client
	// Clock, FailureThreshold, Cooldown, HedgeDelay, and Health
	// configure the per-route forwarders; see Forward for semantics.
	// Set them before the first Route: each route's forwarder copies
	// them when Route is called, and a later assignment never reaches
	// a route that already exists.
	Clock            vclock.Clock
	FailureThreshold int
	Cooldown         time.Duration
	HedgeDelay       time.Duration
	Health           *health.Registry
}

// NewStub returns an empty stub-domain router.
func NewStub(client *dnsclient.Client) *Stub {
	s := &Stub{Client: client}
	s.table.Store(&stubTable{routes: map[string]*stubRoute{}})
	return s
}

// updateTable copies the current route table, applies fn, publishes.
func (s *Stub) updateTable(fn func(map[string]*stubRoute)) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	old := s.table.Load()
	next := make(map[string]*stubRoute, len(old.routes)+1)
	for d, rt := range old.routes {
		next[d] = rt
	}
	fn(next)
	s.table.Store(&stubTable{routes: next})
}

// Route directs queries under domain to the given upstreams.
func (s *Stub) Route(domain string, upstreams ...netip.AddrPort) {
	domain = dnswire.CanonicalName(domain)
	rt := &stubRoute{
		upstreams: upstreams,
		labels:    dnswire.CountLabels(domain),
		fwd: &Forward{
			Upstreams:        upstreams,
			Client:           s.Client,
			Clock:            s.Clock,
			FailureThreshold: s.FailureThreshold,
			Cooldown:         s.Cooldown,
			HedgeDelay:       s.HedgeDelay,
			Health:           s.Health,
		},
	}
	s.updateTable(func(routes map[string]*stubRoute) { routes[domain] = rt })
}

// Unroute removes a stub domain.
func (s *Stub) Unroute(domain string) {
	domain = dnswire.CanonicalName(domain)
	s.updateTable(func(routes map[string]*stubRoute) { delete(routes, domain) })
}

// Name implements Plugin.
func (s *Stub) Name() string { return "stub" }

// match returns the forwarder and domain of the longest matching stub
// route. Lock-free: one atomic table load per query.
func (s *Stub) match(qname string) (*Forward, string) {
	t := s.table.Load()
	var best *stubRoute
	bestDomain := ""
	for domain, rt := range t.routes {
		if dnswire.IsSubdomain(domain, qname) {
			if best == nil || rt.labels > best.labels {
				best, bestDomain = rt, domain
			}
		}
	}
	if best == nil {
		return nil, ""
	}
	return best.fwd, bestDomain
}

// ServeDNS implements Plugin.
func (s *Stub) ServeDNS(ctx context.Context, w ResponseWriter, r *Request, next Handler) (dnswire.Rcode, error) {
	fwd, domain := s.match(r.Name())
	if fwd == nil {
		return next.ServeDNS(ctx, w, r)
	}
	telemetry.Annotate(ctx, "stub", domain)
	return fwd.ServeDNS(ctx, w, r, next)
}
