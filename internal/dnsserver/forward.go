package dnsserver

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"slices"
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
// health survives reconfiguration. name is addr rendered once, for hop
// notes and probe-registry lookups.
type upstreamEntry struct {
	addr      netip.AddrPort
	name      string
	hedgeNote string // the forward hop's note when this entry wins as the hedge
	fails     atomic.Int32
	downUntil atomic.Int64 // vclock nanoseconds; 0 = not cooling
}

// upstreamSet is the forwarder's upstream list as built on first use:
// the configured order, the per-upstream health cells, and the
// resolved clock. It never changes after it is built, so readers need
// no lock.
type upstreamSet struct {
	addrs   []netip.AddrPort
	entries []*upstreamEntry // parallel to addrs
	clock   vclock.Clock     // never nil
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

	upsOnce sync.Once
	ups     *upstreamSet

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

// set returns the upstream set, building it on first use from
// Upstreams and Clock; later changes to either are not seen.
func (f *Forward) set() *upstreamSet {
	f.upsOnce.Do(func() {
		clock := f.Clock
		if clock == nil {
			clock = vclock.NewReal()
		}
		s := &upstreamSet{
			addrs:   append([]netip.AddrPort(nil), f.Upstreams...),
			entries: make([]*upstreamEntry, 0, len(f.Upstreams)),
			clock:   clock,
		}
		for _, up := range s.addrs {
			s.entries = append(s.entries, &upstreamEntry{addr: up, name: up.String(), hedgeNote: "hedge:" + up.String()})
		}
		f.ups = s
	})
	return f.ups
}

// failoverRcode reports whether rcode should trigger a try of the
// next upstream rather than being relayed.
func failoverRcode(rc dnswire.Rcode) bool {
	return rc == dnswire.RcodeServerFailure || rc == dnswire.RcodeRefused
}

// candidates orders the upstreams for this query into ups, a slice the
// caller owns (room for the whole set keeps the call allocation-free):
// healthy ones first in configured order (probe-registry-scored when
// Health is attached), cooled-down ones after them as a last resort.
// Lock-free: one snapshot load and per-entry atomic reads.
func (f *Forward) candidates(ups []*upstreamEntry) []*upstreamEntry {
	s := f.set()
	now := int64(s.clock.Now())
	n := len(s.entries)
	ups = slices.Grow(ups[:0], n)[:n]
	healthy, cooling := 0, n // healthy fill from the front, cooling from the back
	for _, e := range s.entries {
		if du := e.downUntil.Load(); du != 0 && now < du {
			cooling--
			ups[cooling] = e
			f.counters().skipped.Inc()
			continue
		}
		ups[healthy] = e
		healthy++
	}
	slices.Reverse(ups[cooling:])
	if f.Health != nil && healthy > 1 {
		type score struct {
			rank int
			ewma time.Duration
		}
		var arr [8]score
		scores := arr[:0]
		for _, e := range ups[:healthy] {
			rank, ewma := f.Health.Rank(e.name)
			scores = append(scores, score{rank, ewma})
		}
		// A stable insertion sort: the set is a handful of upstreams.
		for i := 1; i < healthy; i++ {
			for j := i; j > 0 && (scores[j].rank < scores[j-1].rank ||
				scores[j].rank == scores[j-1].rank && scores[j].ewma < scores[j-1].ewma); j-- {
				scores[j], scores[j-1] = scores[j-1], scores[j]
				ups[j], ups[j-1] = ups[j-1], ups[j]
			}
		}
	}
	return ups
}

// recordFailure notes one failed exchange and trips the cooldown once
// the threshold is reached, backing off exponentially after that.
func (f *Forward) recordFailure(e *upstreamEntry) {
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
	e.downUntil.Store(int64(f.set().clock.Now() + cooldown<<exp))
}

// recordSuccess resets an upstream's failure state.
func (f *Forward) recordSuccess(e *upstreamEntry) {
	e.fails.Store(0)
	e.downUntil.Store(0)
}

// ServeDNS implements Plugin.
func (f *Forward) ServeDNS(ctx context.Context, w ResponseWriter, r *Request, next Handler) (dnswire.Rcode, error) {
	if f.Client == nil {
		return dnswire.RcodeServerFailure, errors.New("dnsserver: forward has no client")
	}
	var arr [4]*upstreamEntry
	ups := f.candidates(arr[:0])
	if len(ups) == 0 {
		return dnswire.RcodeServerFailure, fmt.Errorf("forwarding %s: no upstreams configured", r.Name())
	}
	if !r.mayWait() { // the exchange below waits on the network
		return dnswire.RcodeServerFailure, errIngressFull
	}
	ctr := f.counters()
	ctr.queries.Inc()
	hop := telemetry.StartHop(ctx, "forward")

	var lastErr error
	var lastImg []byte // the last SERVFAIL/REFUSED verdict, if any
	var lastRcode dnswire.Rcode
	hedgeFell := false

	if f.HedgeDelay > 0 && len(ups) > 1 {
		img, rcode, fromHedge, ok := f.hedgedExchange(ctx, ups[0], ups[1], r)
		if ok {
			if fromHedge {
				ctr.failovers.Inc() // answered by other than the first upstream
				hop.End(ups[1].hedgeNote)
			} else {
				hop.End(ups[0].name)
			}
			return writeUpstream(w, r, img, rcode)
		}
		// Both raced upstreams failed; fall through to the rest.
		ups = ups[2:]
		hedgeFell = true
	}

	for i, up := range ups {
		img, rcode, err := f.Client.Exchange(ctx, up.addr, up.name, r.Msg)
		if err != nil {
			f.recordFailure(up)
			lastErr = err
			continue
		}
		if failoverRcode(rcode) {
			f.recordFailure(up)
			dnswire.PutBuffer(lastImg)
			lastImg, lastRcode = img, rcode
			continue
		}
		dnswire.PutBuffer(lastImg)
		f.recordSuccess(up)
		if i > 0 || hedgeFell {
			ctr.failovers.Inc()
		}
		hop.End(up.name)
		return writeUpstream(w, r, img, rcode)
	}
	if lastImg != nil {
		// Every upstream answered with SERVFAIL/REFUSED; relay the
		// last verdict rather than synthesizing our own.
		hop.End("relayed-failure")
		return writeUpstream(w, r, lastImg, lastRcode)
	}
	if lastErr == nil {
		lastErr = errors.New("all upstreams failed")
	}
	hop.End("error")
	return dnswire.RcodeServerFailure, fmt.Errorf("forwarding %s: %w", r.Name(), lastErr)
}

// writeUpstream relays an upstream response — img and rcode as the
// client's Exchange returned them, the buffer now this side's — to the
// client under the client's query ID: the image as it arrived, decoded
// only if the writer cannot take bytes (WriteImage).
func writeUpstream(w ResponseWriter, r *Request, img []byte, rcode dnswire.Rcode) (dnswire.Rcode, error) {
	dnswire.PatchID(img, r.Msg.ID)
	if err := WriteImage(w, img, len(img)); err != nil {
		return dnswire.RcodeServerFailure, err
	}
	return rcode, nil
}

// hedgedExchange races primary against secondary: the secondary
// exchange starts after HedgeDelay (or immediately once the primary
// fails), and the first usable answer wins. Returns ok=false when
// both failed; fromHedge reports whether the secondary won. Returning
// cancels the loser: over real sockets the transport wakes its read at
// once and closes the socket, so it holds neither a goroutine nor a
// port until the attempt timeout.
// The loser may outlive the query, so the exchanges time their hops on
// a fork of its span, joined into it once the race is decided.
func (f *Forward) hedgedExchange(ctx context.Context, primary, secondary *upstreamEntry, r *Request) (img []byte, rcode dnswire.Rcode, fromHedge, ok bool) {
	sp := telemetry.FromContext(ctx)
	ctx, fork := sp.Fork(ctx)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer sp.Join(fork) // before the cancel wakes the loser
	type result struct {
		img   []byte
		rcode dnswire.Rcode
		err   error
		up    *upstreamEntry
	}
	ch := make(chan result, 2) // one send per launch, so no sender ever blocks
	// The losing exchange can still be running when the winner returns
	// control to ServeDNS — and the server recycles r.Msg for the next
	// packet the moment ServeDNS is done. Clone once up front so the
	// stragglers hold their own copy instead of racing the reuse.
	q := r.Msg.Clone()
	launch := func(up *upstreamEntry) {
		go func() {
			img, rcode, err := f.Client.Exchange(ctx, up.addr, up.name, q)
			ch <- result{img, rcode, err, up}
		}()
	}
	launch(primary)
	launched, received := 1, 0
	// A loser that got its reply in before the cancel reached it still
	// holds a pooled buffer; whoever is left to report hands it back.
	defer func() {
		for ; received < launched; received++ {
			go func() { dnswire.PutBuffer((<-ch).img) }()
		}
	}()
	timer := time.NewTimer(f.HedgeDelay)
	defer timer.Stop()
	hedge := func() {
		launch(secondary)
		launched = 2
		f.counters().hedged.Inc()
	}
	for received < launched {
		select {
		case res := <-ch:
			received++
			if res.err == nil && !failoverRcode(res.rcode) {
				f.recordSuccess(res.up)
				if res.up == secondary {
					f.counters().hedgeWins.Inc()
				}
				return res.img, res.rcode, res.up == secondary, true
			}
			dnswire.PutBuffer(res.img)
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
	return nil, 0, false, false
}

// stubRoute is one stub domain's upstream set with its persistent
// forwarder (persistent so upstream health survives across queries).
type stubRoute struct {
	fwd    *Forward
	labels int
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
// Route may be called concurrently with query serving (a
// live reconfiguration): writers copy the route table, mutate the
// copy, and publish it atomically; the per-query longest-match walk
// is a single snapshot load with no lock.
type Stub struct {
	table atomic.Pointer[stubTable]
	// wmu serializes Route; match never takes it.
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
		labels: dnswire.CountLabels(domain),
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
