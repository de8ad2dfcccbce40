package main

import (
	"context"
	"fmt"
	"net/netip"
	"slices"
	"time"

	"github.com/meccdn/meccdn/internal/cdn"
	"github.com/meccdn/meccdn/internal/dnsclient"
	"github.com/meccdn/meccdn/internal/dnsserver"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/lpm"
	"github.com/meccdn/meccdn/internal/mesh"
)

const (
	// replayQueries is the length of the traced run; replayBudget cuts
	// it short on a workload whose every query waits for an upstream
	// exchange (route-miss replays some 40 000 in the budget).
	replayQueries = 200_000
	replayBudget  = 2500 * time.Millisecond
	probeDuration = 2 * time.Second
	// leafKeys is how many of the stream's own CDN keys the direct
	// calls cycle over, leafCalls how many calls each timing makes.
	leafKeys      = 1 << 16
	leafCalls     = 1 << 18
	exchangeCalls = 2000
)

// tracedRun makes the per-layer measurements that follow a workload's
// measured phase: the traced replay and its untraced and
// telemetry-off twins, the router's share replayed at the C-DNS, the
// leaf structures timed on the workload's own keys, and the two socket
// probes. It fills res.layers.
func tracedRun(res *result, s *site, st *stream, outDir string) error {
	out := res.layers

	tr := newTracer(replayQueries * 8)
	traced, err := replay(s, st, replayQueries, replayBudget, s.hub, tr)
	if err != nil {
		return err
	}
	n := traced.queries
	// The twins replay exactly the positions the traced run covered.
	plain, err := replay(s, st, n, time.Hour, s.hub, nil)
	if err != nil {
		return err
	}
	bare, err := replay(s, st, n, time.Hour, nil, nil)
	if err != nil {
		return err
	}
	if err := writeTrace(outDir, res.workload, res.seed, n, tr.spans); err != nil {
		return err
	}

	totals := aggregate(tr.spans)
	perQuery := func(l layer) float64 { return float64(totals[l].selfNs) / float64(n) }
	out["dnswire.unpack_ns"] = perQuery(layerUnpack)
	out["dnswire.pack_ns"] = perQuery(layerPack)
	out["dnswire.wire_write_ratio"] = ratio(float64(traced.wireWrites), float64(traced.wireWrites+traced.msgWrites))
	out["dnsserver.metrics_ns"] = perQuery(layerMetrics)
	out["dnsserver.cache_ns"] = perQuery(layerCache)
	out["dnsserver.zone_ns"] = perQuery(layerZone)
	out["dnsserver.stub_us"] = perQuery(layerStub) / 1e3
	out["dnsserver.forward_us"] = perQuery(layerForward) / 1e3
	out["trace.unattributed_ratio"] = ratio(float64(totals[layerQuery].selfNs), float64(totals[layerQuery].inclusive))
	out["trace.overhead_ratio"] = ratio(float64(traced.ns), float64(plain.ns))
	out["inproc.ns_per_query"] = plain.nsPerQuery()
	out["inproc.allocs_per_query"] = plain.allocsPerQuery()
	out["telemetry.span_ns"] = plain.nsPerQuery() - bare.nsPerQuery()
	out["telemetry.allocs_per_query"] = plain.allocsPerQuery() - bare.allocsPerQuery()
	out["dnsserver.io.residual_us"] = res.e2e["cpu_us_per_query"] - plain.nsPerQuery()/1e3

	// The queries that reached the stub for a CDN name are the ones the
	// C-DNS router served; replay those at the router.
	var routed []uint32
	for i := range tr.spans {
		if sp := &tr.spans[i]; sp.layer == layerStub {
			if t := st.at(int(sp.query)); st.kind[t] != kindZone {
				routed = append(routed, t)
			}
		}
	}
	if out["cdn.router_ns"], err = routerReplay(s, st, routed); err != nil {
		return err
	}
	out["cdn.router_samples"] = float64(len(routed))

	if err := leafTimings(out, s, st); err != nil {
		return err
	}
	return probes(out, s)
}

// discard is a ResponseWriter that only notes it was written to, so
// the router replay times routing and not packing.
type discard struct{ wrote bool }

func (d *discard) WriteMsg(*dnswire.Message) error { d.wrote = true; return nil }
func (d *discard) Written() bool                   { return d.wrote }

// routerReplay runs the given templates through Router.ServeDNS
// in-process and returns the mean ns per query.
func routerReplay(s *site, st *stream, templates []uint32) (float64, error) {
	if len(templates) == 0 {
		return 0, nil
	}
	chain := dnsserver.Chain(s.router)
	intern := dnswire.NewNameIntern(0)
	var msg dnswire.Message
	var total time.Duration
	for _, t := range templates {
		if err := msg.UnpackQuery(st.query(t), intern); err != nil {
			return 0, err
		}
		req := dnsserver.Request{Msg: &msg, Client: replayClient, Transport: "udp"}
		var w discard
		begin := time.Now()
		rcode := dnsserver.ResolveTo(context.Background(), chain, &w, &req)
		total += time.Since(begin)
		if rcode != dnswire.RcodeSuccess {
			return 0, fmt.Errorf("router replay: template %d answered %v", t, rcode)
		}
	}
	return float64(total) / float64(len(templates)), nil
}

// cdnKey is one of the stream's CDN queries as the leaf structures
// take it.
type cdnKey struct {
	name   string
	addr   netip.Addr
	client cdn.ClientInfo
	msg    *dnswire.Message
}

// cdnKeys decodes up to max of the stream's CDN queries, in the order
// the stream sends them.
func cdnKeys(st *stream, max int) ([]cdnKey, error) {
	var keys []cdnKey
	seen := make(map[uint32]bool)
	for pos := 0; pos < st.length() && len(keys) < max; pos++ {
		t := st.at(pos)
		if st.kind[t] == kindZone || seen[t] {
			continue
		}
		seen[t] = true
		m := new(dnswire.Message)
		if err := m.Unpack(st.query(t)); err != nil {
			return nil, err
		}
		ecs, ok := m.ECS()
		if !ok {
			return nil, fmt.Errorf("template %d: CDN query without ECS", t)
		}
		keys = append(keys, cdnKey{
			name:   m.Question().Name,
			addr:   ecs.Address,
			client: cdn.ClientInfo{Addr: replayClient.Addr(), ECS: ecs.Prefix()},
			msg:    m,
		})
	}
	return keys, nil
}

// Sinks keep the timed calls' results live.
var (
	sinkPoP    lpm.PoP
	sinkHit    mesh.PeerHit
	sinkServer *cdn.ServerInfo
	sinkOwners []string
)

// timeCalls times leafCalls calls of fn over the keys and returns the
// mean ns per call.
func timeCalls(keys []cdnKey, fn func(k *cdnKey)) float64 {
	begin := time.Now()
	for i := 0; i < leafCalls; i++ {
		fn(&keys[i%len(keys)])
	}
	return float64(time.Since(begin)) / leafCalls
}

// leafTimings times the structures the chain hides behind the router
// by calling them directly on the workload's own keys. A workload
// that sends no CDN query has no keys, and reports 0.
func leafTimings(out map[string]float64, s *site, st *stream) error {
	for _, name := range []string{"cdn.route_ns", "cdn.ring_owners_ns", "lpm.lookup_ns", "mesh.view_lookup_ns", "dnsclient.exchange_us"} {
		out[name] = 0
	}
	keys, err := cdnKeys(st, leafKeys)
	if err != nil || len(keys) == 0 {
		return err
	}
	out["cdn.route_ns"] = timeCalls(keys, func(k *cdnKey) { sinkServer = s.router.Route(k.name, k.client) })
	var owners [8]string
	out["cdn.ring_owners_ns"] = timeCalls(keys, func(k *cdnKey) { sinkOwners = s.router.Ring.OwnersAppend(owners[:0], k.name, 2) })
	out["lpm.lookup_ns"] = timeCalls(keys, func(k *cdnKey) { sinkPoP, _, _ = s.table.Lookup(k.addr) })
	out["mesh.view_lookup_ns"] = timeCalls(keys, func(k *cdnKey) { sinkHit, _ = s.view.Lookup(k.name) })

	// One exchange with the C-DNS, as the stub makes it.
	cl := &dnsclient.Client{Transport: &dnsclient.NetTransport{}, Timeout: 3 * time.Second, Retries: 1}
	samples := make([]uint32, 0, exchangeCalls)
	for i := 0; i < exchangeCalls; i++ {
		begin := time.Now()
		if _, err := cl.Do(context.Background(), s.cdns.LocalAddr(), keys[i%len(keys)].msg); err != nil {
			return err
		}
		samples = append(samples, uint32(time.Since(begin)))
	}
	slices.Sort(samples)
	out["dnsclient.exchange_us"] = percentile(samples, 50) / 1e3
	return nil
}

// probeStream is the one-name stream the socket probes send: the
// smallest packet, always answerable from the MEC zone or the cache.
func probeStream() *stream {
	st := &stream{}
	st.add(nameOf("svc", 0, mecZone), false, nil, kindZone, svcAddr(0), 0)
	st.seal()
	return st
}

// probes runs the two socket probes. Both send the probe stream, so
// they read the same on every workload; they are in the traced run
// because that is where the diagnostics live.
func probes(out map[string]float64, s *site) error {
	st := probeStream()

	// Bare I/O: the same client against a server that answers from a
	// canned wire image. What it costs per query is the floor under
	// cpu_us_per_query.
	reply := new(dnswire.Message)
	query := new(dnswire.Message)
	if err := query.Unpack(st.query(0)); err != nil {
		return err
	}
	reply.SetReply(query)
	reply.Answers = []dnswire.RR{&dnswire.A{
		Hdr:  dnswire.RRHeader{Name: query.Question().Name, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: recordTTL},
		Addr: netip.AddrFrom4(svcAddr(0)),
	}}
	wire, err := reply.Pack()
	if err != nil {
		return err
	}
	canned := cannedServer(wire)
	if err := canned.Start(); err != nil {
		return err
	}
	defer canned.Close()
	c, err := newClient(st, s, canned.LocalAddr())
	if err != nil {
		return err
	}
	defer c.close()
	cpu0, err := cpuTime()
	if err != nil {
		return err
	}
	stop := c.now() + int64(probeDuration)
	if err := c.run(func() (uint32, bool) { return 0, c.now() < stop }, false); err != nil {
		return err
	}
	cpu1, err := cpuTime()
	if err != nil {
		return err
	}
	if c.wrong > 0 || c.answered == 0 {
		return fmt.Errorf("bare-I/O probe: %d answered, %d wrong (first: %s)", c.answered, c.wrong, c.firstBad)
	}
	out["dnsserver.io.bare_us_per_query"] = float64(cpu1-cpu0) / 1e3 / float64(c.answered)

	// Burst: 64 queries back to back against the L-DNS, the load shape
	// the closed loop never offers.
	b, err := newClient(st, s, s.ldns.LocalAddr())
	if err != nil {
		return err
	}
	defer b.close()
	pkts0, batches0 := s.ldns.BatchStats()
	burst, err := b.burst(probeDuration)
	if err != nil {
		return err
	}
	pkts1, batches1 := s.ldns.BatchStats()
	slices.Sort(burst.rounds)
	out["dnsserver.io.burst64_drop_ratio"] = ratio(float64(burst.sent-burst.received), float64(burst.sent))
	out["dnsserver.io.burst64_pkts_per_batch"] = ratio(float64(pkts1-pkts0), float64(batches1-batches0))
	out["dnsserver.io.burst64_round_us_p50"] = percentile(burst.rounds, 50) / 1e3
	return nil
}
