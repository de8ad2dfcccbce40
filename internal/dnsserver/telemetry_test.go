package dnsserver

import (
	"context"
	"fmt"
	"math"
	"net/netip"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/racecheck"
	"github.com/meccdn/meccdn/internal/telemetry"
	"github.com/meccdn/meccdn/internal/vclock"
)

// TestSpanMatchesClientLatency is the acceptance test for the tracing
// subsystem: a query resolved through a real UDP server must produce a
// span whose duration is contained in — and close to — the
// client-observed latency, with its hop decomposition consistent.
func TestSpanMatchesClientLatency(t *testing.T) {
	// Upstream the forwarder escapes to.
	upZone := NewZone("up.test.")
	if err := upZone.AddA("www.up.test.", 60, netip.MustParseAddr("192.0.2.10")); err != nil {
		t.Fatal(err)
	}
	upstream := startTestServer(t, Chain(NewZonePlugin(upZone)))

	hub := telemetry.NewHub(nil)
	hub.SampleEvery = 1 // keep every query in the log

	cache := NewCache(vclock.NewReal())
	srv := &Server{
		Addr: "127.0.0.1:0",
		Handler: Chain(
			NewMetrics(),
			cache,
			&Forward{Upstreams: []netip.AddrPort{upstream}, Client: realClient()},
		),
		Telemetry: hub,
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	client := realClient()
	start := time.Now()
	resp, err := client.Query(context.Background(), srv.LocalAddr(), "www.up.test.", dnswire.TypeA)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %v", resp.Answers)
	}
	// Second query: cache hit.
	if _, err := client.Query(context.Background(), srv.LocalAddr(), "www.up.test.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}

	waitFor(t, time.Second, func() bool { return hub.Log.Len() >= 2 })
	recs := hub.Log.Drain()
	if len(recs) != 2 {
		t.Fatalf("query log has %d records, want 2", len(recs))
	}

	first, second := recs[0], recs[1]
	if first.Path != telemetry.PathUpstream {
		t.Errorf("first query path = %q, want upstream (hops %+v)", first.Path, first.Hops)
	}
	if second.Path != telemetry.PathCacheHit {
		t.Errorf("second query path = %q, want cache-hit (hops %+v)", second.Path, second.Hops)
	}

	// The span is opened after the packet is read and finished after
	// the response is written, so its duration must fit inside what
	// the client measured — and, minus scheduling noise and loopback
	// I/O, account for most of it.
	elapsedUS := elapsed.Microseconds()
	if first.DurUS <= 0 {
		t.Fatalf("span duration = %dus", first.DurUS)
	}
	if first.DurUS > elapsedUS+1000 {
		t.Errorf("span (%dus) exceeds client-observed latency (%dus)", first.DurUS, elapsedUS)
	}
	if gap := elapsedUS - first.DurUS; gap > 250_000 {
		t.Errorf("span (%dus) unaccountably far from client latency (%dus)", first.DurUS, elapsedUS)
	}

	// Hop consistency: the forwarded query crossed cache (miss),
	// forward, and upstream; every hop fits inside the span, and the
	// top-level hops sum to no more than the span.
	layers := map[string]bool{}
	for _, h := range first.Hops {
		layers[h.Layer] = true
		if h.StartUS+h.DurUS > first.DurUS+1000 {
			t.Errorf("hop %s [%d+%dus] extends past span end %dus", h.Layer, h.StartUS, h.DurUS, first.DurUS)
		}
	}
	for _, want := range []string{"cache", "forward", "upstream"} {
		if !layers[want] {
			t.Errorf("no %q hop recorded: %+v", want, first.Hops)
		}
	}
	if sum := topLevelHopSum(first.Hops); sum > first.DurUS+1000 {
		t.Errorf("top-level hops sum to %dus, more than the span %dus", sum, first.DurUS)
	}

	// The hub's client-facing histogram and path counters saw both.
	if hub.ServeDuration.Count() != 2 {
		t.Errorf("serve histogram count = %d", hub.ServeDuration.Count())
	}
	var b strings.Builder
	if err := hub.Registry.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{telemetry.PathUpstream, telemetry.PathCacheHit} {
		if want := `meccdn_dns_resolution_path_total{path="` + path + `"} 1`; !strings.Contains(b.String(), want) {
			t.Errorf("exposition lacks %s:\n%s", want, b.String())
		}
	}
}

// topLevelHopSum sums the durations of hops not contained in any other
// hop (1000us slack absorbs microsecond truncation in the records).
func topLevelHopSum(hops []telemetry.HopRecord) int64 {
	var sum int64
	for i, h := range hops {
		contained := false
		for j, p := range hops {
			if i == j {
				continue
			}
			if p.StartUS <= h.StartUS && p.StartUS+p.DurUS+1 >= h.StartUS+h.DurUS &&
				!(p.StartUS == h.StartUS && p.DurUS == h.DurUS && j > i) {
				contained = true
				break
			}
		}
		if !contained {
			sum += h.DurUS
		}
	}
	return sum
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not met in time")
}

// TestTelemetryParallelResolves drives the full plugin chain (metrics,
// loadshed, cache with coalescing, stub, forward) from many goroutines
// with spans attached; run with -race. It pins the registry invariants
// afterwards: every query classified into exactly one path, and the
// exposition renders while counters are still moving.
func TestTelemetryParallelResolves(t *testing.T) {
	upZone := NewZone("up.test.")
	cdnZone := NewZone("cdn.test.")
	for i := 0; i < 8; i++ {
		if err := upZone.AddA(fmt.Sprintf("h%d.up.test.", i), 300, netip.MustParseAddr("192.0.2.10")); err != nil {
			t.Fatal(err)
		}
		if err := cdnZone.AddA(fmt.Sprintf("v%d.cdn.test.", i), 300, netip.MustParseAddr("192.0.2.20")); err != nil {
			t.Fatal(err)
		}
	}
	upstream := startTestServer(t, Chain(NewZonePlugin(upZone, cdnZone)))

	hub := telemetry.NewHub(nil)
	hub.SampleEvery = 3

	metrics := NewMetrics()
	shed := &LoadShed{} // MaxQueries 0: admission disabled, layer still crossed
	cache := NewCache(vclock.NewReal())
	stub := NewStub(realClient())
	stub.Route("cdn.test.", upstream)
	fwd := &Forward{Upstreams: []netip.AddrPort{upstream}, Client: realClient()}
	chain := Chain(metrics, shed, cache, stub, fwd)

	reg := telemetry.NewRegistry()
	if err := reg.Register(metrics.Collectors()...); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(cache.Collectors()...); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(fwd.Collectors()...); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(shed.Collectors()...); err != nil {
		t.Fatal(err)
	}

	const workers, iters = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var name string
				switch i % 3 {
				case 0:
					name = fmt.Sprintf("h%d.up.test.", i%8)
				case 1:
					name = fmt.Sprintf("v%d.cdn.test.", i%8)
				default:
					name = "unmatched.example." // forwarded, NXDOMAIN-ish REFUSED from upstream
				}
				q := new(dnswire.Message)
				q.SetQuestion(name, dnswire.TypeA)
				req := &Request{Msg: q, Client: netip.MustParseAddrPort("192.0.2.99:5353"), Transport: "udp"}
				sp := hub.BeginAddr(req.Name(), req.Type().String(), req.Transport, req.Client)
				ctx := telemetry.ContextWith(context.Background(), sp)
				resp := Resolve(ctx, chain, req)
				hub.Finish(sp, resp.Rcode.String())
				if i%16 == 0 {
					var b strings.Builder
					if err := reg.WritePrometheus(&b); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	total := uint64(workers * iters)
	if got := hub.Path.Sum(); got != total {
		t.Errorf("path counters saw %d queries, want %d", got, total)
	}
	if got := metrics.Total(); got != total {
		t.Errorf("metrics total = %d, want %d", got, total)
	}
	if got := hub.ServeDuration.Count(); got != total {
		t.Errorf("serve histogram count = %d, want %d", got, total)
	}
	added, _ := hub.Log.Stats()
	if added == 0 {
		t.Error("head sampling kept nothing")
	}
	cs := cache.Stats()
	if cs.Hits == 0 || cs.Misses == 0 {
		t.Errorf("cache saw hits=%d misses=%d; expected both under repetition", cs.Hits, cs.Misses)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"meccdn_dns_queries_total", "meccdn_dns_responses_total", "meccdn_dns_cache_hits_total",
		"meccdn_dns_forward_queries_total", "meccdn_dns_loadshed_served_total",
	} {
		if !strings.Contains(b.String(), family) {
			t.Errorf("exposition missing %s", family)
		}
	}
}

// TestServeQueryAllocs pins what a cache hit costs with telemetry on,
// served the way dnsd assembles it: a hub in front of Metrics → Cache.
// Opening, timing and finishing the span allocates nothing, and
// UnpackQuery parses an ECS query into the OPT and ECS option the
// scratch already holds, so an unsampled hit, OPT-less or ECS-bearing,
// makes no allocation at all, and neither does one sampled into the log
// once its ring has gone round: a ring slot keeps its hop records'
// array, and the client address is rendered when the log is read. Under
// the race detector sync.Pool drops a share of what it is handed on
// purpose, so there the counts are logged, not held to.
func TestServeQueryAllocs(t *testing.T) {
	const ring = 64
	hub := telemetry.NewHub(vclock.NewReal())
	hub.Log = telemetry.NewQueryLog(ring)
	hub.SampleEvery = math.MaxInt // only the hub's first query is sampled
	chain := Chain(NewMetrics(), NewCache(vclock.NewReal()), pluginize(ecsAnswerHandler("192.0.2.9", 24)))
	st := &serveScratch{intern: dnswire.NewNameIntern(0)}
	client := netip.MustParseAddrPort("198.51.100.7:4242")
	serve := func(pkt []byte) {
		buf, _ := serveQuery(context.Background(), chain, hub, st, pkt, client, "udp", maxUDPPayload)
		if buf == nil {
			t.Fatal("no reply")
		}
		dnswire.PutBuffer(buf)
	}
	pack := func(r *Request) []byte {
		wire, err := r.Msg.Pack()
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	unknown := queryFor("alloc.test.")
	unknown.Msg.Questions[0].Type = 4242 // a type dnswire does not name
	plain, ecs, other := pack(queryFor("alloc.test.")), pack(ecsQueryFor("alloc.test.", "10.1.2.0/24")), pack(unknown)
	serve(plain) // the misses that fill the cache
	serve(ecs)
	serve(other)

	for _, c := range []struct {
		name        string
		pkt         []byte
		sampleEvery int
		max         float64
	}{
		{"plain hit", plain, math.MaxInt, 0},
		{"ECS hit", ecs, math.MaxInt, 0},
		{"sampled plain hit", plain, 1, 0},
		// The span's qtype is Type.String(), which formats an
		// unnamed type; the cache key and the counters do not.
		{"unknown-type hit", other, math.MaxInt, 2},
	} {
		hub.SampleEvery = c.sampleEvery
		for i := 0; i < ring; i++ { // round the ring
			serve(c.pkt)
		}
		got := testing.AllocsPerRun(100, func() { serve(c.pkt) })
		switch {
		case racecheck.Enabled:
			t.Logf("%s: %v allocs per query under the race detector", c.name, got)
		case got > c.max:
			t.Errorf("%s: %v allocs per query, want <= %v", c.name, got, c.max)
		}
	}
	if added, _ := hub.Log.Stats(); added < 100 {
		t.Errorf("query log took %d records, want every sampled query", added)
	}
}

// TestMixedCaseHitAllocs: a 0x20-cased question (letters in mixed case,
// as resolvers send to defeat spoofing) is lowered once per query, in
// Request.Name, however many layers ask for the name: a repeated cache
// hit for AlLoC.TeSt. with telemetry on allocates that one copy, where
// alloc.test. allocates nothing.
func TestMixedCaseHitAllocs(t *testing.T) {
	hub := telemetry.NewHub(vclock.NewReal())
	hub.SampleEvery = math.MaxInt
	chain := Chain(NewMetrics(), NewCache(vclock.NewReal()), pluginize(ecsAnswerHandler("192.0.2.9", 24)))
	st := &serveScratch{intern: dnswire.NewNameIntern(0)}
	client := netip.MustParseAddrPort("198.51.100.7:4242")
	for _, c := range []struct {
		name string
		max  float64
	}{{"alloc.test.", 0}, {"AlLoC.TeSt.", 1}} {
		q := new(dnswire.Message)
		q.Questions = []dnswire.Question{{Name: c.name, Type: dnswire.TypeA, Class: dnswire.ClassINET}}
		pkt, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		serve := func() {
			buf, _ := serveQuery(context.Background(), chain, hub, st, pkt, client, "udp", maxUDPPayload)
			if buf == nil {
				t.Fatal("no reply")
			}
			dnswire.PutBuffer(buf)
		}
		serve() // the miss that fills the cache
		got := testing.AllocsPerRun(100, serve)
		switch {
		case racecheck.Enabled:
			t.Logf("%s: %v allocs per hit under the race detector", c.name, got)
		case got > c.max:
			t.Errorf("%s: %v allocs per hit, want <= %v", c.name, got, c.max)
		}
	}
}

// TestHedgeStragglerCannotReachNextQuery: the losing exchange of a
// hedged pair outlives its query, and once the query has finished its
// span serves the next one. The straggler's upstream hop must not land
// there, while the finished query's record keeps the winning hop that
// classifies it as upstream. Run with -race: the straggler must not
// touch the recycled span or the context inside it either.
func TestHedgeStragglerCannotReachNextQuery(t *testing.T) {
	hub := telemetry.NewHub(vclock.NewReal())
	hub.SampleEvery = 1
	client := netip.MustParseAddrPort("198.51.100.7:4242")
	pack := func(name string) []byte {
		wire, err := queryFor(name).Msg.Pack()
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	st := &serveScratch{intern: dnswire.NewNameIntern(0)}
	serve := func(h Handler, name string) {
		buf, _ := serveQuery(context.Background(), h, hub, st, pack(name), client, "udp", maxUDPPayload)
		if buf == nil {
			t.Fatalf("%s: no reply", name)
		}
		dnswire.PutBuffer(buf)
	}

	// The pool does not promise the next query the same span (and under
	// -race drops some on purpose), so repeat until it was reused.
	reused := false
	for round := 0; round < 20 && !reused; round++ {
		tr := newScriptTransport()
		tr.answer[upA] = netip.MustParseAddr("203.0.113.1")
		tr.answer[upB] = netip.MustParseAddr("203.0.113.2")
		release := make(chan struct{})
		tr.hold[upA] = release
		fwd := Chain(&Forward{
			Upstreams:  []netip.AddrPort{upA, upB},
			Client:     scriptClient(tr),
			Clock:      &vclock.Fixed{},
			HedgeDelay: time.Millisecond,
		})
		before := runtime.NumGoroutine()

		var first *telemetry.Span
		serve(HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
			first = telemetry.FromContext(ctx)
			return fwd.ServeDNS(ctx, w, r)
		}), "hedged.test.")
		// The primary is still held; it answers while the next query,
		// likely on the same span, is in flight.
		serve(HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
			reused = telemetry.FromContext(ctx) == first
			close(release)
			waitFor(t, 2*time.Second, func() bool { return runtime.NumGoroutine() <= before })
			return answerHandler("192.0.2.1").ServeDNS(ctx, w, r)
		}), "next.test.")

		recs := hub.Log.Drain()
		if len(recs) != 2 {
			t.Fatalf("round %d: %d records, want 2", round, len(recs))
		}
		hedged, next := recs[0], recs[1]
		want := []telemetry.HopRecord{
			{Layer: "upstream", Note: upB.String()},
			{Layer: "forward", Note: "hedge:" + upB.String()},
		}
		if hedged.Path != telemetry.PathUpstream || len(hedged.Hops) != len(want) {
			t.Fatalf("round %d: hedged query path %q, hops %+v; want upstream with %+v", round, hedged.Path, hedged.Hops, want)
		}
		for i, h := range hedged.Hops {
			if h.Layer != want[i].Layer || h.Note != want[i].Note {
				t.Errorf("round %d: hedged query hop %d = %+v, want %+v", round, i, h, want[i])
			}
		}
		if next.Path != telemetry.PathEdge || len(next.Hops) != 0 {
			t.Fatalf("round %d (span reused: %v): next query path %q, hops %+v; want edge and none",
				round, reused, next.Path, next.Hops)
		}
	}
	if !reused {
		t.Error("no round reused the finished query's span")
	}
}

// slowPlugin delays every query, simulating a resolution in flight
// while the server drains. It waits on something other than the CPU,
// so like Forward it says so first.
type slowPlugin struct{ delay time.Duration }

func (p *slowPlugin) Name() string { return "slow" }
func (p *slowPlugin) ServeDNS(ctx context.Context, w ResponseWriter, r *Request, next Handler) (dnswire.Rcode, error) {
	if !r.mayWait() {
		return dnswire.RcodeServerFailure, errIngressFull
	}
	time.Sleep(p.delay)
	return next.ServeDNS(ctx, w, r)
}

func TestGracefulDrainWaitsForInflight(t *testing.T) {
	z := NewZone("drain.test.")
	if err := z.AddA("www.drain.test.", 60, netip.MustParseAddr("192.0.2.77")); err != nil {
		t.Fatal(err)
	}
	srv := &Server{
		Addr:      "127.0.0.1:0",
		Handler:   Chain(&slowPlugin{delay: 150 * time.Millisecond}, NewZonePlugin(z)),
		Telemetry: telemetry.NewHub(nil),
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}

	type result struct {
		resp *dnswire.Message
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := realClient().Query(context.Background(), srv.LocalAddr(), "www.drain.test.", dnswire.TypeA)
		got <- result{resp, err}
	}()

	// Let the query land in the handler, then drain.
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	if !srv.Draining() {
		t.Error("Draining() false after Shutdown")
	}

	// The in-flight query still got its answer.
	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight query lost during drain: %v", r.err)
	}
	if len(r.resp.Answers) != 1 {
		t.Errorf("in-flight answers = %v", r.resp.Answers)
	}

	// New queries are refused service now.
	c := realClient()
	c.Timeout = 200 * time.Millisecond
	if _, err := c.Query(context.Background(), srv.LocalAddr(), "www.drain.test.", dnswire.TypeA); err == nil {
		t.Error("query answered after drain completed")
	}
}

func TestGracefulDrainDeadline(t *testing.T) {
	z := NewZone("drain.test.")
	if err := z.AddA("www.drain.test.", 60, netip.MustParseAddr("192.0.2.77")); err != nil {
		t.Fatal(err)
	}
	srv := &Server{
		Addr:    "127.0.0.1:0",
		Handler: Chain(&slowPlugin{delay: 2 * time.Second}, NewZonePlugin(z)),
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		c := realClient()
		c.Timeout = 3 * time.Second
		_, err := c.Query(context.Background(), srv.LocalAddr(), "www.drain.test.", dnswire.TypeA)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Errorf("Shutdown = %v, want DeadlineExceeded", err)
	}
	<-done // unblock the client goroutine before the test exits
}
