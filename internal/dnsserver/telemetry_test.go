package dnsserver

import (
	"context"
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnswire"
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
	if hub.Path.Value(telemetry.PathUpstream) != 1 || hub.Path.Value(telemetry.PathCacheHit) != 1 {
		t.Errorf("path counts = %v", hub.Path.Snapshot())
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
				sp := hub.Begin(req.Name(), req.Type().String(), req.Transport, req.Client.String())
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
		"meccdn_dns_queries_total", "meccdn_dns_responses_total",
		"meccdn_dns_handler_duration_seconds_bucket", "meccdn_dns_cache_hits_total",
		"meccdn_dns_forward_queries_total", "meccdn_dns_loadshed_served_total",
	} {
		if !strings.Contains(b.String(), family) {
			t.Errorf("exposition missing %s", family)
		}
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
