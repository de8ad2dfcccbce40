package meccdn

// The benchmark harness: one benchmark per paper table and figure
// (regenerating the artifact end to end and reporting the headline
// metric), plus ablation benchmarks for the design choices called out
// in DESIGN.md §5. Run everything with:
//
//	go test -bench=. -benchmem
//
// Figure/table benchmarks measure the cost of regenerating the whole
// experiment in virtual time; custom metrics (…_ms, speedup_x, …)
// carry the scientific result so a bench run doubles as a results
// table.

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"slices"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/cdn"
	"github.com/meccdn/meccdn/internal/dnsclient"
	"github.com/meccdn/meccdn/internal/dnsserver"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/experiments"
	"github.com/meccdn/meccdn/internal/geoip"
	"github.com/meccdn/meccdn/internal/health"
	"github.com/meccdn/meccdn/internal/keyhash"
	"github.com/meccdn/meccdn/internal/lpm"
	"github.com/meccdn/meccdn/internal/lte"
	"github.com/meccdn/meccdn/internal/mesh"
	"github.com/meccdn/meccdn/internal/racecheck"
	"github.com/meccdn/meccdn/internal/simnet"
	"github.com/meccdn/meccdn/internal/stats"
	"github.com/meccdn/meccdn/internal/telemetry"
	"github.com/meccdn/meccdn/internal/vclock"
)

// --- Table 1 -------------------------------------------------------

func BenchmarkTable1Catalog(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rows := experiments.Table1(); len(rows) != 5 {
			b.Fatal("table 1 wrong")
		}
	}
}

// --- Figure 2 ------------------------------------------------------

func BenchmarkFigure2(b *testing.B) {
	b.ReportAllocs()
	var last *experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure2(experiments.Fig2Config{Seed: int64(i), Runs: 12})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	// Report the headline contrast: cellular vs wired mean over all
	// domains.
	var wired, cell time.Duration
	for _, row := range last.Cells {
		wired += row[0].Bar.Mean
		cell += row[2].Bar.Mean
	}
	b.ReportMetric(stats.Ms(wired)/5, "wired_ms")
	b.ReportMetric(stats.Ms(cell)/5, "cellular_ms")
}

// --- Figure 3 ------------------------------------------------------

func BenchmarkFigure3(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 5 ------------------------------------------------------

func benchFigure5(b *testing.B, air lte.AirProfile) {
	b.ReportAllocs()
	var last *experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5(experiments.Fig5Config{Seed: int64(i), Runs: 12, Air: air})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, row := range last.Rows {
		if row.Key == experiments.ScenarioMECMEC {
			b.ReportMetric(stats.Ms(row.Bar.Mean), "mec_ms")
		}
		if row.Key == experiments.ScenarioCloudflare {
			b.ReportMetric(stats.Ms(row.Bar.Mean), "cloudflare_ms")
		}
	}
	b.ReportMetric(last.Speedup(), "speedup_x")
}

func BenchmarkFigure5LTE(b *testing.B) { benchFigure5(b, lte.LTE4G()) }
func BenchmarkFigure55G(b *testing.B)  { benchFigure5(b, lte.NR5G()) }

// --- §4 ECS --------------------------------------------------------

func BenchmarkECS(b *testing.B) {
	b.ReportAllocs()
	var last *experiments.ECSResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.ECS(experiments.Fig5Config{Seed: int64(i), Runs: 12})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Rows[0].Ratio, "mec_ecs_ratio")
}

// --- Extensions ----------------------------------------------------

func BenchmarkFallbackPolicy(b *testing.B) {
	b.ReportAllocs()
	var last *experiments.FallbackResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fallback(int64(i), 8)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.MECAdvantage, "mec_advantage_x")
}

func BenchmarkDisaggregation(b *testing.B) {
	b.ReportAllocs()
	var last *experiments.DisaggregationResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.Disaggregation(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(100*last.Consolidated, "contentaware_hit_pct")
	b.ReportMetric(100*last.Spread, "roundrobin_hit_pct")
}

func BenchmarkIPReuse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.IPReuse(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadShed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.LoadShed(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBudgetSweep(b *testing.B) {
	b.ReportAllocs()
	var last *experiments.SweepResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.BudgetSweep(experiments.SweepConfig{Seed: int64(i), Runs: 8})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(stats.Ms(last.Crossover), "crossover_oneway_ms")
}

// --- Ablation: L-DNS response cache --------------------------------

func benchmarkResolution(b *testing.B, withCache bool) {
	b.ReportAllocs()
	net := simnet.New(1)
	net.AddNode("client")
	net.AddNode("ldns")
	net.AddNode("auth")
	net.AddLink("client", "ldns", simnet.Constant(time.Millisecond), 0)
	net.AddLink("ldns", "auth", simnet.Constant(20*time.Millisecond), 0)
	zone := dnsserver.NewZone("bench.test.")
	if err := zone.AddA("www.bench.test.", 3600, netip.MustParseAddr("192.0.2.1")); err != nil {
		b.Fatal(err)
	}
	dnsserver.Attach(net.Node("auth"), dnsserver.Chain(dnsserver.NewZonePlugin(zone)), nil, nil)
	up := &dnsclient.Client{Transport: &dnsclient.SimTransport{Endpoint: net.Node("ldns").Endpoint()}}
	up.SetRand(rand.New(rand.NewSource(2)))
	fwd := &dnsserver.Forward{Upstreams: []netip.AddrPort{netip.AddrPortFrom(net.Node("auth").Addr, 53)}, Client: up}
	var chain dnsserver.Handler
	if withCache {
		chain = dnsserver.Chain(dnsserver.NewCache(net.Clock), fwd)
	} else {
		chain = dnsserver.Chain(fwd)
	}
	dnsserver.Attach(net.Node("ldns"), chain, nil, nil)
	client := &dnsclient.Client{Transport: &dnsclient.SimTransport{Endpoint: net.Node("client").Endpoint()}}
	client.SetRand(rand.New(rand.NewSource(3)))
	ldns := netip.AddrPortFrom(net.Node("ldns").Addr, 53)

	var virtual time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := net.Now()
		if _, err := client.Query(context.Background(), ldns, "www.bench.test.", dnswire.TypeA); err != nil {
			b.Fatal(err)
		}
		virtual += net.Now() - start
	}
	b.ReportMetric(stats.Ms(virtual)/float64(b.N), "virtual_ms/query")
}

func BenchmarkResolverCacheOff(b *testing.B) { benchmarkResolution(b, false) }
func BenchmarkResolverCacheOn(b *testing.B)  { benchmarkResolution(b, true) }

// --- Ablation: C-DNS selection policy ------------------------------

func benchmarkRouterPolicy(b *testing.B, policy cdn.SelectionPolicy) {
	b.ReportAllocs()
	net := simnet.New(4)
	net.AddNode("hub")
	router := cdn.NewRouter("bench.test.")
	router.Policy = policy
	router.Replicas = 4
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("cache-%d", i)
		net.AddNode(name)
		net.AddLink("hub", name, simnet.Constant(time.Millisecond), 0)
		s := cdn.NewCacheServer(net.Node(name), cdn.CacheServerConfig{Name: name, CapacityBytes: 1 << 20})
		router.AddServer(s, geoip.Location{X: float64(i)})
	}
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("obj-%d.bench.test.", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if router.Route(keys[i%len(keys)], cdn.ClientInfo{}) == nil {
			b.Fatal("no route")
		}
	}
}

func BenchmarkRouterPolicyAvailability(b *testing.B) {
	b.ReportAllocs()
	benchmarkRouterPolicy(b, cdn.AvailabilityFirst{})
}
func BenchmarkRouterPolicyRoundRobin(b *testing.B)  { benchmarkRouterPolicy(b, &cdn.RoundRobin{}) }
func BenchmarkRouterPolicyLeastLoaded(b *testing.B) { benchmarkRouterPolicy(b, cdn.LeastLoaded{}) }

// BenchmarkRouterWithRegistry measures the Route hot path with the
// health registry attached: candidate filtering consults the
// hysteresis state machine instead of only the static healthy flag. Contrast with
// BenchmarkRouterPolicyAvailability, the registry-free baseline.
func BenchmarkRouterWithRegistry(b *testing.B) {
	b.ReportAllocs()
	net := simnet.New(4)
	net.AddNode("hub")
	router := cdn.NewRouter("bench.test.")
	router.Replicas = 4
	reg := health.New(health.Config{DownAfter: 3, UpAfter: 2, MinDwell: -1, Clock: &vclock.Fixed{}})
	router.UseHealth(reg)
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("cache-%d", i)
		net.AddNode(name)
		net.AddLink("hub", name, simnet.Constant(time.Millisecond), 0)
		s := cdn.NewCacheServer(net.Node(name), cdn.CacheServerConfig{Name: name, CapacityBytes: 1 << 20})
		router.AddServer(s, geoip.Location{X: float64(i)})
	}
	// One probe sweep admits the fleet from probing into the ring.
	checker := &health.Checker{Registry: reg, Prober: &cdn.CacheProber{Endpoint: net.Node("hub").Endpoint()}}
	checker.RunOnce(context.Background())
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("obj-%d.bench.test.", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if router.Route(keys[i%len(keys)], cdn.ClientInfo{}) == nil {
			b.Fatal("no route")
		}
	}
}

// --- Ablation: placement scheme ------------------------------------

// BenchmarkRingOwners is the zero-alloc gate on the ring's owner walk:
// OwnersAppend into a caller-owned backing array must not touch the
// heap. BenchmarkRingOwnersBounded measures the bounded-load variant
// (load sum + cap check + spill walk) against it; the acceptance bar
// is < 2× the plain walk.
func BenchmarkRingOwners(b *testing.B) {
	b.ReportAllocs()
	ring := cdn.NewHashRing()
	for i := 0; i < 16; i++ {
		ring.Add(fmt.Sprintf("server-%d", i))
	}
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	var buf [8]string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		owners := ring.OwnersAppend(buf[:0], keys[i%len(keys)], 2)
		if len(owners) != 2 {
			b.Fatal("short owner walk")
		}
		// Router.Route records the routing decision in both plain and
		// bounded modes; charge it to both benchmarks for a fair delta.
		ring.RecordLoad(owners[0])
		if i%256 == 255 {
			ring.DecayLoads(0.5)
		}
	}
}

func BenchmarkRingOwnersBounded(b *testing.B) {
	b.ReportAllocs()
	ring := cdn.NewHashRing()
	ring.Bounded = true
	for i := 0; i < 16; i++ {
		ring.Add(fmt.Sprintf("server-%d", i))
	}
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	var buf [8]string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		owners := ring.OwnersAppend(buf[:0], keys[i%len(keys)], 2)
		if len(owners) != 2 {
			b.Fatal("short owner walk")
		}
		ring.RecordLoad(owners[0])
		if i%256 == 255 {
			// The documented operating regime: loads decay on a fixed
			// cadence (dnsd ties it to the probe sweep), keeping the
			// counters a recent-traffic window rather than letting the
			// ring pack itself to the cap and degenerate into long
			// spill walks.
			ring.DecayLoads(0.5)
		}
	}
	b.ReportMetric(float64(ring.Spills())/float64(b.N), "spills/op")
	b.ReportMetric(float64(ring.CapRejections())/float64(b.N), "rejects/op")
}

// moduloPlacement is the baseline the ring is measured against: key →
// member by hash modulo the member count, over the sorted member list.
type moduloPlacement []string

func (m *moduloPlacement) add(member string) {
	if i, found := slices.BinarySearch(*m, member); !found {
		*m = slices.Insert(*m, i, member)
	}
}

func (m *moduloPlacement) remove(member string) {
	if i, found := slices.BinarySearch(*m, member); found {
		*m = slices.Delete(*m, i, i+1)
	}
}

func (m *moduloPlacement) owner(key string) string {
	return (*m)[keyhash.Sum64(key)%uint64(len(*m))]
}

func BenchmarkPlacementHashRing(b *testing.B) {
	b.ReportAllocs()
	ring := cdn.NewHashRing()
	for i := 0; i < 16; i++ {
		ring.Add(fmt.Sprintf("server-%d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ring.Owner(fmt.Sprintf("key-%d", i%1024)) == "" {
			b.Fatal("no owner")
		}
	}
}

func BenchmarkPlacementModulo(b *testing.B) {
	b.ReportAllocs()
	var m moduloPlacement
	for i := 0; i < 16; i++ {
		m.add(fmt.Sprintf("server-%d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.owner(fmt.Sprintf("key-%d", i%1024)) == "" {
			b.Fatal("no owner")
		}
	}
}

// BenchmarkPlacementDisruption reports how many of 10k keys move when
// one of 16 servers leaves — the scientific contrast between the two
// schemes.
func BenchmarkPlacementDisruption(b *testing.B) {
	b.ReportAllocs()
	const keys = 10_000
	moved := func(owner func(string) string, remove func()) float64 {
		before := make(map[string]string, keys)
		for i := 0; i < keys; i++ {
			k := fmt.Sprintf("key-%d", i)
			before[k] = owner(k)
		}
		remove()
		n := 0
		for k, prev := range before {
			if prev != "server-3" && owner(k) != prev {
				n++
			}
		}
		return 100 * float64(n) / keys
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ring := cdn.NewHashRing()
		var mod moduloPlacement
		for j := 0; j < 16; j++ {
			ring.Add(fmt.Sprintf("server-%d", j))
			mod.add(fmt.Sprintf("server-%d", j))
		}
		ringMoved := moved(ring.Owner, func() { ring.Remove("server-3") })
		modMoved := moved(mod.owner, func() { mod.remove("server-3") })
		if i == b.N-1 {
			b.ReportMetric(ringMoved, "ring_moved_pct")
			b.ReportMetric(modMoved, "modulo_moved_pct")
		}
	}
}

// --- Ablation: simnet event queue ----------------------------------

func BenchmarkSimnetEventQueue(b *testing.B) {
	b.ReportAllocs()
	var clock simnet.Clock
	rng := rand.New(rand.NewSource(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock.Schedule(time.Duration(rng.Intn(1_000_000)), func() {})
		if i%1024 == 1023 {
			clock.RunUntil(clock.Now() + time.Millisecond)
		}
	}
	clock.RunUntil(clock.Now() + time.Millisecond)
}

func BenchmarkSimnetExchange(b *testing.B) {
	b.ReportAllocs()
	net := simnet.New(6)
	net.AddNode("a")
	net.AddNode("b")
	net.AddLink("a", "b", simnet.Constant(time.Millisecond), 0)
	net.Node("b").SetHandler(simnet.HandlerFunc(func(ctx *simnet.Ctx, dg simnet.Datagram) {
		ctx.Reply(dg.Payload, 0)
	}))
	ep := net.Node("a").Endpoint()
	dst := net.Node("b").Addr
	payload := []byte("benchmark")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ep.Exchange(dst, payload, time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: content LRU ------------------------------------------

func BenchmarkLRUContentCache(b *testing.B) {
	b.ReportAllocs()
	lru := cdn.NewLRU(64 << 20)
	for i := 0; i < 1024; i++ {
		lru.Put(cdn.Content{Name: fmt.Sprintf("obj-%d", i), Size: 32 << 10})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lru.Get(fmt.Sprintf("obj-%d", i%2048)) // 50% hit mix
	}
}

// BenchmarkServeUDPHit measures the end-to-end cache-hit serve path
// over a real UDP socket: packet in, cache hit, packet out. This is
// the microsecond budget the paper's sub-20 ms edge-contained
// resolution leaves for resolver software, so the benchmark reports
// allocations. It runs with telemetry as dnsd deploys it — a hub
// sampling 1 in 16 queries into a 1024-entry log, Metrics first in the
// chain. What it allocates is the sampled queries' log records: two
// allocations per sampled query, which allocs/op rounds down to 0 and
// B/op shows.
func BenchmarkServeUDPHit(b *testing.B) {
	b.ReportAllocs()
	zone := dnsserver.NewZone("bench.test.")
	if err := zone.AddA("www.bench.test.", 3600, netip.MustParseAddr("192.0.2.1")); err != nil {
		b.Fatal(err)
	}
	hub := telemetry.NewHub(vclock.NewReal())
	hub.SampleEvery = 16
	hub.Log = telemetry.NewQueryLog(1024)
	cache := dnsserver.NewCache(vclock.NewReal())
	srv := &dnsserver.Server{
		Addr:      "127.0.0.1:0",
		Handler:   dnsserver.Chain(dnsserver.NewMetrics(), cache, dnsserver.NewZonePlugin(zone)),
		Telemetry: hub,
	}
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	q := new(dnswire.Message)
	q.SetQuestion("www.bench.test.", dnswire.TypeA)
	q.ID = 42
	wire, err := q.Pack()
	if err != nil {
		b.Fatal(err)
	}
	conn, err := net.Dial("udp", srv.LocalAddr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, dnswire.MaxMessageSize)
	exchange := func() []byte {
		if _, err := conn.Write(wire); err != nil {
			b.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := conn.Read(buf)
		if err != nil {
			b.Fatal(err)
		}
		return buf[:n]
	}
	exchange() // warm the cache: everything after this is a hit
	var resp dnswire.Message
	if err := resp.Unpack(exchange()); err != nil {
		b.Fatal(err)
	}
	if resp.Rcode != dnswire.RcodeSuccess || len(resp.Answers) != 1 {
		b.Fatalf("warm-up response: %v", &resp)
	}

	// A strict ping-pong would measure the loopback round trip (several
	// µs of scheduler and socket wake-up latency per query), not the
	// serve cost. Instead the timed loop keeps a window of queries in
	// flight — the regime the batched ingress is built for. The client
	// pays one syscall per datagram, so compare runs only against the
	// same host.
	const window = 32
	b.ResetTimer()
	for done := 0; done < b.N; {
		k := window
		if b.N-done < k {
			k = b.N - done
		}
		for i := 0; i < k; i++ {
			if _, err := conn.Write(wire); err != nil {
				b.Fatal(err)
			}
		}
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		for i := 0; i < k; i++ {
			if _, err := conn.Read(buf); err != nil {
				b.Fatal(err)
			}
		}
		done += k
	}
	b.StopTimer()
	if st := cache.Stats(); st.Hits == 0 {
		b.Fatal("no cache hits recorded")
	}
}

// BenchmarkStubExchange measures the paper's P2 hop, the one path a
// MEC L-DNS miss takes: never-repeated ECS names through Cache → Stub →
// a loopback UDP exchange → the C-DNS's Metrics → cdn.Router, and the
// answer back into the cache. The L-DNS half runs in-process, the way an
// ingress serves: each query, packed before the timer, is parsed into a
// scratch message and run through ResolveTo into a writer that takes
// the reply image. So what is timed and counted is the servers' work —
// the miss path and the upstream exchange — not a client's, and no
// decode the production path does not make. dials/op is the transport's
// sockets opened per query: 1 when every exchange dials, about 0 when
// sockets are kept.
func BenchmarkStubExchange(b *testing.B) {
	b.ReportAllocs()
	s := newStubSite(b)
	s.ask(b, stubQueries(b, -1, 1)[0]) // the first exchange's dial is set-up, not steady state
	queries := stubQueries(b, 0, b.N)
	dialed := s.transport.Stats().Dialed
	b.ResetTimer()
	for _, q := range queries {
		s.ask(b, q)
	}
	b.StopTimer()
	b.ReportMetric(float64(s.transport.Stats().Dialed-dialed)/float64(b.N), "dials/op")
	if st := s.cache.Stats(); st.Hits != 0 || st.Misses != uint64(b.N)+1 {
		b.Fatalf("cache stats %+v: every query should miss", st)
	}
}

// stubSite is what BenchmarkStubExchange drives: an L-DNS chain whose
// stub hands the CDN domain to a C-DNS on a loopback socket, and the
// state an ingress serves the L-DNS with.
type stubSite struct {
	ldns      dnsserver.Handler
	transport *dnsclient.NetTransport
	cache     *dnsserver.Cache

	msg    dnswire.Message // the scratch a query is parsed into
	intern *dnswire.NameIntern
	req    dnsserver.Request
	reply  imageWriter
}

const stubDomain = "cdn.bench.test."

func newStubSite(tb testing.TB) *stubSite {
	sim := simnet.New(4)
	sim.AddNode("hub")
	router := cdn.NewRouter(stubDomain)
	router.TTL = 300
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("cache-%d", i)
		sim.AddNode(name)
		sim.AddLink("hub", name, simnet.Constant(time.Millisecond), 0)
		s := cdn.NewCacheServer(sim.Node(name), cdn.CacheServerConfig{Name: name, CapacityBytes: 1 << 20})
		router.AddServer(s, geoip.Location{X: float64(i)})
	}
	cdns := &dnsserver.Server{Addr: "127.0.0.1:0", Handler: dnsserver.Chain(dnsserver.NewMetrics(), router)}
	if err := cdns.Start(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cdns.Close() })

	s := &stubSite{transport: &dnsclient.NetTransport{}, intern: dnswire.NewNameIntern(0)}
	tb.Cleanup(func() { s.transport.Close() })
	stub := dnsserver.NewStub(&dnsclient.Client{Transport: s.transport, Timeout: 3 * time.Second, Retries: 1})
	stub.Route(stubDomain, cdns.LocalAddr())
	s.cache = dnsserver.NewCache(vclock.NewReal())
	s.cache.MaxEntries = 4096
	s.ldns = dnsserver.Chain(s.cache, stub)
	return s
}

// stubQueries packs n never-repeated ECS queries, the first for name
// number first.
func stubQueries(tb testing.TB, first, n int) [][]byte {
	queries := make([][]byte, n)
	for j := range queries {
		i := first + j
		q := new(dnswire.Message)
		q.SetQuestion(fmt.Sprintf("obj-%d.%s", i, stubDomain), dnswire.TypeA)
		subnet := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), 0}), 24)
		q.SetEDNS(1232).Options = []dnswire.EDNSOption{dnswire.NewECSOption(subnet)}
		var err error
		if queries[j], err = q.Pack(); err != nil {
			tb.Fatal(err)
		}
	}
	return queries
}

// ask serves the packed query pkt through the L-DNS as an ingress does,
// and checks the reply on its bytes: NOERROR with an answer.
func (s *stubSite) ask(tb testing.TB, pkt []byte) {
	if err := s.msg.UnpackQuery(pkt, s.intern); err != nil {
		tb.Fatal(err)
	}
	s.req = dnsserver.Request{Msg: &s.msg, Client: netip.MustParseAddrPort("198.51.100.7:4242"), Transport: "bench"}
	rcode := dnsserver.ResolveTo(context.Background(), s.ldns, &s.reply, &s.req)
	if rcode != dnswire.RcodeSuccess || s.reply.buf == nil || binary.BigEndian.Uint16(s.reply.buf[6:]) == 0 {
		tb.Fatalf("%s: rcode %v, reply % x", s.msg.Question().Name, rcode, s.reply.buf[:s.reply.n])
	}
	s.reply.release()
}

// imageWriter is the ingresses' kind of reply writer: it takes over the
// pooled buffer a reply image is in, so nothing is decoded on its way.
type imageWriter struct {
	buf []byte
	n   int
}

func (w *imageWriter) WriteMsg(m *dnswire.Message) error {
	buf := dnswire.GetBuffer()
	wire, err := m.AppendPack(buf[:0])
	if err != nil {
		dnswire.PutBuffer(buf)
		return err
	}
	return w.WriteWireOwned(buf, len(wire))
}
func (w *imageWriter) Written() bool { return w.buf != nil }
func (w *imageWriter) WriteWireOwned(buf []byte, n int) error {
	if w.buf != nil {
		dnswire.PutBuffer(buf)
		return nil
	}
	w.buf, w.n = buf, n
	return nil
}
func (w *imageWriter) release() {
	dnswire.PutBuffer(w.buf)
	*w = imageWriter{}
}

// TestStubExchangeAllocBudget holds the P2 hop to an allocation budget,
// counted the way BenchmarkStubExchange reports it: what the two servers
// allocate per never-repeated name, the C-DNS's goroutines included and
// the harness's query building not. 162 before the name codec was
// rewritten and the reply image relayed undecoded; 31 before the C-DNS
// answered in bytes and UnpackQuery reused its OPT; 13 before the miss
// kept its reply image in its flight, the flight made its channel only
// for a waiter, the entry shared the flight's key, the attempt deadline
// became a value, the compressor table was pooled and the router's
// candidates stayed on the stack; 6 before the cache's slab owned its
// entries' bytes and its flights were recycled; 2 before the intern
// table copied never-seen names into chunks it owns, one allocation for
// dozens of names; 0 since (AllocsPerRun rounds the chunks' share
// down). It is measured as the route-miss workload runs, with the cache
// full, so every store takes over the slot of an entry it evicts. Under
// the race detector, whose sync.Pool drops buffers on purpose, the
// ceiling is 5.
func TestStubExchangeAllocBudget(t *testing.T) {
	budget := 0.0
	if racecheck.Enabled {
		budget = 5
	}
	s := newStubSite(t)
	for _, q := range stubQueries(t, -s.cache.MaxEntries, s.cache.MaxEntries) {
		s.ask(t, q)
	}
	queries := stubQueries(t, 0, 2001) // AllocsPerRun's warm-up run takes one
	i := 0
	if allocs := testing.AllocsPerRun(2000, func() { s.ask(t, queries[i]); i++ }); allocs > budget {
		t.Errorf("a stub exchange allocates %v times, budget %v", allocs, budget)
	} else {
		t.Logf("a stub exchange allocates %v times", allocs)
	}
}

// benchmarkCacheParallel drives the message cache from GOMAXPROCS
// goroutines over a prepopulated working set (pure hit traffic after
// warm-up), contrasting the sharded layout against a single shard.
// The sharded variant should scale with -cpu while one shard
// serializes on its mutex. Each hit is served through ResolveTo into an
// imageWriter, as an ingress serves it: the patched image is handed
// over in its pooled buffer, and nothing is packed or decoded.
func benchmarkCacheParallel(b *testing.B, shards int) {
	b.ReportAllocs()
	clock := &vclock.Fixed{}
	cache := dnsserver.NewCache(clock)
	cache.MaxEntries = 1 << 14
	cache.Shards = shards
	backend := dnsserver.HandlerFunc(func(ctx context.Context, w dnsserver.ResponseWriter, r *dnsserver.Request) (dnswire.Rcode, error) {
		m := new(dnswire.Message)
		m.SetReply(r.Msg)
		m.Answers = []dnswire.RR{&dnswire.A{
			Hdr:  dnswire.RRHeader{Name: r.Name(), Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 300},
			Addr: netip.MustParseAddr("192.0.2.1"),
		}}
		return m.Rcode, w.WriteMsg(m)
	})
	chain := dnsserver.Chain(cache, benchPlugin{backend})

	const keys = 512
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("host-%d.bench.test.", i)
	}
	for _, name := range names { // warm the cache: steady state is all hits
		q := new(dnswire.Message)
		q.SetQuestion(name, dnswire.TypeA)
		dnsserver.Resolve(context.Background(), chain, &dnsserver.Request{Msg: q})
	}

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		reqs := make([]*dnsserver.Request, keys)
		for i := range reqs {
			q := new(dnswire.Message)
			q.SetQuestion(names[i], dnswire.TypeA)
			reqs[i] = &dnsserver.Request{Msg: q}
		}
		var w imageWriter
		i := 0
		for pb.Next() {
			rcode := dnsserver.ResolveTo(context.Background(), chain, &w, reqs[i%keys])
			if rcode != dnswire.RcodeSuccess || w.buf == nil {
				b.Fatal("bad rcode")
			}
			w.release()
			i++
		}
	})
	b.StopTimer()
	st := cache.Stats()
	b.ReportMetric(float64(st.Shards), "shards")
	if lookups := st.Hits + st.Misses + st.Expired; lookups > 0 {
		b.ReportMetric(100*float64(st.Hits)/float64(lookups), "hit_pct")
	}
}

func BenchmarkCacheParallel(b *testing.B)         { benchmarkCacheParallel(b, 0) } // default 16 shards
func BenchmarkCacheParallelOneShard(b *testing.B) { benchmarkCacheParallel(b, 1) }

// benchPlugin adapts a terminal handler as a plugin.
type benchPlugin struct{ h dnsserver.Handler }

func (p benchPlugin) Name() string { return "bench" }
func (p benchPlugin) ServeDNS(ctx context.Context, w dnsserver.ResponseWriter, r *dnsserver.Request, _ dnsserver.Handler) (dnswire.Rcode, error) {
	return p.h.ServeDNS(ctx, w, r)
}

// --- End-to-end MEC-CDN session -------------------------------------

func BenchmarkMECCDNResolve(b *testing.B) {
	b.ReportAllocs()
	tb := NewTestbed(TestbedConfig{Seed: 7})
	site, err := DeploySite(tb, SiteConfig{Domain: "mycdn.ciab.test."})
	if err != nil {
		b.Fatal(err)
	}
	ue := &UEClient{EP: tb.Net.Node(NodeUE).Endpoint(), MEC: site.LDNS}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ue.Resolve("video.demo1.mycdn.ciab.test."); err != nil {
			b.Fatal(err)
		}
	}
}

// lpmRoute is one row of a benchmark routing table.
type lpmRoute struct {
	prefix netip.Prefix
	pop    lpm.PoP
}

// randV4 and randV6 draw the LPM benchmarks' addresses: IPv4 anywhere,
// IPv6 under 2000::/8, out of the 4-in-6 mapping space.
func randV4(rng *rand.Rand) netip.Addr {
	var a [4]byte
	rng.Read(a[:])
	return netip.AddrFrom4(a)
}

func randV6(rng *rand.Rand) netip.Addr {
	var a [16]byte
	rng.Read(a[:])
	a[0] = 0x20
	return netip.AddrFrom16(a)
}

// benchLPMRoutes draws n random routes (3:1 IPv4:IPv6) from rng.
func benchLPMRoutes(b *testing.B, rng *rand.Rand, n int) []lpmRoute {
	b.Helper()
	routes := make([]lpmRoute, n)
	for i := range routes {
		var p netip.Prefix
		var err error
		if i%4 == 3 {
			p, err = randV6(rng).Prefix(32 + rng.Intn(33))
		} else {
			p, err = randV4(rng).Prefix(8 + rng.Intn(21))
		}
		if err != nil {
			b.Fatal(err)
		}
		routes[i] = lpmRoute{p, lpm.PoP(i)}
	}
	return routes
}

// benchLPMCells returns a per-cell-site table, the shape the repository
// benchmark routes by: a /16 row over each of the 512 /16s of
// 10.0.0.0/7, then /24 rows for n of its 131 072 /24s, in ascending
// address order. The PoPs come from rng.
func benchLPMCells(rng *rand.Rand, n int) []lpmRoute {
	const subnets = 1 << 17
	routes := make([]lpmRoute, 0, 512+n)
	for s := 0; s < subnets; s += 256 {
		a := netip.AddrFrom4([4]byte{10 + byte(s>>16), byte(s >> 8), 0, 0})
		routes = append(routes, lpmRoute{netip.PrefixFrom(a, 16), lpm.PoP(rng.Intn(16))})
	}
	for s := 0; s < subnets; s++ {
		// Multiplying by an odd constant permutes the residues mod
		// 2^17, so exactly n subnets pass.
		if (s*40503)&(subnets-1) >= n {
			continue
		}
		a := netip.AddrFrom4([4]byte{10 + byte(s>>16), byte(s >> 8), byte(s), 0})
		routes = append(routes, lpmRoute{netip.PrefixFrom(a, 24), lpm.PoP(rng.Intn(16))})
	}
	return routes
}

// buildLPM adds every route to a new Builder and builds the table.
func buildLPM(b *testing.B, routes []lpmRoute) *lpm.Table {
	b.Helper()
	bld := lpm.NewBuilder()
	for _, r := range routes {
		if err := bld.Add(r.prefix, r.pop); err != nil {
			b.Fatal(err)
		}
	}
	return bld.Build()
}

// benchLPMTable builds a deterministic routing table of n routes
// (3:1 IPv4:IPv6) plus a fixed probe set drawn from the same address
// distribution.
func benchLPMTable(b *testing.B, n int) (*lpm.Table, []netip.Addr) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	table := buildLPM(b, benchLPMRoutes(b, rng, n))
	probes := make([]netip.Addr, 1024)
	for i := range probes {
		if i%4 == 3 {
			probes[i] = randV6(rng)
		} else {
			probes[i] = randV4(rng)
		}
	}
	return table, probes
}

var benchPoPSink lpm.PoP

// benchmarkLPMLookup is the tentpole perf gate: Lookup must stay
// sub-microsecond and allocation-free at a million routes.
func benchmarkLPMLookup(b *testing.B, rows int) {
	table, probes := benchLPMTable(b, rows)
	b.ReportMetric(float64(table.Spans()), "spans")
	b.ReportAllocs()
	b.ResetTimer()
	var acc lpm.PoP
	for i := 0; i < b.N; i++ {
		pop, _, _ := table.Lookup(probes[i&1023])
		acc += pop
	}
	benchPoPSink = acc
}

func BenchmarkLPMLookup10k(b *testing.B)  { benchmarkLPMLookup(b, 10_000) }
func BenchmarkLPMLookup100k(b *testing.B) { benchmarkLPMLookup(b, 100_000) }
func BenchmarkLPMLookup1M(b *testing.B)   { benchmarkLPMLookup(b, 1_000_000) }

// BenchmarkLPMBuild times what a C-DNS spends on its route table at
// start-up and on every reload: a new Builder, every row added, Build.
// The rows are drawn before the timer starts.
func BenchmarkLPMBuild(b *testing.B) {
	for _, bc := range []struct {
		name   string
		routes func(b *testing.B, rng *rand.Rand) []lpmRoute
	}{
		{"Cells100k", func(b *testing.B, rng *rand.Rand) []lpmRoute { return benchLPMCells(rng, 100_000) }},
		{"Random100k", func(b *testing.B, rng *rand.Rand) []lpmRoute { return benchLPMRoutes(b, rng, 100_000) }},
		{"Random1M", func(b *testing.B, rng *rand.Rand) []lpmRoute { return benchLPMRoutes(b, rng, 1_000_000) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			routes := bc.routes(b, rand.New(rand.NewSource(7)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchTableSink = buildLPM(b, routes)
			}
		})
	}
}

var benchTableSink *lpm.Table

// BenchmarkRoutePeerLookup is the mesh read plane's gate: consulting
// the federated peer view on the miss path must be one atomic snapshot
// load — no locks, no allocations, ≤1µs — since it sits on the C-DNS
// serve path in front of the parent-tier fallback. Four peers each
// announce a 256-key digest; half the probed keys steer, half miss.
func BenchmarkRoutePeerLookup(b *testing.B) {
	b.ReportAllocs()
	agent := mesh.NewAgent(mesh.Config{Site: "local", Clock: &vclock.Fixed{}})
	for p := 0; p < 4; p++ {
		d := mesh.NewDigest(8192, 4)
		for i := 0; i < 256; i++ {
			d.Add(fmt.Sprintf("obj-%d-%d.bench.test.", p, i))
		}
		ann, err := mesh.EncodeAnnounce(fmt.Sprintf("peer-%d", p),
			fmt.Sprintf("10.8.0.%d", p+2), 1, d.Entries(), 0.1, d.Hashes(), d.Bitmap())
		if err != nil {
			b.Fatal(err)
		}
		agent.HandleDatagram(ann)
	}
	view := agent.View()
	keys := make([]string, 128)
	for i := range keys {
		if i%2 == 0 {
			keys[i] = fmt.Sprintf("obj-%d-%d.bench.test.", i%4, i)
		} else {
			keys[i] = fmt.Sprintf("cold-%d.bench.test.", i)
		}
	}
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := view.Lookup(keys[i%len(keys)]); ok {
			hits++
		}
	}
	b.StopTimer()
	if b.N >= len(keys) && hits == 0 {
		b.Fatal("no lookup ever steered")
	}
}
