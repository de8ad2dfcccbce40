package dnsd

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnsclient"
	"github.com/meccdn/meccdn/internal/dnsserver"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/mesh"
)

const loopback = "127.0.0.1:0"

// zoneText is a zone file with the given SOA serial and one A record.
func zoneText(serial, wwwAddr string) string {
	return "@ 3600 IN SOA ns hostmaster " + serial + " 7200 3600 1209600 300\nwww 60 IN A " + wwwAddr + "\n"
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func tempFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	writeFile(t, path, content)
	return path
}

func addrPorts(addrs ...string) []netip.AddrPort {
	out := make([]netip.AddrPort, len(addrs))
	for i, a := range addrs {
		out[i] = netip.MustParseAddrPort(a)
	}
	return out
}

func build(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	d, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// start starts d and shuts it down with the test.
func start(t *testing.T, d *Daemon) {
	t.Helper()
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Shutdown(context.Background()) })
}

// upstream starts an authoritative server for www.<origin> → addr, one
// zone per pair.
func upstream(t *testing.T, originAddr ...string) netip.AddrPort {
	t.Helper()
	zones := dnsserver.NewZonePlugin()
	for i := 0; i < len(originAddr); i += 2 {
		zone := dnsserver.NewZone(originAddr[i])
		if err := zone.AddA("www."+originAddr[i], 60, netip.MustParseAddr(originAddr[i+1])); err != nil {
			t.Fatal(err)
		}
		zones.AddZone(zone)
	}
	srv := &dnsserver.Server{Addr: loopback, Handler: dnsserver.Chain(zones)}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.LocalAddr()
}

// lookup returns the addresses of a successful A answer from d.
func lookup(t *testing.T, d *Daemon, name string) []string {
	t.Helper()
	client := &dnsclient.Client{Transport: &dnsclient.NetTransport{}, Timeout: 2 * time.Second}
	resp, err := client.Query(context.Background(), d.Server.LocalAddr(), name, dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for _, rr := range resp.Answers {
		addrs = append(addrs, rr.(*dnswire.A).Addr.String())
	}
	return addrs
}

func wantAnswer(t *testing.T, d *Daemon, name, addr string) {
	t.Helper()
	if got := lookup(t, d, name); !reflect.DeepEqual(got, []string{addr}) {
		t.Errorf("%s answers = %v, want [%s]", name, got, addr)
	}
}

// httpDo returns the status and body of one admin request.
func httpDo(t *testing.T, method string, d *Daemon, path string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, "http://"+d.Admin.LocalAddr().String()+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func TestBuildAndServe(t *testing.T) {
	zonePath := tempFile(t, "test.zone", zoneText("1", "192.0.2.88"))
	d := build(t, Config{Listen: loopback, Zones: []ZoneFile{{"dnsd.test.", zonePath}}})
	start(t, d)
	wantAnswer(t, d, "www.dnsd.test.", "192.0.2.88")
	if d.Metrics.Total() != 1 {
		t.Errorf("metrics total = %d", d.Metrics.Total())
	}
}

func TestBuildStubAndForward(t *testing.T) {
	// One upstream server that the stub and the forward both point at.
	up := upstream(t, "up.test.", "192.0.2.44", "cdn.test.", "192.0.2.55")
	d := build(t, Config{Listen: loopback, Forward: up.String(), Stubs: []StubRoute{{"cdn.test.", []netip.AddrPort{up}}}})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	wantAnswer(t, d, "www.cdn.test.", "192.0.2.55") // stub domain
	wantAnswer(t, d, "www.up.test.", "192.0.2.44")  // forwarded name

	// Both misses went to one upstream, one after the other, on one
	// kept socket; the registry exports the pool, and the drain closes
	// what is idle.
	if st := d.Upstream.Stats(); st.Dialed != 1 || st.Reused != 1 || st.Idle != 1 {
		t.Errorf("upstream sockets after two misses = %+v, want 1 dialed, 1 reused, 1 idle", st)
	}
	var metrics strings.Builder
	if err := d.Hub.Registry.WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`meccdn_dns_upstream_sockets_total{result="dialed"} 1`,
		`meccdn_dns_upstream_sockets_total{result="reused"} 1`,
		"meccdn_dns_upstream_sockets_idle 1",
	} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if st := d.Upstream.Stats(); st.Idle != 0 || st.Discarded != 1 {
		t.Errorf("upstream sockets after shutdown = %+v, want none idle", st)
	}
}

func TestBuildHotPathConfig(t *testing.T) {
	zones := []ZoneFile{{"dnsd.test.", tempFile(t, "test.zone", zoneText("1", "192.0.2.88"))}}
	d := build(t, Config{Listen: loopback, Zones: zones, Sockets: 3, MaxConns: 7, PrefetchFrac: 0.25, MaxStale: time.Minute})
	if d.Server.Sockets != 3 || d.Server.MaxConns != 7 {
		t.Errorf("server sockets/maxConns = %d/%d, want 3/7", d.Server.Sockets, d.Server.MaxConns)
	}
	if d.Cache.PrefetchFrac != 0.25 || d.Cache.MaxStale != time.Minute {
		t.Errorf("cache prefetch/maxStale = %v/%v, want 0.25/1m", d.Cache.PrefetchFrac, d.Cache.MaxStale)
	}
	// Prefetches must drain with the server, and -sockets 0 must
	// follow GOMAXPROCS.
	if d.Cache.Background != dnsserver.BackgroundTracker(d.Server) {
		t.Error("cache.Background not wired to the server")
	}
	if d2 := build(t, Config{Listen: loopback, Zones: zones}); d2.Server.Sockets != runtime.GOMAXPROCS(0) {
		t.Errorf("default sockets = %d, want GOMAXPROCS", d2.Server.Sockets)
	}
}

func TestBuildHealthConfig(t *testing.T) {
	// -probe-interval builds the registry over the union of forward and
	// stub upstreams (deduplicated) and wires it into the checker and the
	// admin /health view; TestStubUpstreamsAreProbeOrdered covers the
	// pickers.
	d := build(t, Config{
		Listen:        loopback,
		Forward:       "192.0.2.10:53,192.0.2.11:53",
		Stubs:         []StubRoute{{"cdn.test.", addrPorts("192.0.2.11:53", "192.0.2.12:53")}},
		Admin:         loopback,
		ProbeInterval: 250 * time.Millisecond,
		DownAfter:     2,
		UpAfter:       1,
		LoadHigh:      0.8,
	})
	if d.Health == nil || d.checker == nil {
		t.Fatal("health registry/checker not built")
	}
	if got := len(d.Health.Targets()); got != 3 {
		t.Errorf("probe targets = %d, want 3 (deduplicated union)", got)
	}
	hc := d.Health.Config()
	if hc.ProbeInterval != 250*time.Millisecond || hc.DownAfter != 2 || hc.UpAfter != 1 || hc.LoadHigh != 0.8 {
		t.Errorf("health config = %+v", hc)
	}
	if d.Forward.Health != d.Health {
		t.Error("main forwarder not probe-ordered")
	}
	if d.Admin.Health == nil {
		t.Error("admin /health view not wired")
	}
	if d.checker.Background != dnsserver.BackgroundTracker(d.Server) {
		t.Error("checker not drain-gated by the server")
	}

	// Probing stays off without the flag, and without any upstreams.
	if d2 := build(t, Config{Listen: loopback, Forward: "192.0.2.10:53"}); d2.Health != nil || d2.checker != nil {
		t.Error("health built without -probe-interval")
	}
	if d3 := build(t, Config{Listen: loopback, ProbeInterval: time.Second}); d3.Health != nil {
		t.Error("health built with no upstreams to probe")
	}
}

// TestBuildRejects: what a typed Config can still get wrong. (The
// malformed k=v forms are refused at flag parsing; cmd/dnsd tests
// those.)
func TestBuildRejects(t *testing.T) {
	pop := []PoPAddr{{1, netip.MustParseAddr("192.0.2.1")}}
	for name, cfg := range map[string]Config{
		"missing zone file":                {Zones: []ZoneFile{{"z.test.", "/no/such/file"}}},
		"bad -forward":                     {Forward: "notanaddr"},
		"-routes without -cdn-domain":      {Routes: "whatever"},
		"-pop without -cdn-domain":         {PoPs: pop},
		"missing routes file":              {CDNDomain: "d.test.", Routes: "/no/such/file"},
		"-ring-bounded without cdn-domain": {RingBounded: true},
		"-ring-load-factor 1.0":            {CDNDomain: "d.test.", RingBounded: true, RingLoadFactor: 1.0},
		"-mesh without -cdn-domain":        {Mesh: loopback},
		"-peers without -mesh":             {Peers: []mesh.Peer{{Name: "b", Addr: "127.0.0.1:9953"}}},
	} {
		cfg.Listen = ":0"
		if _, err := Build(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestBuildCDNRouter(t *testing.T) {
	routesPath := tempFile(t, "routes.txt", "# loopback clients route to PoP 1\n127.0.0.0/8 1\n10.0.0.0/8 2\n")
	d := build(t, Config{
		Listen:    loopback,
		CDNDomain: "mycdn.dnsd.test.",
		Routes:    routesPath,
		PoPs:      []PoPAddr{{1, netip.MustParseAddr("192.0.2.201")}, {2, netip.MustParseAddr("192.0.2.202")}},
	})
	if d.Router == nil {
		t.Fatal("no router built")
	}
	if rows := d.Router.Routes().Rows(); rows != 2 {
		t.Fatalf("route rows = %d, want 2", rows)
	}
	start(t, d)
	// A real UDP query from loopback: no ECS, so the router falls back
	// to the source address, which the routes file maps to PoP 1.
	wantAnswer(t, d, "video.mycdn.dnsd.test.", "192.0.2.201")
}

func TestBuildRingFlags(t *testing.T) {
	d := build(t, Config{Listen: loopback, CDNDomain: "mycdn.dnsd.test.", RingBounded: true, RingLoadFactor: 1.5})
	if !d.Router.Ring.Bounded {
		t.Error("-ring-bounded not plumbed into the ring")
	}
	if d.Router.Ring.LoadFactor != 1.5 {
		t.Errorf("-ring-load-factor = %v, want 1.5", d.Router.Ring.LoadFactor)
	}
	// With probing enabled too, the sweep hook decays the ring loads.
	d2 := build(t, Config{
		Listen:         loopback,
		Forward:        "192.0.2.10:53",
		ProbeInterval:  time.Second,
		CDNDomain:      "mycdn.dnsd.test.",
		RingBounded:    true,
		RingLoadFactor: 1.25,
	})
	if d2.checker == nil || d2.checker.OnSweep == nil {
		t.Fatal("ring decay not hooked to the probe sweep")
	}
	d2.Router.Ring.Add("cache-x")
	d2.Router.Ring.RecordLoad("cache-x")
	d2.Router.Ring.RecordLoad("cache-x")
	d2.checker.OnSweep()
	if got := d2.Router.Ring.Load("cache-x"); got != 1 {
		t.Errorf("load after one sweep = %d, want 1 (decay 0.5)", got)
	}
}

// TestReloadUnderLoad drives the online-reload path end to end: zone
// file rewritten on disk, swapped in via Reload (the SIGHUP path) and
// via the admin /reload endpoint, while concurrent clients resolve
// against the server the whole time. No query may drop or fail across
// the swaps.
func TestReloadUnderLoad(t *testing.T) {
	zonePath := tempFile(t, "test.zone", zoneText("1", "192.0.2.88"))
	d := build(t, Config{Listen: loopback, Admin: loopback, Zones: []ZoneFile{{"dnsd.test.", zonePath}}})
	if d.Admin.Reload == nil {
		t.Fatal("a file-backed zone is not reloadable over /reload")
	}
	start(t, d)

	// Continuous query load across every swap below.
	var (
		stop     atomic.Bool
		dropped  atomic.Uint64
		resolved atomic.Uint64
		wg       sync.WaitGroup
	)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &dnsclient.Client{Transport: &dnsclient.NetTransport{}, Timeout: 2 * time.Second}
			for !stop.Load() {
				resp, err := client.Query(context.Background(), d.Server.LocalAddr(), "www.dnsd.test.", dnswire.TypeA)
				if err != nil || resp.Rcode != dnswire.RcodeSuccess || len(resp.Answers) == 0 {
					dropped.Add(1)
					continue
				}
				resolved.Add(1)
			}
		}()
	}

	// SIGHUP path: rewrite the file and call Reload, as cmd/dnsd does.
	writeFile(t, zonePath, zoneText("2", "192.0.2.99")+"v2  60 IN A 192.0.2.2\n")
	if err := d.Reload(); err != nil {
		t.Fatal(err)
	}
	wantAnswer(t, d, "www.dnsd.test.", "192.0.2.99")

	// Admin path: rewrite again and POST /reload.
	writeFile(t, zonePath, zoneText("3", "192.0.2.100"))
	if status, _ := httpDo(t, http.MethodPost, d, "/reload"); status != http.StatusOK {
		t.Errorf("POST /reload status = %d", status)
	}
	wantAnswer(t, d, "www.dnsd.test.", "192.0.2.100")

	stop.Store(true)
	wg.Wait()
	if n := dropped.Load(); n != 0 {
		t.Errorf("%d queries dropped across reloads", n)
	}
	if resolved.Load() == 0 {
		t.Error("no queries resolved under load")
	}

	// GET is rejected; a broken file fails the reload but leaves the
	// published zone serving.
	if status, _ := httpDo(t, http.MethodGet, d, "/reload"); status != http.StatusMethodNotAllowed {
		t.Errorf("GET /reload status = %d, want 405", status)
	}
	writeFile(t, zonePath, "not a zone file ???")
	if err := d.Reload(); err == nil {
		t.Error("reload of a broken zone file succeeded")
	}
	wantAnswer(t, d, "www.dnsd.test.", "192.0.2.100")

	// The reload metric families are exposed on /metrics.
	_, body := httpDo(t, http.MethodGet, d, "/metrics")
	for _, family := range []string{"meccdn_reload_total", "meccdn_reload_zone_swaps_total"} {
		if !strings.Contains(body, family) {
			t.Errorf("/metrics missing %s", family)
		}
	}
}

// TestReloadIsAllOrNothing: a file that does not parse leaves every
// zone, the reload's swap counters and the cache as they were; once it
// is fixed, every zone swaps and the cache is flushed.
func TestReloadIsAllOrNothing(t *testing.T) {
	pathA := tempFile(t, "a.zone", zoneText("1", "192.0.2.1"))
	pathB := tempFile(t, "b.zone", zoneText("1", "192.0.2.2"))
	d := build(t, Config{Listen: loopback, Zones: []ZoneFile{{"a.test.", pathA}, {"b.test.", pathB}}})
	start(t, d)
	zoneA, zoneB := d.zones[0], d.zones[1]
	lookup(t, d, "www.a.test.") // one cached answer, so a flush is observable
	if n := d.Cache.Stats().Entries; n != 1 {
		t.Fatalf("cache entries before reload = %d, want 1", n)
	}

	// First file advanced, second corrupt.
	writeFile(t, pathA, zoneText("7", "192.0.2.11"))
	writeFile(t, pathB, "not a zone file ???")
	if err := d.Reload(); err == nil {
		t.Fatal("reload with a corrupt file succeeded")
	}
	if zoneA.Serial() != 1 || zoneB.Serial() != 1 {
		t.Errorf("serials after failed reload = %d/%d, want 1/1: a parse error must swap nothing", zoneA.Serial(), zoneB.Serial())
	}
	if got := d.reloads.Value("error"); got != 1 {
		t.Errorf(`meccdn_reload_total{result="error"} = %d, want 1`, got)
	}
	if d.zoneSwaps.Value() != 0 {
		t.Errorf("zone swaps after failed reload = %d, want 0", d.zoneSwaps.Value())
	}
	if n := d.Cache.Stats().Entries; n != 1 {
		t.Errorf("cache entries after failed reload = %d, want 1 (untouched)", n)
	}

	// Fixed: both swap, the cache is flushed.
	writeFile(t, pathB, zoneText("9", "192.0.2.12"))
	if err := d.Reload(); err != nil {
		t.Fatal(err)
	}
	if zoneA.Serial() != 7 || zoneB.Serial() != 9 {
		t.Errorf("serials after reload = %d/%d, want 7/9", zoneA.Serial(), zoneB.Serial())
	}
	if d.zoneSwaps.Value() != 2 || d.reloads.Value("ok") != 1 {
		t.Errorf("zone swaps / ok reloads = %d/%d, want 2/1", d.zoneSwaps.Value(), d.reloads.Value("ok"))
	}
	if n := d.Cache.Stats().Entries; n != 0 {
		t.Errorf("cache entries after reload = %d, want 0 (flushed)", n)
	}
}

// TestMeshGossipBetweenDaemons runs two dnsd builds on loopback UDP and
// checks one announce round populates both peer views, the routers
// consult them, and the admin /mesh endpoint reports the peer.
func TestMeshGossipBetweenDaemons(t *testing.T) {
	site := func(name string) *Daemon {
		return build(t, Config{
			Listen:           loopback,
			CDNDomain:        "mycdn.dnsd.test.",
			Mesh:             loopback,
			MeshName:         name,
			AnnounceInterval: time.Second,
			DownAfter:        2,
			UpAfter:          1,
			Admin:            loopback,
		})
	}
	a, b := site("site-a"), site("site-b")
	if a.Mesh == nil || b.Mesh == nil || a.Router.Mesh() == nil {
		t.Fatal("mesh agent not built or not wired to the router")
	}
	// Start binds the mesh socket and runs the receive loop and the
	// admin endpoint.
	start(t, a)
	start(t, b)
	a.Mesh.AddPeer(mesh.Peer{Name: "site-b", Addr: b.meshConn.LocalAddr().String()})
	b.Mesh.AddPeer(mesh.Peer{Name: "site-a", Addr: a.meshConn.LocalAddr().String()})
	a.Mesh.AnnounceOnce()
	b.Mesh.AnnounceOnce()

	st := a.Mesh.Snapshot()
	if st.Site != "site-a" || len(st.Peers) != 1 || st.Peers[0].Name != "site-b" {
		t.Fatalf("site-a snapshot = %+v", st)
	}
	if st.Peers[0].Generation == 0 {
		t.Errorf("site-b announce not applied: %+v", st.Peers[0])
	}
	if status, body := httpDo(t, http.MethodGet, a, "/mesh"); status != http.StatusOK || !strings.Contains(body, "site-b") {
		t.Errorf("/mesh = %d %q", status, body)
	}
}

// TestStubUpstreamsAreProbeOrdered: with probing on, a stub route's
// upstreams are ordered by the health registry like the main
// forwarder's. Two live upstreams answer the same name differently;
// with the first forced down the query must go to the second. (The
// registry used to be attached to the Stub after its routes had
// copied a nil one.)
func TestStubUpstreamsAreProbeOrdered(t *testing.T) {
	first, second := upstream(t, "cdn.test.", "192.0.2.1"), upstream(t, "cdn.test.", "192.0.2.2")
	d := build(t, Config{
		Listen:        loopback,
		ProbeInterval: time.Hour, // never fires here: the override below is the only verdict
		Stubs:         []StubRoute{{"cdn.test.", []netip.AddrPort{first, second}}},
	})
	if !d.Health.SetOverride(first.String(), false) {
		t.Fatalf("stub upstream %v is not a probe target", first)
	}
	start(t, d)
	wantAnswer(t, d, "www.cdn.test.", "192.0.2.2")
}

// TestStartFailureUnwinds: when a late start step fails (here the
// admin listen), the steps before it are taken down again — the DNS
// server drained and closed, the mesh socket released — and Start
// returns that step's error.
func TestStartFailureUnwinds(t *testing.T) {
	taken, err := net.Listen("tcp", loopback)
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	d := build(t, Config{Listen: loopback, CDNDomain: "d.test.", Mesh: loopback, Admin: taken.Addr().String(), Drain: time.Second})
	if err := d.Start(); err == nil {
		t.Fatal("Start succeeded with the admin address taken")
	}
	if !d.Server.Draining() {
		t.Error("failed Start did not drain the server")
	}
	// A closed socket's address can be bound again.
	if conn, err := net.ListenPacket("udp", d.meshConn.LocalAddr().String()); err != nil {
		t.Errorf("mesh socket still held after failed Start: %v", err)
	} else {
		conn.Close()
	}
	select {
	case <-d.meshDone:
	default:
		t.Error("mesh receive loop still running after failed Start")
	}
}

func TestDescribe(t *testing.T) {
	d := build(t, Config{
		Listen:         loopback,
		Forward:        "192.0.2.10:53",
		Stubs:          []StubRoute{{"CDN.test", addrPorts("192.0.2.11:53")}},
		ProbeInterval:  time.Second,
		DownAfter:      3,
		UpAfter:        2,
		CDNDomain:      "mycdn.test",
		RingBounded:    true,
		RingLoadFactor: 1.5,
	})
	want := []string{
		"stub-domain cdn.test. -> [192.0.2.11:53]",
		"bounded-load routing for mycdn.test.: cap 1.50x mean",
		"forwarding unmatched names to [192.0.2.10:53]",
		"health probing 2 upstreams every 1s (down after 3 failures, up after 2 successes)",
	}
	if got := d.Describe(); !reflect.DeepEqual(got, want) {
		t.Errorf("Describe() =\n%q\nwant\n%q", got, want)
	}
}
