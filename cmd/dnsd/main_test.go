package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	meccdn "github.com/meccdn/meccdn"
)

func writeZoneFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.zone")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBuildAndServe(t *testing.T) {
	zonePath := writeZoneFile(t, `
@ 3600 IN SOA ns hostmaster 1 7200 3600 1209600 300
www 60 IN A 192.0.2.88
`)
	d, err := build(serverConfig{listen: "127.0.0.1:0", zones: []string{"dnsd.test.=" + zonePath}})
	if err != nil {
		t.Fatal(err)
	}
	srv, metrics := d.srv, d.metrics
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := &meccdn.Client{Transport: &meccdn.NetTransport{}, Timeout: 2 * time.Second}
	resp, err := client.Query(context.Background(), srv.LocalAddr(), "www.dnsd.test.", meccdn.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].(*meccdn.A).Addr.String() != "192.0.2.88" {
		t.Errorf("answers = %v", resp.Answers)
	}
	if metrics.Total() != 1 {
		t.Errorf("metrics total = %d", metrics.Total())
	}
}

func TestBuildStubAndForward(t *testing.T) {
	// Upstream server the stub and forward point at.
	upZone := meccdn.NewZone("up.test.")
	if err := upZone.AddA("host.up.test.", 60, netip.MustParseAddr("192.0.2.44")); err != nil {
		t.Fatal(err)
	}
	stubZone := meccdn.NewZone("cdn.test.")
	if err := stubZone.AddA("video.cdn.test.", 60, netip.MustParseAddr("192.0.2.55")); err != nil {
		t.Fatal(err)
	}
	upstream := &meccdn.DNSServer{
		Addr:    "127.0.0.1:0",
		Handler: meccdn.Chain(meccdn.NewZonePlugin(upZone, stubZone)),
	}
	if err := upstream.Start(); err != nil {
		t.Fatal(err)
	}
	defer upstream.Close()
	up := upstream.LocalAddr().String()

	d, err := build(serverConfig{listen: "127.0.0.1:0", forward: up, stubs: []string{"cdn.test.=" + up}})
	if err != nil {
		t.Fatal(err)
	}
	srv := d.srv
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := &meccdn.Client{Transport: &meccdn.NetTransport{}, Timeout: 2 * time.Second}
	// Stub domain.
	resp, err := client.Query(context.Background(), srv.LocalAddr(), "video.cdn.test.", meccdn.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("stub answers = %v", resp.Answers)
	}
	// Forwarded name.
	resp, err = client.Query(context.Background(), srv.LocalAddr(), "host.up.test.", meccdn.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("forward answers = %v", resp.Answers)
	}

	// Both misses went to one upstream, one after the other, on one
	// kept socket; the registry exports the pool, and the drain closes
	// what is idle.
	if st := d.upstream.Stats(); st.Dialed != 1 || st.Reused != 1 || st.Idle != 1 {
		t.Errorf("upstream sockets after two misses = %+v, want 1 dialed, 1 reused, 1 idle", st)
	}
	var metrics strings.Builder
	if err := d.hub.Registry.WritePrometheus(&metrics); err != nil {
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
	if err := d.shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if st := d.upstream.Stats(); st.Idle != 0 || st.Discarded != 1 {
		t.Errorf("upstream sockets after shutdown = %+v, want none idle", st)
	}
}

func TestBuildHotPathConfig(t *testing.T) {
	zonePath := writeZoneFile(t, `
@ 3600 IN SOA ns hostmaster 1 7200 3600 1209600 300
www 60 IN A 192.0.2.88
`)
	d, err := build(serverConfig{
		listen:   "127.0.0.1:0",
		zones:    []string{"dnsd.test.=" + zonePath},
		sockets:  3,
		maxConns: 7,
		prefetch: 0.25,
		maxStale: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.srv.Sockets != 3 || d.srv.MaxConns != 7 {
		t.Errorf("server sockets/maxConns = %d/%d, want 3/7", d.srv.Sockets, d.srv.MaxConns)
	}
	if d.cache.PrefetchFrac != 0.25 || d.cache.MaxStale != time.Minute {
		t.Errorf("cache prefetch/maxStale = %v/%v, want 0.25/1m", d.cache.PrefetchFrac, d.cache.MaxStale)
	}
	// Prefetches must drain with the server, and -sockets 0 must
	// follow GOMAXPROCS like -workers does.
	if d.cache.Background != meccdn.BackgroundTracker(d.srv) {
		t.Error("cache.Background not wired to the server")
	}
	d2, err := build(serverConfig{listen: "127.0.0.1:0", zones: []string{"dnsd.test.=" + zonePath}})
	if err != nil {
		t.Fatal(err)
	}
	if d2.srv.Sockets != runtime.GOMAXPROCS(0) {
		t.Errorf("default sockets = %d, want GOMAXPROCS", d2.srv.Sockets)
	}
}

func TestBuildHealthConfig(t *testing.T) {
	// -probe-interval builds the registry over the union of forward and
	// stub upstreams (deduplicated) and wires it into both pickers, the
	// checker, and the admin /health view.
	d, err := build(serverConfig{
		listen:    "127.0.0.1:0",
		forward:   "192.0.2.10:53,192.0.2.11:53",
		stubs:     []string{"cdn.test.=192.0.2.11:53,192.0.2.12:53"},
		admin:     "127.0.0.1:0",
		probeIvl:  250 * time.Millisecond,
		downAfter: 2,
		upAfter:   1,
		loadHigh:  0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.health == nil || d.checker == nil {
		t.Fatal("health registry/checker not built")
	}
	if got := len(d.health.Targets()); got != 3 {
		t.Errorf("probe targets = %d, want 3 (deduplicated union)", got)
	}
	hc := d.health.Config()
	if hc.ProbeInterval != 250*time.Millisecond || hc.DownAfter != 2 || hc.UpAfter != 1 || hc.LoadHigh != 0.8 {
		t.Errorf("health config = %+v", hc)
	}
	if d.admin.Health == nil {
		t.Error("admin /health view not wired")
	}
	if d.checker.Background != meccdn.BackgroundTracker(d.srv) {
		t.Error("checker not drain-gated by the server")
	}

	// Probing stays off without the flag, and without any upstreams.
	d2, err := build(serverConfig{listen: "127.0.0.1:0", forward: "192.0.2.10:53"})
	if err != nil {
		t.Fatal(err)
	}
	if d2.health != nil || d2.checker != nil {
		t.Error("health built without -probe-interval")
	}
	d3, err := build(serverConfig{listen: "127.0.0.1:0", probeIvl: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if d3.health != nil {
		t.Error("health built with no upstreams to probe")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := build(serverConfig{listen: ":0", zones: []string{"missing-equals"}}); err == nil {
		t.Error("bad -zone accepted")
	}
	if _, err := build(serverConfig{listen: ":0", zones: []string{"z.test.=/no/such/file"}}); err == nil {
		t.Error("missing zone file accepted")
	}
	if _, err := build(serverConfig{listen: ":0", stubs: []string{"noequals"}}); err == nil {
		t.Error("bad -stub accepted")
	}
	if _, err := build(serverConfig{listen: ":0", stubs: []string{"d.test.=notanaddr"}}); err == nil {
		t.Error("bad stub upstream accepted")
	}
	if _, err := build(serverConfig{listen: ":0", forward: "notanaddr"}); err == nil {
		t.Error("bad -forward accepted")
	}
}

func TestBuildCDNRouter(t *testing.T) {
	routesPath := filepath.Join(t.TempDir(), "routes.txt")
	routes := `
# loopback clients route to PoP 1
127.0.0.0/8 1
10.0.0.0/8 2
`
	if err := os.WriteFile(routesPath, []byte(routes), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := build(serverConfig{
		listen:    "127.0.0.1:0",
		cdnDomain: "mycdn.dnsd.test.",
		routes:    routesPath,
		pops:      []string{"1=192.0.2.201", "2=192.0.2.202"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.router == nil {
		t.Fatal("no router built")
	}
	if rows := d.router.Routes().Rows(); rows != 2 {
		t.Fatalf("route rows = %d, want 2", rows)
	}
	if err := d.srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.srv.Close()

	// A real UDP query from loopback: no ECS, so the router falls back
	// to the source address, which the routes file maps to PoP 1.
	client := &meccdn.Client{Transport: &meccdn.NetTransport{}, Timeout: 2 * time.Second}
	resp, err := client.Query(context.Background(), d.srv.LocalAddr(), "video.mycdn.dnsd.test.", meccdn.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].(*meccdn.A).Addr.String() != "192.0.2.201" {
		t.Errorf("answers = %v, want PoP 1's 192.0.2.201", resp.Answers)
	}
}

func TestBuildRingFlags(t *testing.T) {
	d, err := build(serverConfig{
		listen:      "127.0.0.1:0",
		cdnDomain:   "mycdn.dnsd.test.",
		ringBounded: true,
		ringFactor:  1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.router.Ring.Bounded {
		t.Error("-ring-bounded not plumbed into the ring")
	}
	if d.router.Ring.LoadFactor != 1.5 {
		t.Errorf("-ring-load-factor = %v, want 1.5", d.router.Ring.LoadFactor)
	}
	// With probing enabled too, the sweep hook decays the ring loads.
	d2, err := build(serverConfig{
		listen:      "127.0.0.1:0",
		forward:     "192.0.2.10:53",
		probeIvl:    time.Second,
		cdnDomain:   "mycdn.dnsd.test.",
		ringBounded: true,
		ringFactor:  1.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d2.checker == nil || d2.checker.OnSweep == nil {
		t.Fatal("ring decay not hooked to the probe sweep")
	}
	d2.router.Ring.Add("cache-x")
	d2.router.Ring.RecordLoad("cache-x")
	d2.router.Ring.RecordLoad("cache-x")
	d2.checker.OnSweep()
	if got := d2.router.Ring.Load("cache-x"); got != 1 {
		t.Errorf("load after one sweep = %d, want 1 (decay 0.5)", got)
	}
	// Bounded without a CDN router is a config error, as is c <= 1.
	if _, err := build(serverConfig{listen: ":0", ringBounded: true}); err == nil {
		t.Error("-ring-bounded without -cdn-domain accepted")
	}
	if _, err := build(serverConfig{listen: ":0", cdnDomain: "d.test.", ringBounded: true, ringFactor: 1.0}); err == nil {
		t.Error("-ring-load-factor 1.0 accepted")
	}
}

func TestBuildRoutesRequireCDNDomain(t *testing.T) {
	if _, err := build(serverConfig{listen: ":0", routes: "whatever"}); err == nil {
		t.Error("-routes without -cdn-domain accepted")
	}
	if _, err := build(serverConfig{listen: ":0", pops: []string{"1=192.0.2.1"}}); err == nil {
		t.Error("-pop without -cdn-domain accepted")
	}
	if _, err := build(serverConfig{listen: ":0", cdnDomain: "d.test.", pops: []string{"noequals"}}); err == nil {
		t.Error("bad -pop accepted")
	}
	if _, err := build(serverConfig{listen: ":0", cdnDomain: "d.test.", pops: []string{"x=192.0.2.1"}}); err == nil {
		t.Error("non-numeric -pop id accepted")
	}
	if _, err := build(serverConfig{listen: ":0", cdnDomain: "d.test.", pops: []string{"1=notanaddr"}}); err == nil {
		t.Error("bad -pop address accepted")
	}
	if _, err := build(serverConfig{listen: ":0", cdnDomain: "d.test.", routes: "/no/such/file"}); err == nil {
		t.Error("missing routes file accepted")
	}
}

// TestReloadUnderLoad drives the online-reload path end to end: zone
// file rewritten on disk, swapped in via the reloader (the SIGHUP
// path) and via the admin /reload endpoint, while concurrent clients
// resolve against the server the whole time. No query may drop or
// fail across the swaps.
func TestReloadUnderLoad(t *testing.T) {
	zonePath := writeZoneFile(t, `
@ 3600 IN SOA ns hostmaster 1 7200 3600 1209600 300
www 60 IN A 192.0.2.88
`)
	d, err := build(serverConfig{
		listen: "127.0.0.1:0",
		admin:  "127.0.0.1:0",
		zones:  []string{"dnsd.test.=" + zonePath},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.reloader == nil {
		t.Fatal("no reloader built for a file-backed zone")
	}
	if err := d.srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.srv.Close()
	if err := d.admin.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.admin.Close()

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
			client := &meccdn.Client{Transport: &meccdn.NetTransport{}, Timeout: 2 * time.Second}
			for !stop.Load() {
				resp, err := client.Query(context.Background(), d.srv.LocalAddr(), "www.dnsd.test.", meccdn.TypeA)
				if err != nil || resp.Rcode != meccdn.RcodeSuccess || len(resp.Answers) == 0 {
					dropped.Add(1)
					continue
				}
				resolved.Add(1)
			}
		}()
	}

	// SIGHUP path: rewrite the file and invoke the reloader directly
	// (run() calls exactly this on SIGHUP).
	if err := os.WriteFile(zonePath, []byte(`
@ 3600 IN SOA ns hostmaster 2 7200 3600 1209600 300
www 60 IN A 192.0.2.99
v2  60 IN A 192.0.2.2
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := d.reloader.reload(); err != nil {
		t.Fatal(err)
	}
	client := &meccdn.Client{Transport: &meccdn.NetTransport{}, Timeout: 2 * time.Second}
	resp, err := client.Query(context.Background(), d.srv.LocalAddr(), "www.dnsd.test.", meccdn.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].(*meccdn.A).Addr.String() != "192.0.2.99" {
		t.Errorf("post-reload answers = %v, want 192.0.2.99", resp.Answers)
	}

	// Admin path: rewrite again and POST /reload.
	if err := os.WriteFile(zonePath, []byte(`
@ 3600 IN SOA ns hostmaster 3 7200 3600 1209600 300
www 60 IN A 192.0.2.100
`), 0o644); err != nil {
		t.Fatal(err)
	}
	reloadURL := "http://" + d.admin.LocalAddr().String() + "/reload"
	hresp, err := http.Post(reloadURL, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("POST /reload status = %d", hresp.StatusCode)
	}
	resp, err = client.Query(context.Background(), d.srv.LocalAddr(), "www.dnsd.test.", meccdn.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].(*meccdn.A).Addr.String() != "192.0.2.100" {
		t.Errorf("post-/reload answers = %v, want 192.0.2.100", resp.Answers)
	}

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
	if hresp, err = http.Get(reloadURL); err != nil {
		t.Fatal(err)
	} else {
		hresp.Body.Close()
		if hresp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /reload status = %d, want 405", hresp.StatusCode)
		}
	}
	if err := os.WriteFile(zonePath, []byte("not a zone file ???"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := d.reloader.reload(); err == nil {
		t.Error("reload of a broken zone file succeeded")
	}
	resp, err = client.Query(context.Background(), d.srv.LocalAddr(), "www.dnsd.test.", meccdn.TypeA)
	if err != nil || len(resp.Answers) != 1 {
		t.Errorf("zone not serving after failed reload: %v %v", resp.Answers, err)
	}

	// The reload metric families are exposed on /metrics.
	mresp, err := http.Get("http://" + d.admin.LocalAddr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, family := range []string{"meccdn_reload_total", "meccdn_reload_zone_swaps_total"} {
		if !strings.Contains(string(body), family) {
			t.Errorf("/metrics missing %s", family)
		}
	}
}

func TestBuildMeshFlags(t *testing.T) {
	if _, err := build(serverConfig{listen: ":0", meshAddr: "127.0.0.1:0"}); err == nil {
		t.Error("-mesh without -cdn-domain should fail")
	}
	if _, err := build(serverConfig{listen: ":0", peers: []string{"b=127.0.0.1:9953"}}); err == nil {
		t.Error("-peers without -mesh should fail")
	}
	cdn := serverConfig{listen: ":0", cdnDomain: "d.test.", meshAddr: "127.0.0.1:0"}
	bad := cdn
	bad.peers = []string{"noequals"}
	if _, err := build(bad); err == nil {
		t.Error("-peers without = should fail")
	}
	bad = cdn
	bad.peers = []string{"b=notanaddr"}
	if _, err := build(bad); err == nil {
		t.Error("-peers with a bad address should fail")
	}
}

// TestMeshGossipBetweenDaemons runs two dnsd builds on loopback UDP and
// checks one announce round populates both peer views, the routers
// consult them, and the admin /mesh endpoint reports the peer.
func TestMeshGossipBetweenDaemons(t *testing.T) {
	buildSite := func(name string) *daemon {
		d, err := build(serverConfig{
			listen:      "127.0.0.1:0",
			cdnDomain:   "mycdn.dnsd.test.",
			meshAddr:    "127.0.0.1:0",
			meshName:    name,
			announceIvl: time.Second,
			downAfter:   2,
			upAfter:     1,
			admin:       "127.0.0.1:0",
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b := buildSite("site-a"), buildSite("site-b")
	if a.mesh == nil || b.mesh == nil || a.router.Mesh() == nil {
		t.Fatal("mesh agent not built or not wired to the router")
	}

	serve := func(d *daemon) string {
		conn, err := net.ListenPacket("udp", d.meshAddr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		go func() { _ = d.mesh.ServeUDP(conn) }()
		return conn.LocalAddr().String()
	}
	addrA, addrB := serve(a), serve(b)
	a.mesh.AddPeer(meccdn.MeshPeer{Name: "site-b", Addr: addrB})
	b.mesh.AddPeer(meccdn.MeshPeer{Name: "site-a", Addr: addrA})
	a.mesh.AnnounceOnce()
	b.mesh.AnnounceOnce()

	st := a.mesh.Snapshot()
	if st.Site != "site-a" || len(st.Peers) != 1 || st.Peers[0].Name != "site-b" {
		t.Fatalf("site-a snapshot = %+v", st)
	}
	if st.Peers[0].Generation == 0 {
		t.Errorf("site-b announce not applied: %+v", st.Peers[0])
	}

	if err := a.admin.Start(); err != nil {
		t.Fatal(err)
	}
	defer a.admin.Close()
	resp, err := http.Get("http://" + a.admin.LocalAddr().String() + "/mesh")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "site-b") {
		t.Errorf("/mesh = %d %q", resp.StatusCode, body)
	}
}
