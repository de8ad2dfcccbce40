package dnsserver

import (
	"context"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnsclient"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/simnet"
)

// startTestServer runs a real UDP/TCP server on a loopback ephemeral
// port for integration tests.
func startTestServer(t *testing.T, h Handler) netip.AddrPort {
	t.Helper()
	srv := &Server{Addr: "127.0.0.1:0", Handler: h}
	if err := srv.Start(); err != nil {
		t.Fatalf("starting server: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.LocalAddr()
}

func realClient() *dnsclient.Client {
	c := &dnsclient.Client{Transport: &dnsclient.NetTransport{}, Timeout: 2 * time.Second}
	c.SetRand(rand.New(rand.NewSource(99)))
	return c
}

func TestServerOverRealUDP(t *testing.T) {
	z := NewZone("live.test.")
	if err := z.AddA("www.live.test.", 60, netip.MustParseAddr("192.0.2.44")); err != nil {
		t.Fatal(err)
	}
	addr := startTestServer(t, Chain(NewZonePlugin(z)))

	resp, err := realClient().Query(context.Background(), addr, "www.live.test.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].(*dnswire.A).Addr.String() != "192.0.2.44" {
		t.Errorf("answers = %v", resp.Answers)
	}
	if !resp.Authoritative {
		t.Error("AA not set")
	}
}

func TestServerTruncatesLargeUDPAndTCPRecovers(t *testing.T) {
	z := NewZone("big.test.")
	for i := 0; i < 120; i++ {
		if err := z.AddA("many.big.test.", 60,
			netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	addr := startTestServer(t, Chain(NewZonePlugin(z)))

	// Client without EDNS: the automatic TCP fallback returns the full set.
	resp, err := realClient().Query(context.Background(), addr, "many.big.test.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 120 {
		t.Errorf("TCP fallback returned %d answers, want 120", len(resp.Answers))
	}

	// The UDP reply it fell back from: at most 512 bytes, TC set, no answers.
	q := new(dnswire.Message)
	q.SetQuestion("many.big.test.", dnswire.TypeA)
	reply, err := dialIngress(t, "udp", addr)(mustPack(t, q))
	if err != nil {
		t.Fatal(err)
	}
	var m dnswire.Message
	if err := m.Unpack(reply); err != nil {
		t.Fatal(err)
	}
	if len(reply) > dnswire.MaxUDPSize || !m.Truncated || len(m.Answers) != 0 {
		t.Errorf("UDP reply: %d bytes, TC=%v, %d answers; want <= %d bytes, TC, none", len(reply), m.Truncated, len(m.Answers), dnswire.MaxUDPSize)
	}
}

func TestServerHonoursEDNSSize(t *testing.T) {
	z := NewZone("edns.test.")
	for i := 0; i < 60; i++ {
		if err := z.AddA("many.edns.test.", 60,
			netip.AddrFrom4([4]byte{10, 2, byte(i >> 8), byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	addr := startTestServer(t, Chain(NewZonePlugin(z)))
	q := new(dnswire.Message)
	q.SetQuestion("many.edns.test.", dnswire.TypeA)
	q.SetEDNS(4096)
	reply, err := dialIngress(t, "udp", addr)(mustPack(t, q))
	if err != nil {
		t.Fatal(err)
	}
	var resp dnswire.Message
	if err := resp.Unpack(reply); err != nil {
		t.Fatal(err)
	}
	if resp.Truncated {
		t.Error("response truncated despite 4096-byte EDNS advertisement")
	}
	if len(resp.Answers) != 60 {
		t.Errorf("answers = %d", len(resp.Answers))
	}
}

func TestServerDoubleStartAndClose(t *testing.T) {
	srv := &Server{Addr: "127.0.0.1:0", Handler: Chain()}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err == nil {
		t.Error("second Start succeeded")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestServerNilHandler(t *testing.T) {
	srv := &Server{Addr: "127.0.0.1:0"}
	if err := srv.Start(); err == nil {
		srv.Close()
		t.Fatal("Start accepted nil handler")
	}
}

func TestAttachServesOverSimnet(t *testing.T) {
	z := NewZone("sim.test.")
	if err := z.AddA("host.sim.test.", 60, netip.MustParseAddr("10.0.0.5")); err != nil {
		t.Fatal(err)
	}
	n := simnet.New(50)
	n.AddNode("client")
	n.AddNode("server")
	n.AddLink("client", "server", simnet.Constant(4*time.Millisecond), 0)
	Attach(n.Node("server"), Chain(NewZonePlugin(z)), nil, simnet.Constant(2*time.Millisecond))

	c := &dnsclient.Client{Transport: &dnsclient.SimTransport{Endpoint: n.Node("client").Endpoint()}}
	c.SetRand(rand.New(rand.NewSource(51)))
	start := n.Now()
	resp, err := c.Query(context.Background(),
		netip.AddrPortFrom(n.Node("server").Addr, 53), "host.sim.test.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %d", len(resp.Answers))
	}
	if rtt := n.Now() - start; rtt != 10*time.Millisecond {
		t.Errorf("virtual rtt = %v, want 10ms (4+2+4)", rtt)
	}
}

func TestAttachIgnoresGarbage(t *testing.T) {
	n := simnet.New(52)
	n.AddNode("a")
	n.AddNode("b")
	n.AddLink("a", "b", simnet.Constant(time.Millisecond), 0)
	Attach(n.Node("b"), Chain(), nil, nil)
	_, _, err := n.Node("a").Endpoint().Exchange(n.Node("b").Addr, []byte("not dns"), 10*time.Millisecond)
	if err == nil {
		t.Error("garbage got a reply")
	}
}

// TestAttachQueuesConcurrentQueries models a server flood: two
// queries arriving back to back are serialized by the single-server
// queue, so the second one's response is delayed by the first's
// processing time.
func TestAttachQueuesConcurrentQueries(t *testing.T) {
	n := simnet.New(60)
	n.AddNode("a")
	n.AddNode("b")
	n.AddNode("server")
	n.AddLink("a", "server", simnet.Constant(time.Millisecond), 0)
	n.AddLink("b", "server", simnet.Constant(time.Millisecond), 0)
	z := NewZone("q.test.")
	if err := z.AddA("www.q.test.", 60, netip.MustParseAddr("192.0.2.1")); err != nil {
		t.Fatal(err)
	}
	Attach(n.Node("server"), Chain(NewZonePlugin(z)), nil, simnet.Constant(10*time.Millisecond))

	q := new(dnswire.Message)
	q.SetQuestion("www.q.test.", dnswire.TypeA)
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// Fire both datagrams at t=0, then drain the event queue and
	// observe the reply arrival times at each sender.
	var tA, tB time.Duration
	n.Node("a").Tap(func(ev simnet.HopEvent) {
		if ev.Kind == simnet.HopDeliver {
			tA = ev.Time
		}
	})
	n.Node("b").Tap(func(ev simnet.HopEvent) {
		if ev.Kind == simnet.HopDeliver {
			tB = ev.Time
		}
	})
	if err := n.Send(simnet.Datagram{Src: n.Node("a").Addr, Dst: n.Node("server").Addr, Payload: wire}); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(simnet.Datagram{Src: n.Node("b").Addr, Dst: n.Node("server").Addr, Payload: wire}); err != nil {
		t.Fatal(err)
	}
	n.Clock.RunUntil(time.Second)
	// First reply: 1ms + 10ms + 1ms = 12ms. Second: queued behind the
	// first, so 1ms + (10+10)ms + 1ms = 22ms.
	first, second := tA, tB
	if first > second {
		first, second = second, first
	}
	if first != 12*time.Millisecond {
		t.Errorf("first reply at %v, want 12ms", first)
	}
	if second != 22*time.Millisecond {
		t.Errorf("second reply at %v, want 22ms (queued)", second)
	}
}

// TestRecursiveForwardingTopology wires ue → L-DNS (cache+forward) →
// A-DNS over simnet, the minimal version of the paper's Figure 1 flow,
// and verifies both the resolution result and the cache's latency
// effect on the second query.
func TestRecursiveForwardingTopology(t *testing.T) {
	n := simnet.New(53)
	n.AddNode("ue")
	n.AddNode("ldns")
	n.AddNode("adns")
	n.AddLink("ue", "ldns", simnet.Constant(10*time.Millisecond), 0)
	n.AddLink("ldns", "adns", simnet.Constant(40*time.Millisecond), 0)

	z := NewZone("cdn.example.")
	if err := z.AddA("img.cdn.example.", 300, netip.MustParseAddr("198.51.100.10")); err != nil {
		t.Fatal(err)
	}
	Attach(n.Node("adns"), Chain(NewZonePlugin(z)), nil, simnet.Constant(time.Millisecond))

	upClient := &dnsclient.Client{Transport: &dnsclient.SimTransport{Endpoint: n.Node("ldns").Endpoint()}}
	upClient.SetRand(rand.New(rand.NewSource(54)))
	cache := NewCache(n.Clock)
	fwd := &Forward{Upstreams: []netip.AddrPort{netip.AddrPortFrom(n.Node("adns").Addr, 53)}, Client: upClient}
	Attach(n.Node("ldns"), Chain(cache, fwd), nil, simnet.Constant(time.Millisecond))

	ueClient := &dnsclient.Client{Transport: &dnsclient.SimTransport{Endpoint: n.Node("ue").Endpoint()}}
	ueClient.SetRand(rand.New(rand.NewSource(55)))
	adns := netip.AddrPortFrom(n.Node("ldns").Addr, 53)

	start := n.Now()
	resp, err := ueClient.Query(context.Background(), adns, "img.cdn.example.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	coldRTT := n.Now() - start
	if len(resp.Answers) != 1 {
		t.Fatalf("cold answers = %d", len(resp.Answers))
	}
	// 10 + (40 + 1 + 40) + 1 + 10 = 102ms.
	if coldRTT != 102*time.Millisecond {
		t.Errorf("cold rtt = %v, want 102ms", coldRTT)
	}

	start = n.Now()
	if _, err = ueClient.Query(context.Background(), adns, "img.cdn.example.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	warmRTT := n.Now() - start
	// 10 + 1 + 10 = 21ms: the hierarchical lookup is gone.
	if warmRTT != 21*time.Millisecond {
		t.Errorf("warm rtt = %v, want 21ms", warmRTT)
	}
	if s := cache.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("cache stats = %+v", s)
	}
}
