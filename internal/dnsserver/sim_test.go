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

// TestAttachReentrant delivers a second query to a simnet node while
// its first is parked in a nested upstream Exchange (which pumps the
// event loop re-entrantly). Each client must get its own ID, question
// and answer back — which is why the sim ingress parses every datagram
// into scratch of its own.
func TestAttachReentrant(t *testing.T) {
	n := simnet.New(11)
	for _, name := range []string{"a", "b", "ldns", "up"} {
		n.AddNode(name)
	}
	n.AddLink("a", "ldns", simnet.Constant(time.Millisecond), 0)
	n.AddLink("b", "ldns", simnet.Constant(time.Millisecond), 0)
	n.AddLink("ldns", "up", simnet.Constant(10*time.Millisecond), 0)

	zone := NewZone("up.test.")
	want := map[string]netip.Addr{
		"a.up.test.": netip.MustParseAddr("10.0.0.1"),
		"b.up.test.": netip.MustParseAddr("10.0.0.2"),
	}
	for name, addr := range want {
		if err := zone.AddA(name, 60, addr); err != nil {
			t.Fatal(err)
		}
	}
	Attach(n.Node("up"), Chain(NewZonePlugin(zone)), nil, nil)
	stub := NewStub(simClient(n, "ldns"))
	stub.Route("up.test.", netip.AddrPortFrom(n.Node("up").Addr, 53))
	Attach(n.Node("ldns"), Chain(stub), nil, nil)

	replies := map[string][]byte{}
	send := func(node, name string, id uint16) {
		q := new(dnswire.Message)
		q.SetQuestion(name, dnswire.TypeA)
		q.ID = id
		n.Node(node).Tap(func(ev simnet.HopEvent) {
			if ev.Kind == simnet.HopDeliver {
				replies[node] = ev.Dg.Payload
			}
		})
		if err := n.Send(simnet.Datagram{Src: n.Node(node).Addr, Dst: n.Node("ldns").Addr, Payload: mustPack(t, q)}); err != nil {
			t.Fatal(err)
		}
	}
	// a's query reaches the L-DNS at 1 ms and waits until 21 ms for the
	// upstream; b's arrives at 6 ms, in the middle of that wait.
	send("a", "a.up.test.", 0xAAAA)
	n.Clock.Schedule(5*time.Millisecond, func() { send("b", "b.up.test.", 0xBBBB) })
	n.Clock.RunUntil(time.Second)

	for node, id := range map[string]uint16{"a": 0xAAAA, "b": 0xBBBB} {
		name := node + ".up.test."
		var m dnswire.Message
		if err := m.Unpack(replies[node]); err != nil {
			t.Fatalf("%s: no reply (%v)", node, err)
		}
		if m.ID != id || m.Question().Name != name {
			t.Errorf("%s got the reply to %#x %s, asked %#x %s", node, m.ID, m.Question().Name, id, name)
		}
		if len(m.Answers) != 1 || m.Answers[0].(*dnswire.A).Addr != want[name] {
			t.Errorf("%s: answers = %v, want %v", node, m.Answers, want[name])
		}
	}
}
