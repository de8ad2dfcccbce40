package simnet

import (
	"errors"
	"testing"
	"time"
)

// lineTopology builds ue—enb—pgw—dns with constant link delays.
func lineTopology(t *testing.T, seed int64) *Network {
	t.Helper()
	n := New(seed)
	n.AddNode("ue")
	n.AddNode("enb")
	n.AddNode("pgw")
	n.AddNode("dns")
	n.AddLink("ue", "enb", Constant(10*time.Millisecond), 0)
	n.AddLink("enb", "pgw", Constant(2*time.Millisecond), 0)
	n.AddLink("pgw", "dns", Constant(3*time.Millisecond), 0)
	return n
}

func echoHandler(proc time.Duration) HandlerFunc {
	return func(ctx *Ctx, dg Datagram) {
		ctx.Reply(dg.Payload, proc)
	}
}

func TestExchangeRTT(t *testing.T) {
	n := lineTopology(t, 1)
	n.Node("dns").SetHandler(echoHandler(time.Millisecond))
	resp, rtt, err := n.Node("ue").Endpoint().Exchange(n.Node("dns").Addr, []byte("ping"), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "ping" {
		t.Errorf("payload = %q", resp)
	}
	// 15ms each way + 1ms processing.
	if want := 31 * time.Millisecond; rtt != want {
		t.Errorf("rtt = %v, want %v", rtt, want)
	}
}

func TestExchangeTimeoutOnSilentServer(t *testing.T) {
	n := lineTopology(t, 2)
	// dns node has no handler: queries vanish.
	_, rtt, err := n.Node("ue").Endpoint().Exchange(n.Node("dns").Addr, []byte("x"), 50*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
	if rtt < 50*time.Millisecond {
		t.Errorf("timeout returned early: %v", rtt)
	}
}

func TestExchangeLossCausesTimeout(t *testing.T) {
	n := New(3)
	n.AddNode("a")
	n.AddNode("b")
	n.AddLink("a", "b", Constant(time.Millisecond), 1.0) // always lost
	n.Node("b").SetHandler(echoHandler(0))
	_, _, err := n.Node("a").Endpoint().Exchange(n.Node("b").Addr, []byte("x"), 10*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
}

func TestPartialLossEventuallySucceeds(t *testing.T) {
	n := New(4)
	n.AddNode("a")
	n.AddNode("b")
	n.AddLink("a", "b", Constant(time.Millisecond), 0.5)
	n.Node("b").SetHandler(echoHandler(0))
	ep := n.Node("a").Endpoint()
	ok, timedOut := 0, 0
	for i := 0; i < 200; i++ {
		_, _, err := ep.Exchange(n.Node("b").Addr, []byte("x"), 5*time.Millisecond)
		if err == nil {
			ok++
		} else {
			timedOut++
		}
	}
	// Success needs both directions to survive: expect ≈25%.
	if ok < 20 || ok > 90 {
		t.Errorf("successes = %d/200, want ≈50", ok)
	}
	if ok+timedOut != 200 {
		t.Error("accounting mismatch")
	}
}

func TestRoutingMultiHopPath(t *testing.T) {
	n := lineTopology(t, 5)
	path, err := n.Path("ue", "dns")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"ue", "enb", "pgw", "dns"}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestRoutingNoRoute(t *testing.T) {
	n := New(6)
	n.AddNode("island1")
	n.AddNode("island2")
	if _, err := n.Path("island1", "island2"); err == nil {
		t.Error("expected no-route error")
	}
	err := n.Send(Datagram{Src: n.Node("island1").Addr, Dst: n.Node("island2").Addr})
	if err == nil {
		t.Error("Send across partition succeeded")
	}
}

func TestRoutingPicksShortestPath(t *testing.T) {
	n := New(7)
	for _, name := range []string{"a", "b", "c", "d"} {
		n.AddNode(name)
	}
	// a—b—c—d long way, a—d direct.
	n.AddLink("a", "b", Constant(time.Millisecond), 0)
	n.AddLink("b", "c", Constant(time.Millisecond), 0)
	n.AddLink("c", "d", Constant(time.Millisecond), 0)
	n.AddLink("a", "d", Constant(50*time.Millisecond), 0)
	path, err := n.Path("a", "d")
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 2 {
		t.Errorf("path = %v, want direct hop", path)
	}
}

func TestTapSeesForwardAndDeliver(t *testing.T) {
	n := lineTopology(t, 8)
	n.Node("dns").SetHandler(echoHandler(0))
	var pgwEvents []HopEvent
	n.Node("pgw").Tap(func(ev HopEvent) { pgwEvents = append(pgwEvents, ev) })
	var dnsEvents []HopEvent
	n.Node("dns").Tap(func(ev HopEvent) { dnsEvents = append(dnsEvents, ev) })

	_, _, err := n.Node("ue").Endpoint().Exchange(n.Node("dns").Addr, []byte("q"), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// P-GW forwards the query and the reply.
	if len(pgwEvents) != 2 {
		t.Fatalf("pgw saw %d events, want 2", len(pgwEvents))
	}
	for _, ev := range pgwEvents {
		if ev.Kind != HopForward {
			t.Errorf("pgw event kind = %v", ev.Kind)
		}
	}
	// Query reaches P-GW after the 10ms air leg + 2ms backhaul.
	if pgwEvents[0].Elapsed != 12*time.Millisecond {
		t.Errorf("query at pgw after %v, want 12ms", pgwEvents[0].Elapsed)
	}
	if len(dnsEvents) != 1 || dnsEvents[0].Kind != HopDeliver {
		t.Errorf("dns events = %+v", dnsEvents)
	}
}

func TestTapSeesDrop(t *testing.T) {
	n := New(9)
	n.AddNode("a")
	n.AddNode("b")
	n.AddLink("a", "b", Constant(time.Millisecond), 1.0)
	var drops int
	n.Node("b").Tap(func(ev HopEvent) {
		if ev.Kind == HopDrop {
			drops++
		}
	})
	_, _, err := n.Node("a").Endpoint().Exchange(n.Node("b").Addr, []byte("x"), 5*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatal(err)
	}
	if drops != 1 {
		t.Errorf("drops = %d", drops)
	}
}

func TestNestedExchangeThroughHandler(t *testing.T) {
	// Recursive resolution pattern: ue → ldns → upstream, where the
	// ldns handler performs its own synchronous exchange inline.
	n := New(10)
	n.AddNode("ue")
	n.AddNode("ldns")
	n.AddNode("upstream")
	n.AddLink("ue", "ldns", Constant(5*time.Millisecond), 0)
	n.AddLink("ldns", "upstream", Constant(20*time.Millisecond), 0)

	n.Node("upstream").SetHandler(echoHandler(2 * time.Millisecond))
	n.Node("ldns").SetHandler(HandlerFunc(func(ctx *Ctx, dg Datagram) {
		up := ctx.Node().Endpoint()
		resp, _, err := up.Exchange(n.Node("upstream").Addr, dg.Payload, time.Second)
		if err != nil {
			return
		}
		ctx.Reply(append(resp, '!'), time.Millisecond)
	}))

	resp, rtt, err := n.Node("ue").Endpoint().Exchange(n.Node("ldns").Addr, []byte("q"), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "q!" {
		t.Errorf("resp = %q", resp)
	}
	// 5+20+2+20+1+5 = 53ms.
	if want := 53 * time.Millisecond; rtt != want {
		t.Errorf("rtt = %v, want %v", rtt, want)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func(seed int64) []time.Duration {
		n := New(seed)
		n.AddNode("a")
		n.AddNode("b")
		n.AddLink("a", "b", Normal{Mean: 10 * time.Millisecond, Stddev: 2 * time.Millisecond}, 0.05)
		n.Node("b").SetHandler(echoHandler(time.Millisecond))
		ep := n.Node("a").Endpoint()
		var rtts []time.Duration
		for i := 0; i < 100; i++ {
			_, rtt, err := ep.Exchange(n.Node("b").Addr, []byte("x"), 100*time.Millisecond)
			if err != nil {
				rtt = -1
			}
			rtts = append(rtts, rtt)
		}
		return rtts
	}
	a, b := run(99), run(99)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at query %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(100)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical runs")
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	n := New(11)
	n.AddNode("x")
	defer func() {
		if recover() == nil {
			t.Error("duplicate node did not panic")
		}
	}()
	n.AddNode("x")
}

func TestLinkToUnknownNodePanics(t *testing.T) {
	n := New(12)
	n.AddNode("x")
	defer func() {
		if recover() == nil {
			t.Error("link to unknown node did not panic")
		}
	}()
	n.AddLink("x", "ghost", Constant(0), 0)
}

func TestSendAsyncAndUnsolicitedDelivery(t *testing.T) {
	n := New(13)
	n.AddNode("a")
	n.AddNode("b")
	n.AddLink("a", "b", Constant(time.Millisecond), 0)
	var got []byte
	n.Node("b").SetHandler(HandlerFunc(func(ctx *Ctx, dg Datagram) { got = dg.Payload }))
	if err := n.Send(Datagram{Src: n.Node("a").Addr, Dst: n.Node("b").Addr, Payload: []byte("hi")}); err != nil {
		t.Fatal(err)
	}
	drain(n.Clock)
	if string(got) != "hi" {
		t.Errorf("got %q", got)
	}
}

func TestNodesSorted(t *testing.T) {
	n := New(14)
	n.AddNode("zeta")
	n.AddNode("alpha")
	n.AddNode("mid")
	names := n.Nodes()
	if names[0] != "alpha" || names[2] != "zeta" {
		t.Errorf("Nodes() = %v", names)
	}
	if n.NodeByAddr(n.Node("mid").Addr) != n.Node("mid") {
		t.Error("NodeByAddr mismatch")
	}
}

func TestSelfPath(t *testing.T) {
	n := New(15)
	n.AddNode("solo")
	p, err := n.Path("solo", "solo")
	if err != nil || len(p) != 1 {
		t.Errorf("self path = %v, %v", p, err)
	}
}

func TestDatagramClient(t *testing.T) {
	n := New(40)
	a := n.AddNode("a").Addr
	b := n.AddNode("b").Addr
	dg := Datagram{Src: a}
	if dg.Client() != a {
		t.Error("Client without OrigSrc")
	}
	dg.OrigSrc = b
	if dg.Client() != b {
		t.Error("Client with OrigSrc")
	}
}
