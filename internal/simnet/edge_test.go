package simnet

import (
	"errors"
	"testing"
	"time"
)

func TestRemoveLinkPartitionsTraffic(t *testing.T) {
	n := New(70)
	n.AddNode("a")
	n.AddNode("b")
	n.AddLink("a", "b", Constant(time.Millisecond), 0)
	n.Node("b").SetHandler(echoHandler(0))
	ep := n.Node("a").Endpoint()
	if _, _, err := ep.Exchange(n.Node("b").Addr, []byte("x"), time.Second); err != nil {
		t.Fatal(err)
	}
	n.RemoveLink("a", "b")
	if n.HasLink("a", "b") || n.HasLink("b", "a") {
		t.Fatal("links survive removal")
	}
	if _, _, err := ep.Exchange(n.Node("b").Addr, []byte("x"), 10*time.Millisecond); err == nil {
		t.Fatal("exchange succeeded across removed link")
	}
	// Re-adding restores connectivity (handoff pattern).
	n.AddLink("a", "b", Constant(time.Millisecond), 0)
	if _, _, err := ep.Exchange(n.Node("b").Addr, []byte("x"), time.Second); err != nil {
		t.Fatalf("exchange after re-add: %v", err)
	}
}

func TestRemoveLinkInvalidatesRouteCache(t *testing.T) {
	n := New(71)
	for _, name := range []string{"a", "mid1", "mid2", "b"} {
		n.AddNode(name)
	}
	n.AddLink("a", "mid1", Constant(time.Millisecond), 0)
	n.AddLink("mid1", "b", Constant(time.Millisecond), 0)
	n.AddLink("a", "mid2", Constant(5*time.Millisecond), 0)
	n.AddLink("mid2", "b", Constant(5*time.Millisecond), 0)
	path, err := n.Path("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	via := path[1]
	// Remove whichever middle hop was chosen; routing must recompute.
	n.RemoveLink("a", via)
	path2, err := n.Path("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if path2[1] == via {
		t.Errorf("route cache not invalidated: still via %s", via)
	}
}

func TestClockPendingAndRunWhileEmptyQueue(t *testing.T) {
	var c Clock
	if c.queue.Len() != 0 {
		t.Error("fresh clock has pending events")
	}
	ran := false
	c.RunWhile(func() bool { ran = true; return true }) // drains immediately
	if !ran {
		t.Error("RunWhile never evaluated its condition")
	}
	timer := c.Schedule(time.Second, func() {})
	if c.queue.Len() != 1 {
		t.Errorf("pending = %d", c.queue.Len())
	}
	timer.Cancel()
	c.RunUntil(2 * time.Second) // must skip the cancelled head
	if c.Now() != 2*time.Second {
		t.Errorf("now = %v", c.Now())
	}
}

func TestExchangeToSelfIsInstant(t *testing.T) {
	n := New(72)
	n.AddNode("solo")
	n.Node("solo").SetHandler(echoHandler(3 * time.Millisecond))
	resp, rtt, err := n.Node("solo").Endpoint().Exchange(n.Node("solo").Addr, []byte("loop"), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "loop" {
		t.Errorf("resp = %q", resp)
	}
	// Only the processing delay: zero hops.
	if rtt != 3*time.Millisecond {
		t.Errorf("rtt = %v", rtt)
	}
}

func TestSendFromUnknownAddress(t *testing.T) {
	n := New(73)
	n.AddNode("a")
	err := n.Send(Datagram{Dst: n.Node("a").Addr})
	if err == nil {
		t.Error("send from zero address succeeded")
	}
}

func TestTimeoutErrorWrapping(t *testing.T) {
	n := New(74)
	n.AddNode("a")
	n.AddNode("b")
	n.AddLink("a", "b", Constant(time.Millisecond), 1)
	_, _, err := n.Node("a").Endpoint().Exchange(n.Node("b").Addr, []byte("x"), 5*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v", err)
	}
}
