package dnsclient

import (
	"context"
	"errors"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/simnet"
)

// fakeTransport scripts transport behaviour for unit tests.
type fakeTransport struct {
	fn    func(query []byte, tcp bool) ([]byte, error)
	calls int
	tcp   int
}

func (f *fakeTransport) Exchange(_ context.Context, _ time.Time, _ netip.AddrPort, query []byte, tcp bool) ([]byte, error) {
	f.calls++
	if tcp {
		f.tcp++
	}
	return f.fn(query, tcp)
}

func answerFor(t *testing.T, raw []byte, mutate func(*dnswire.Message)) []byte {
	t.Helper()
	var q dnswire.Message
	if err := q.Unpack(raw); err != nil {
		t.Fatalf("server could not unpack query: %v", err)
	}
	var resp dnswire.Message
	resp.SetReply(&q)
	resp.Answers = []dnswire.RR{&dnswire.A{
		Hdr:  dnswire.RRHeader{Name: q.Question().Name, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 30},
		Addr: netip.MustParseAddr("192.0.2.53"),
	}}
	if mutate != nil {
		mutate(&resp)
	}
	wire, err := resp.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

var testServer = netip.MustParseAddrPort("192.0.2.1:53")

func TestClientQuerySuccess(t *testing.T) {
	ft := &fakeTransport{fn: func(q []byte, tcp bool) ([]byte, error) {
		return answerFor(t, q, nil), nil
	}}
	c := &Client{Transport: ft}
	c.SetRand(rand.New(rand.NewSource(1)))
	resp, err := c.Query(context.Background(), testServer, "cdn0.agoda.net", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %d", len(resp.Answers))
	}
	if got := resp.Answers[0].(*dnswire.A).Addr.String(); got != "192.0.2.53" {
		t.Errorf("answer = %s", got)
	}
}

func TestClientAddsEDNS(t *testing.T) {
	var sawSize uint16
	ft := &fakeTransport{fn: func(q []byte, tcp bool) ([]byte, error) {
		var msg dnswire.Message
		if err := msg.Unpack(q); err != nil {
			t.Fatal(err)
		}
		if opt, ok := msg.OPT(); ok {
			sawSize = opt.UDPSize()
		}
		return answerFor(t, q, nil), nil
	}}
	c := &Client{Transport: ft, UDPSize: 1232}
	c.SetRand(rand.New(rand.NewSource(2)))
	if _, err := c.Query(context.Background(), testServer, "x.test", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	if sawSize != 1232 {
		t.Errorf("server saw EDNS size %d", sawSize)
	}
}

func TestClientRejectsIDMismatch(t *testing.T) {
	ft := &fakeTransport{fn: func(q []byte, tcp bool) ([]byte, error) {
		return answerFor(t, q, func(m *dnswire.Message) { m.ID ^= 0xFFFF }), nil
	}}
	c := &Client{Transport: ft}
	c.SetRand(rand.New(rand.NewSource(3)))
	_, err := c.Query(context.Background(), testServer, "x.test", dnswire.TypeA)
	if !errors.Is(err, ErrAllAttemptsFail) {
		t.Fatalf("err = %v", err)
	}
}

func TestClientRejectsQuestionMismatch(t *testing.T) {
	ft := &fakeTransport{fn: func(q []byte, tcp bool) ([]byte, error) {
		return answerFor(t, q, func(m *dnswire.Message) {
			m.Questions[0].Name = "evil.test."
		}), nil
	}}
	c := &Client{Transport: ft}
	c.SetRand(rand.New(rand.NewSource(4)))
	if _, err := c.Query(context.Background(), testServer, "x.test", dnswire.TypeA); err == nil {
		t.Fatal("question mismatch accepted")
	}
}

func TestClientTCPFallbackOnTruncation(t *testing.T) {
	ft := &fakeTransport{}
	ft.fn = func(q []byte, tcp bool) ([]byte, error) {
		if !tcp {
			return answerFor(t, q, func(m *dnswire.Message) { m.Truncated = true }), nil
		}
		return answerFor(t, q, nil), nil
	}
	c := &Client{Transport: ft}
	c.SetRand(rand.New(rand.NewSource(5)))
	resp, err := c.Query(context.Background(), testServer, "big.test", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Truncated {
		t.Error("final response still truncated")
	}
	if ft.tcp != 1 {
		t.Errorf("tcp attempts = %d, want 1", ft.tcp)
	}
}

// TestClientTruncationWithoutFallback: a truncated reply on the TCP leg
// is returned as it is, after one TCP exchange; nothing is retried.
func TestClientTruncationWithoutFallback(t *testing.T) {
	ft := &fakeTransport{fn: func(q []byte, tcp bool) ([]byte, error) {
		return answerFor(t, q, func(m *dnswire.Message) { m.Truncated = true }), nil
	}}
	c := &Client{Transport: ft}
	c.SetRand(rand.New(rand.NewSource(6)))
	resp, err := c.Query(context.Background(), testServer, "big.test", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Truncated {
		t.Error("expected the truncated TCP reply to be returned as it is")
	}
	if ft.calls != 2 || ft.tcp != 1 {
		t.Errorf("%d exchanges, %d over TCP; want one over UDP, then one over TCP", ft.calls, ft.tcp)
	}
}

func TestClientRetries(t *testing.T) {
	attempt := 0
	ft := &fakeTransport{}
	ft.fn = func(q []byte, tcp bool) ([]byte, error) {
		attempt++
		if attempt < 3 {
			return nil, errors.New("synthetic loss")
		}
		return answerFor(t, q, nil), nil
	}
	c := &Client{Transport: ft, Retries: 2, Timeout: 100 * time.Millisecond}
	c.SetRand(rand.New(rand.NewSource(7)))
	if _, err := c.Query(context.Background(), testServer, "retry.test", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	if attempt != 3 {
		t.Errorf("attempts = %d", attempt)
	}
}

func TestClientExhaustsRetries(t *testing.T) {
	ft := &fakeTransport{fn: func(q []byte, tcp bool) ([]byte, error) {
		return nil, errors.New("synthetic loss")
	}}
	c := &Client{Transport: ft, Retries: 2, Timeout: 10 * time.Millisecond}
	c.SetRand(rand.New(rand.NewSource(8)))
	_, err := c.Query(context.Background(), testServer, "dead.test", dnswire.TypeA)
	if !errors.Is(err, ErrAllAttemptsFail) {
		t.Fatalf("err = %v", err)
	}
	if ft.calls != 3 {
		t.Errorf("calls = %d, want 3", ft.calls)
	}
}

func TestClientNoTransport(t *testing.T) {
	c := &Client{}
	if _, err := c.Query(context.Background(), testServer, "x.test", dnswire.TypeA); err == nil {
		t.Fatal("expected error with no transport")
	}
}

func TestSimTransportEndToEnd(t *testing.T) {
	n := simnet.New(20)
	n.AddNode("client")
	n.AddNode("server")
	n.AddLink("client", "server", simnet.Constant(7*time.Millisecond), 0)

	n.Node("server").SetHandler(simnet.HandlerFunc(func(ctx *simnet.Ctx, dg simnet.Datagram) {
		ctx.Reply(answerFor(t, dg.Payload, nil), time.Millisecond)
	}))

	c := &Client{Transport: &SimTransport{Endpoint: n.Node("client").Endpoint()}}
	c.SetRand(rand.New(rand.NewSource(9)))
	start := n.Now()
	resp, err := c.Query(context.Background(),
		netip.AddrPortFrom(n.Node("server").Addr, 53), "sim.test", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %d", len(resp.Answers))
	}
	if rtt := n.Now() - start; rtt != 15*time.Millisecond {
		t.Errorf("virtual rtt = %v, want 15ms", rtt)
	}
}

func TestSimTransportTimeout(t *testing.T) {
	n := simnet.New(21)
	n.AddNode("client")
	n.AddNode("server")
	n.AddLink("client", "server", simnet.Constant(time.Millisecond), 1.0)
	c := &Client{
		Transport: &SimTransport{Endpoint: n.Node("client").Endpoint(), Timeout: 20 * time.Millisecond},
	}
	c.SetRand(rand.New(rand.NewSource(10)))
	_, err := c.Query(context.Background(),
		netip.AddrPortFrom(n.Node("server").Addr, 53), "lost.test", dnswire.TypeA)
	if !errors.Is(err, ErrAllAttemptsFail) {
		t.Fatalf("err = %v", err)
	}
}

// TestDoLeavesCallerMessageUntouched: Do packs a header copy over the
// caller's records, so neither the ID it assigns nor the OPT it adds
// may show in the caller's message — while both go out on the wire.
func TestDoLeavesCallerMessageUntouched(t *testing.T) {
	var sent dnswire.Message
	ft := &fakeTransport{fn: func(q []byte, tcp bool) ([]byte, error) {
		if err := sent.Unpack(q); err != nil {
			t.Fatal(err)
		}
		return answerFor(t, q, nil), nil
	}}
	c := &Client{Transport: ft, UDPSize: 1232}
	c.SetRand(rand.New(rand.NewSource(11)))

	// Without an OPT: one is attached to the copy only.
	bare := new(dnswire.Message)
	bare.SetQuestion("bare.test.", dnswire.TypeA)
	bare.ID = 0x1234
	bare.Additionals = make([]dnswire.RR, 0, 4) // spare capacity an append could scribble on
	if _, err := c.Do(context.Background(), testServer, bare); err != nil {
		t.Fatal(err)
	}
	if bare.ID != 0x1234 || len(bare.Additionals) != 0 || len(bare.Additionals[:1]) != 1 || bare.Additionals[:1][0] != nil {
		t.Errorf("caller's OPT-less query changed: id=%#x additionals=%v", bare.ID, bare.Additionals[:1])
	}
	if opt, ok := sent.OPT(); !ok || opt.UDPSize() != 1232 || sent.ID == 0x1234 {
		t.Errorf("wire query: id=%#x opt=%v, want the client's ID and a 1232-byte OPT", sent.ID, ok)
	}

	// With its own OPT: sent as is, and still the caller's afterwards.
	own := new(dnswire.Message)
	own.SetQuestion("own.test.", dnswire.TypeA)
	own.ID = 0x4321
	ownOPT := own.SetEDNS(4096)
	if _, err := c.Do(context.Background(), testServer, own); err != nil {
		t.Fatal(err)
	}
	if opt, _ := own.OPT(); own.ID != 0x4321 || opt != ownOPT || opt.UDPSize() != 4096 || len(own.Additionals) != 1 {
		t.Errorf("caller's query changed: id=%#x additionals=%v", own.ID, own.Additionals)
	}
	if opt, ok := sent.OPT(); !ok || opt.UDPSize() != 4096 || sent.ID == 0x4321 {
		t.Errorf("wire query: id=%#x opt=%v, want the client's ID and the caller's 4096-byte OPT", sent.ID, ok)
	}
}
