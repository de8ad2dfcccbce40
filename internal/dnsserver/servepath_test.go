package dnsserver

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/telemetry"
	"github.com/meccdn/meccdn/internal/vclock"
)

// wireSink is a ResponseWriter that records which way a response
// arrived: WriteWireOwned copies the wire bytes out (into wire's
// capacity, so a pre-sized sink allocates nothing) and returns the
// buffer, WriteMsg keeps the message. It is an OwnedWireWriter like the
// ingresses' replyImage.
type wireSink struct {
	wire    []byte
	msg     *dnswire.Message
	written bool
}

func (s *wireSink) Written() bool { return s.written }
func (s *wireSink) WriteWireOwned(buf []byte, n int) error {
	s.wire = append(s.wire[:0], buf[:n]...)
	s.written = true
	dnswire.PutBuffer(buf)
	return nil
}
func (s *wireSink) WriteMsg(m *dnswire.Message) error {
	s.msg = m
	s.written = true
	return nil
}

// msgWriter is the double of a writer that cannot take bytes: it keeps
// the first response written, as a Message.
type msgWriter struct{ msg *dnswire.Message }

func (w *msgWriter) Written() bool { return w.msg != nil }
func (w *msgWriter) WriteMsg(m *dnswire.Message) error {
	if w.msg == nil {
		w.msg = m
	}
	return nil
}

// TestWireHitMatchesOracle pins the serve-path invariant end to end at
// the plugin layer: every cache hit — plain or EDNS — reaches a
// wire-capable writer as patched stored bytes, byte-identical to the
// decode → restamp → age → repack oracle, including transaction ID,
// RD/CD mirroring, and TTL aging; a writer that only takes messages
// gets a message that packs to those same bytes.
func TestWireHitMatchesOracle(t *testing.T) {
	zone := NewZone("wire.test.")
	if err := zone.AddA("www.wire.test.", 300, netip.MustParseAddr("192.0.2.31")); err != nil {
		t.Fatal(err)
	}
	for i := range 40 {
		if err := zone.AddA("big.wire.test.", 300, netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	origin := NewZonePlugin(zone)
	chain := Chain(cache, origin)

	nameQuery := func(name string, id uint16, rd bool) *Request {
		q := new(dnswire.Message)
		q.SetQuestion(name, dnswire.TypeA)
		q.ID = id
		q.RecursionDesired = rd
		return &Request{Msg: q, Client: netip.MustParseAddrPort("192.0.2.99:4242"), Transport: "udp"}
	}
	query := func(id uint16, rd bool) *Request { return nameQuery("www.wire.test.", id, rd) }
	stored := upstreamImage(t, Chain(origin), query(1, true))
	bigStored := upstreamImage(t, Chain(origin), nameQuery("big.wire.test.", 1, true))
	if len(bigStored) < 512 {
		t.Fatalf("big.wire.test. packs to %d bytes, want at least 512", len(bigStored))
	}

	// Populate the cache, then age it.
	for _, req := range []*Request{query(1, true), nameQuery("big.wire.test.", 1, true)} {
		if resp := Resolve(context.Background(), chain, req); resp.Rcode != dnswire.RcodeSuccess {
			t.Fatalf("warm query rcode = %v", resp.Rcode)
		}
	}
	clock.Time += 10 * time.Second

	fast := &wireSink{}
	rcode := ResolveTo(context.Background(), chain, fast, query(0xABCD, true))
	if rcode != dnswire.RcodeSuccess {
		t.Fatalf("wire hit rcode = %v", rcode)
	}
	if fast.wire == nil {
		t.Fatal("cache hit did not reach the writer as wire bytes (WriteMsg used instead)")
	}
	want, err := oracleReply(stored, query(0xABCD, true).Msg, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fast.wire, want) {
		t.Fatalf("wire hit differs from the oracle:\n% x\n% x", fast.wire, want)
	}

	// Same hit through a writer that cannot take bytes: decoded at the
	// boundary from the same image.
	slow := &msgWriter{}
	if _, err := chain.ServeDNS(context.Background(), slow, query(0xABCD, true)); err != nil {
		t.Fatal(err)
	}
	if !slow.Written() {
		t.Fatal("message-writer hit wrote nothing")
	}
	if repacked, err := slow.msg.Pack(); err != nil || !bytes.Equal(repacked, want) {
		t.Fatalf("message-writer hit differs from the oracle (%v):\n% x\n% x", err, repacked, want)
	}

	// The patched response carries the caller's ID and the aged TTL.
	var got dnswire.Message
	if err := got.Unpack(fast.wire); err != nil {
		t.Fatal(err)
	}
	if got.ID != 0xABCD {
		t.Errorf("wire hit ID = %#x, want 0xABCD", got.ID)
	}
	if len(got.Answers) != 1 || got.Answers[0].Header().TTL != 290 {
		t.Errorf("wire hit answers = %v, want one A with TTL 290", got.Answers)
	}
	if !got.RecursionDesired {
		t.Error("RD bit not mirrored from the request")
	}

	// An RD=false request must come back with RD clear even though the
	// stored response was built from an RD=true exchange.
	fast2 := &wireSink{}
	ResolveTo(context.Background(), chain, fast2, query(7, false))
	if fast2.wire == nil {
		t.Fatal("second hit did not reach the writer as wire bytes")
	}
	var got2 dnswire.Message
	if err := got2.Unpack(fast2.wire); err != nil {
		t.Fatal(err)
	}
	if got2.RecursionDesired {
		t.Error("RD=false request served with RD set")
	}

	// An EDNS-bearing request is served the same way.
	eq := query(9, true)
	eq.Msg.SetEDNS(1232)
	edns := &wireSink{}
	ResolveTo(context.Background(), chain, edns, eq)
	if edns.wire == nil || edns.msg != nil {
		t.Fatal("EDNS request not served as wire bytes")
	}
	if want, err := oracleReply(stored, eq.Msg, 10, false); err != nil || !bytes.Equal(edns.wire, want) {
		t.Errorf("EDNS hit differs from the oracle (%v):\n% x\n% x", err, edns.wire, want)
	}

	// A hit larger than the transport carries reaches the ingress's
	// writer as bytes too, and is cut down there, in place: the oracle's
	// bytes truncated, TC set, within the limit.
	bq := nameQuery("big.wire.test.", 11, true)
	small := &replyImage{limit: dnswire.MaxUDPSize}
	ResolveTo(context.Background(), chain, small, bq)
	if small.buf == nil {
		t.Fatal("oversized hit wrote nothing")
	}
	defer dnswire.PutBuffer(small.buf)
	whole, err := oracleReply(bigStored, bq.Msg, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	n, err := dnswire.Truncate(whole, len(whole), dnswire.MaxUDPSize)
	if err != nil {
		t.Fatal(err)
	}
	if got := small.buf[:small.n]; !bytes.Equal(got, whole[:n]) || n > dnswire.MaxUDPSize || got[2]&0x02 == 0 {
		t.Errorf("oversized hit is not the oracle cut to %d bytes with TC:\n% x\n% x", dnswire.MaxUDPSize, got, whole[:n])
	}

	if st := cache.Stats(); st.Hits < 5 {
		t.Errorf("cache hits = %d, want >= 5", st.Hits)
	}
}

// bufferGuard holds each request across a delay and verifies the
// message it was given has not been torn by packet-buffer reuse — the
// regression test for handing pooled read buffers to the handler.
type bufferGuard struct {
	torn atomic.Int64
}

func (g *bufferGuard) Name() string { return "bufferguard" }
func (g *bufferGuard) ServeDNS(ctx context.Context, w ResponseWriter, r *Request, next Handler) (dnswire.Rcode, error) {
	name := r.Msg.Question().Name
	id := r.Msg.ID
	time.Sleep(200 * time.Microsecond) // let other packets churn the buffer pool
	if r.Msg.Question().Name != name || r.Msg.ID != id {
		g.torn.Add(1)
	}
	return next.ServeDNS(ctx, w, r)
}

// TestHandlerNeverSeesReusedBuffer floods the server with concurrent
// distinct queries so pooled read buffers recycle constantly, and
// asserts every response still matches its own question — end to end
// (the client validates ID and question) and inside the handler (the
// bufferGuard plugin re-checks the request after a delay).
func TestHandlerNeverSeesReusedBuffer(t *testing.T) {
	zone := NewZone("pool.test.")
	const names = 32
	for i := 0; i < names; i++ {
		if err := zone.AddA(fmt.Sprintf("h%d.pool.test.", i), 60, netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	guard := &bufferGuard{}
	srv := &Server{
		Addr:       "127.0.0.1:0",
		Handler:    Chain(guard, NewZonePlugin(zone)),
		QueueDepth: 256, // roomy: this test is about reuse, not shedding
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	const clients, iters = 8, 32
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := realClient()
			cl.Retries = 2
			for i := 0; i < iters; i++ {
				n := (c*iters + i) % names
				resp, err := cl.Query(context.Background(), srv.LocalAddr(), fmt.Sprintf("h%d.pool.test.", n), dnswire.TypeA)
				if err != nil {
					errs <- err
					return
				}
				a, ok := resp.Answers[0].(*dnswire.A)
				if !ok || a.Addr != netip.AddrFrom4([4]byte{192, 0, 2, byte(n)}) {
					errs <- fmt.Errorf("h%d got answer %v", n, resp.Answers[0])
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
	if n := guard.torn.Load(); n != 0 {
		t.Errorf("%d requests observed a torn/reused buffer", n)
	}
	if n := srv.DroppedPackets(); n != 0 {
		t.Errorf("%d packets shed with a roomy queue", n)
	}
}

// TestGracefulDrainWaitsForQueued pins the drain contract for queries
// waiting on the network: every datagram read before Shutdown begins
// is still served, each waiting query being registered in flight
// before its goroutine gives the socket away.
func TestGracefulDrainWaitsForQueued(t *testing.T) {
	z := NewZone("drain.test.")
	if err := z.AddA("www.drain.test.", 60, netip.MustParseAddr("192.0.2.77")); err != nil {
		t.Fatal(err)
	}
	srv := &Server{
		Addr:       "127.0.0.1:0",
		Handler:    Chain(&slowPlugin{delay: 120 * time.Millisecond}, NewZonePlugin(z)),
		QueueDepth: 8, // datagrams
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}

	const queries = 3
	results := make(chan error, queries)
	for i := 0; i < queries; i++ {
		go func() {
			c := realClient()
			c.Timeout = 3 * time.Second
			resp, err := c.Query(context.Background(), srv.LocalAddr(), "www.drain.test.", dnswire.TypeA)
			if err == nil && len(resp.Answers) != 1 {
				err = fmt.Errorf("answers = %v", resp.Answers)
			}
			results <- err
		}()
		time.Sleep(10 * time.Millisecond)
	}

	// All three are in the slow plugin, off the socket's lead. Drain.
	time.Sleep(30 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	for i := 0; i < queries; i++ {
		if err := <-results; err != nil {
			t.Errorf("queued query lost during drain: %v", err)
		}
	}
}

// TestUDPQueueOverflowSheds pins the overflow contract: with room for
// one query waiting on the network, the rest of a burst of them must be
// shed (counted on the server's drop counter), never parked without
// bound.
func TestUDPQueueOverflowSheds(t *testing.T) {
	z := NewZone("flood.test.")
	if err := z.AddA("www.flood.test.", 60, netip.MustParseAddr("192.0.2.1")); err != nil {
		t.Fatal(err)
	}
	srv := &Server{
		Addr:       "127.0.0.1:0",
		Handler:    Chain(&slowPlugin{delay: 100 * time.Millisecond}, NewZonePlugin(z)),
		QueueDepth: 1, // datagram
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	q := new(dnswire.Message)
	q.SetQuestion("www.flood.test.", dnswire.TypeA)
	q.ID = 99
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("udp", srv.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 30; i++ {
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
	}

	waitFor(t, 2*time.Second, func() bool { return srv.DroppedPackets() == 29 })
	if got := srv.IngressLoad(); got != 1 {
		t.Errorf("IngressLoad = %v with the one place taken, want 1", got)
	}

	// The serve-loop families expose the drops and the waiting queries.
	reg := telemetry.NewRegistry()
	reg.MustRegister(srv.Collectors()...)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"meccdn_dns_udp_dropped_total 29", "meccdn_dns_udp_queue_depth 1", "meccdn_dns_udp_recv_errors_total 0",
	} {
		if !strings.Contains(b.String(), family) {
			t.Errorf("exposition missing %s", family)
		}
	}
}
