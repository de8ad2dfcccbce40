package dnsserver

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/netip"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"testing/quick"
	"time"

	"github.com/meccdn/meccdn/internal/dnsclient"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/telemetry"
	"github.com/meccdn/meccdn/internal/vclock"
)

func TestServerOverRealUDP(t *testing.T) {
	z := NewZone("live.test.")
	if err := z.AddA("www.live.test.", 60, netip.MustParseAddr("192.0.2.44")); err != nil {
		t.Fatal(err)
	}
	addr := startTestServer(t, &Server{Handler: Chain(NewZonePlugin(z))}).LocalAddr()

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
	addr := startTestServer(t, &Server{Handler: Chain(NewZonePlugin(z))}).LocalAddr()

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
	reply, err := dialIngress(t, "udp", addr).ask(mustPack(t, q))
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
	addr := startTestServer(t, &Server{Handler: Chain(NewZonePlugin(z))}).LocalAddr()
	q := new(dnswire.Message)
	q.SetQuestion("many.edns.test.", dnswire.TypeA)
	q.SetEDNS(4096)
	reply, err := dialIngress(t, "udp", addr).ask(mustPack(t, q))
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

func TestChainOrderAndFallthrough(t *testing.T) {
	p1 := &countingPlugin{}
	p2 := &countingPlugin{h: answerHandler("192.0.2.1")}
	resp := Resolve(context.Background(), Chain(p1, p2), queryFor("x.test."))
	if p1.hits != 1 || p2.hits != 1 {
		t.Errorf("hits = %d, %d", p1.hits, p2.hits)
	}
	if len(resp.Answers) != 1 {
		t.Errorf("answers = %d", len(resp.Answers))
	}
	// Empty chain refuses.
	resp = Resolve(context.Background(), Chain(), queryFor("x.test."))
	if resp.Rcode != dnswire.RcodeRefused {
		t.Errorf("empty chain rcode = %v", resp.Rcode)
	}
}

func TestResolveSynthesizesServfail(t *testing.T) {
	h := HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		return dnswire.RcodeSuccess, context.DeadlineExceeded
	})
	resp := Resolve(context.Background(), h, queryFor("x.test."))
	if resp.Rcode != dnswire.RcodeServerFailure {
		t.Errorf("rcode = %v", resp.Rcode)
	}
}

func TestGracefulDrainWaitsForInflight(t *testing.T) {
	z := NewZone("drain.test.")
	if err := z.AddA("www.drain.test.", 60, netip.MustParseAddr("192.0.2.77")); err != nil {
		t.Fatal(err)
	}
	srv := &Server{
		Addr:      "127.0.0.1:0",
		Handler:   Chain(&slowPlugin{delay: 150 * time.Millisecond}, NewZonePlugin(z)),
		Telemetry: telemetry.NewHub(nil),
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}

	type result struct {
		resp *dnswire.Message
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := realClient().Query(context.Background(), srv.LocalAddr(), "www.drain.test.", dnswire.TypeA)
		got <- result{resp, err}
	}()

	// Let the query land in the handler, then drain.
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	if !srv.Draining() {
		t.Error("Draining() false after Shutdown")
	}

	// The in-flight query still got its answer.
	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight query lost during drain: %v", r.err)
	}
	if len(r.resp.Answers) != 1 {
		t.Errorf("in-flight answers = %v", r.resp.Answers)
	}

	// New queries are refused service now.
	c := realClient()
	c.Timeout = 200 * time.Millisecond
	if _, err := c.Query(context.Background(), srv.LocalAddr(), "www.drain.test.", dnswire.TypeA); err == nil {
		t.Error("query answered after drain completed")
	}
}

func TestGracefulDrainDeadline(t *testing.T) {
	z := NewZone("drain.test.")
	if err := z.AddA("www.drain.test.", 60, netip.MustParseAddr("192.0.2.77")); err != nil {
		t.Fatal(err)
	}
	srv := &Server{
		Addr:    "127.0.0.1:0",
		Handler: Chain(&slowPlugin{delay: 2 * time.Second}, NewZonePlugin(z)),
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		c := realClient()
		c.Timeout = 3 * time.Second
		_, err := c.Query(context.Background(), srv.LocalAddr(), "www.drain.test.", dnswire.TypeA)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Errorf("Shutdown = %v, want DeadlineExceeded", err)
	}
	<-done // unblock the client goroutine before the test exits
}

// waitOdd is a plugin that says it waits for every name with an odd
// digit in front, so that half the queries are finished — reply sent,
// served counted — by a goroutine that has given its socket away.
type waitOdd struct{}

func (waitOdd) Name() string { return "waitodd" }

func (waitOdd) ServeDNS(ctx context.Context, w ResponseWriter, r *Request, next Handler) (dnswire.Rcode, error) {
	if name := r.Name(); (name[1]-'0')%2 == 1 && !r.mayWait() {
		return dnswire.RcodeServerFailure, errIngressFull
	}
	return next.ServeDNS(ctx, w, r)
}

// TestWorkerCounterAggregationExact pins the sharded-counter contract:
// with per-socket cells instead of shared atomics, the aggregated
// totals must still be exact — the sum over the sockets' packet cells
// equals the number of packets sent, and the sum over their served
// cells the number of responses the clients actually received, whether
// the socket's lead sent them or a goroutine that had handed the
// socket on. Run under -race this also exercises the cells from every
// goroutine that touches them.
func TestWorkerCounterAggregationExact(t *testing.T) {
	zone := NewZone("agg.test.")
	const names = 8
	for i := 0; i < names; i++ {
		if err := zone.AddA(fmt.Sprintf("n%d.agg.test.", i), 60, netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	srv := &Server{
		Addr:       "127.0.0.1:0",
		Handler:    Chain(waitOdd{}, NewZonePlugin(zone)),
		Sockets:    2,
		queueDepth: 256, // roomy: this test is about counting, not shedding
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	const clients, iters = 4, 48
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := realClient()
			cl.Retries = 0 // retries would skew the exact packet count
			cl.Timeout = 5 * time.Second
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("n%d.agg.test.", (c*iters+i)%names)
				if _, err := cl.Query(context.Background(), srv.LocalAddr(), name, dnswire.TypeA); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// served is bumped after the response is sent, so the last client
	// can observe its answer a beat before the counter lands.
	const total = clients * iters
	waitFor(t, 2*time.Second, func() bool { return srv.ServedPackets() == total })

	packets, batches := srv.BatchStats()
	if packets != total {
		t.Errorf("shard packet counters sum to %d, want %d", packets, total)
	}
	if served := srv.ServedPackets(); served != total {
		t.Errorf("worker served counters sum to %d, want %d", served, total)
	}
	if dropped := srv.DroppedPackets(); dropped != 0 {
		t.Errorf("%d packets shed with a roomy queue", dropped)
	}
	if batches == 0 || batches > packets {
		t.Errorf("batches = %d, want in [1, %d]", batches, packets)
	}
	perSocket := srv.SocketPackets()
	if len(perSocket) != srv.NumSockets() {
		t.Errorf("SocketPackets has %d entries for %d sockets", len(perSocket), srv.NumSockets())
	}
	var sum uint64
	for _, n := range perSocket {
		sum += n
	}
	if sum != total {
		t.Errorf("per-socket packets %v sum to %d, want %d", perSocket, sum, total)
	}

	// The new serve-loop families aggregate those cells at scrape time.
	reg := telemetry.NewRegistry()
	reg.MustRegister(srv.Collectors()...)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	families := []string{"meccdn_dns_udp_packets_total", "meccdn_dns_udp_batches_total", "meccdn_dns_udp_send_errors_total"}
	for i, n := range perSocket {
		if n > 0 { // a counter family prints only what it has counted
			families = append(families, fmt.Sprintf(`meccdn_dns_udp_socket_packets_total{socket="%d"} %d`, i, n))
		}
	}
	for _, family := range families {
		if !strings.Contains(b.String(), family) {
			t.Errorf("exposition missing %s", family)
		}
	}
	if !strings.Contains(b.String(), fmt.Sprintf("meccdn_dns_udp_packets_total %d", total)) {
		t.Errorf("packets_total family does not expose the aggregated value %d:\n%s", total, b.String())
	}
}

// TestBatchDrainOnShutdown pins the drain contract on the batched
// ingress path: a burst accepted as one or more multi-packet batches
// before Shutdown begins is still fully served and flushed, and the
// counters stay consistent (every counted packet is either served or
// deliberately dropped; nothing is lost in a half-processed batch).
func TestBatchDrainOnShutdown(t *testing.T) {
	z := NewZone("bdrain.test.")
	if err := z.AddA("www.bdrain.test.", 60, netip.MustParseAddr("192.0.2.88")); err != nil {
		t.Fatal(err)
	}
	srv := &Server{
		Addr:       "127.0.0.1:0",
		Handler:    Chain(&slowPlugin{delay: 3 * time.Millisecond}, NewZonePlugin(z)),
		queueDepth: 64, // roomy: every query of the burst waits at once
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}

	q := new(dnswire.Message)
	q.SetQuestion("www.bdrain.test.", dnswire.TypeA)
	q.ID = 7
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("udp", srv.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const burst = 20
	for i := 0; i < burst; i++ {
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
	}

	// Let the socket's loop start on the burst, then drain.
	waitFor(t, 2*time.Second, func() bool { p, _ := srv.BatchStats(); return p > 0 })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}

	// Every response sent must be readable even though the server is
	// gone; count them.
	responses := 0
	buf := make([]byte, 2048)
	for {
		conn.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
		if _, err := conn.Read(buf); err != nil {
			break
		}
		responses++
	}

	packets, _ := srv.BatchStats()
	served := srv.ServedPackets()
	dropped := srv.DroppedPackets()
	if served == 0 {
		t.Fatal("no packets served before drain")
	}
	if uint64(responses) != served {
		t.Errorf("client read %d responses, server counted %d served; drain lost replies", responses, served)
	}
	if served+dropped != packets {
		t.Errorf("served (%d) + dropped (%d) != packets read (%d)", served, dropped, packets)
	}
}

// TestUDPTruncatesOversizedResponse pins the truncation contract on
// both serve paths: a response that cannot fit the client's advertised
// UDP payload (512 bytes without EDNS) must be cut down with TC=1 and
// sent small — never sent oversized, and never mutated in place in a
// message another goroutine may share. The second query repeats the
// check through the cache, whose stored wire image is larger than the
// limit and is cut down by the ingress's writer in its own buffer, not
// sent oversized. Either way no answer is left in the cut reply.
func TestUDPTruncatesOversizedResponse(t *testing.T) {
	zone := NewZone("big.test.")
	const rrs = 40 // ~650 bytes packed: comfortably past the 512-byte plain-UDP limit
	for i := 0; i < rrs; i++ {
		if err := zone.AddA("www.big.test.", 300, netip.AddrFrom4([4]byte{10, 9, byte(i >> 8), byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	cache := NewCache(vclock.NewReal())
	srv := &Server{
		Addr:    "127.0.0.1:0",
		Handler: Chain(cache, NewZonePlugin(zone)),
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	conn, err := net.Dial("udp", srv.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ask := func(id uint16, label string) {
		t.Helper()
		q := new(dnswire.Message)
		q.SetQuestion("www.big.test.", dnswire.TypeA)
		q.ID = id // deliberately no EDNS: the server may send at most 512 bytes
		wire, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4096)
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if n > dnswire.MaxUDPSize {
			t.Fatalf("%s: response is %d bytes, exceeds the %d-byte plain-UDP limit", label, n, dnswire.MaxUDPSize)
		}
		var resp dnswire.Message
		if err := resp.Unpack(buf[:n]); err != nil {
			t.Fatalf("%s: truncated response does not parse: %v", label, err)
		}
		if resp.ID != id {
			t.Fatalf("%s: response ID = %d, want %d", label, resp.ID, id)
		}
		if !resp.Truncated {
			t.Errorf("%s: oversized response sent without TC=1", label)
		}
		if len(resp.Answers) != 0 {
			t.Errorf("%s: truncated response still carries %d of %d answers", label, len(resp.Answers), rrs)
		}
	}

	ask(0x1111, "authoritative path")
	waitFor(t, time.Second, func() bool { return cache.Stats().Entries > 0 })
	ask(0x2222, "cached path")
	if st := cache.Stats(); st.Hits == 0 {
		t.Errorf("second query did not hit the cache (hits=%d misses=%d)", st.Hits, st.Misses)
	}
}

// TestRecvTerminal pins which receive errors end a socket's loop: a
// closed socket and the drain deadline, however wrapped, and nothing
// else — above all not the errnos memory pressure produces, which at
// one time made the socket deaf for the life of the process.
func TestRecvTerminal(t *testing.T) {
	wrap := func(err error) error { return &net.OpError{Op: "read", Net: "udp", Err: err} }
	for _, tc := range []struct {
		err      error
		terminal bool
	}{
		{net.ErrClosed, true},
		{wrap(net.ErrClosed), true},
		{os.ErrDeadlineExceeded, true},
		{wrap(os.ErrDeadlineExceeded), true},
		{syscall.ENOBUFS, false},
		{syscall.ENOMEM, false},
		{wrap(os.NewSyscallError("recvmmsg", syscall.ENOBUFS)), false},
		{syscall.ECONNREFUSED, false},
		{syscall.EBADF, false},
		{io.EOF, false},
		{errors.New("anything else"), false},
	} {
		if got := recvTerminal(tc.err); got != tc.terminal {
			t.Errorf("recvTerminal(%v) = %v, want %v", tc.err, got, tc.terminal)
		}
	}
}

// hitZone is a zone whose one name the tests keep cached.
func hitZone(t *testing.T) Plugin {
	t.Helper()
	z := NewZone("hit.test.")
	if err := z.AddA("www.hit.test.", 300, netip.MustParseAddr("192.0.2.10")); err != nil {
		t.Fatal(err)
	}
	return NewZonePlugin(z)
}

// TestHitsDoNotWaitBehindUpstream: eight misses, each 150 ms in an
// upstream exchange, are outstanding on one flow when a cached name is
// asked on the same flow. The hit is answered at once, because each
// miss gave the socket away before it began to wait. (With a worker
// pool of GOMAXPROCS the hit waited for a worker: 583 ms at 2 cores.)
func TestHitsDoNotWaitBehindUpstream(t *testing.T) {
	tr := &dnsclient.NetTransport{}
	defer tr.Close()
	fwd := &Forward{
		Upstreams: []netip.AddrPort{scriptedUpstream(t, 150*time.Millisecond, func(_ *dnswire.Message, raw []byte) [][]byte {
			reply := append([]byte(nil), raw...)
			reply[2] |= 0x80 // QR: the query, echoed, is its own empty answer
			return [][]byte{reply}
		})},
		Client: &dnsclient.Client{Transport: tr, Timeout: 2 * time.Second},
	}
	srv := &Server{Addr: "127.0.0.1:0", Handler: Chain(NewCache(vclock.NewReal()), hitZone(t), fwd)}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	f := dialIngress(t, "udp", srv.LocalAddr())
	f.send("www.hit.test.", 1) // warm: from here on the name is a cache hit
	if _, rcode, ok := f.recv(2 * time.Second); !ok || rcode != dnswire.RcodeSuccess {
		t.Fatalf("warm-up: ok=%v rcode=%v", ok, rcode)
	}
	const misses = 8
	for i := 0; i < misses; i++ {
		f.send(fmt.Sprintf("m%d.slow.test.", i), uint16(100+i))
		time.Sleep(2 * time.Millisecond)
	}
	start := time.Now()
	f.send("www.hit.test.", 2)
	answered := 0
	for answered < misses+1 {
		id, _, ok := f.recv(2 * time.Second)
		if !ok {
			t.Fatalf("only %d of %d replies arrived", answered, misses+1)
		}
		answered++
		if id != 2 {
			continue
		}
		if d := time.Since(start); d > 20*time.Millisecond {
			t.Errorf("cached answer took %v behind %d upstream exchanges, want < 20ms", d, misses)
		}
		if answered != 1 {
			t.Errorf("cached answer arrived after %d of the misses it was sent behind", answered-1)
		}
	}
}

// gate is a plugin standing in for a blocking upstream: it says it
// waits, then holds every query that reaches it until opened.
type gate chan struct{}

func (g gate) Name() string { return "gate" }

func (g gate) ServeDNS(ctx context.Context, w ResponseWriter, r *Request, next Handler) (dnswire.Rcode, error) {
	if !r.mayWait() {
		return dnswire.RcodeServerFailure, errIngressFull
	}
	<-g
	return dnswire.RcodeRefused, nil
}

// TestShedContract is the overload contract, exact at any core count
// (run it with -cpu 1,2,4): every datagram read is either served or
// shed, never both and never neither.
func TestShedContract(t *testing.T) {
	// All-hit traffic, 64 deep on one flow: nothing shed, nothing lost.
	t.Run("hits", func(t *testing.T) {
		srv := &Server{Addr: "127.0.0.1:0", Handler: Chain(NewCache(vclock.NewReal()), hitZone(t))}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		f := dialIngress(t, "udp", srv.LocalAddr())
		f.send("www.hit.test.", 0)
		if _, _, ok := f.recv(2 * time.Second); !ok {
			t.Fatal("warm-up lost")
		}
		const total, window = 20000, 64
		sent, got := 0, 0
		for got < total {
			for sent < total && sent-got < window {
				f.send("www.hit.test.", uint16(sent))
				sent++
			}
			if _, rcode, ok := f.recv(2 * time.Second); !ok || rcode != dnswire.RcodeSuccess {
				t.Fatalf("reply %d of %d: ok=%v rcode=%v", got, total, ok, rcode)
			}
			got++
		}
		if packets, _ := srv.BatchStats(); packets != total+1 || srv.DroppedPackets() != 0 {
			t.Errorf("read %d, shed %d; want %d read, none shed", packets, srv.DroppedPackets(), total+1)
		}
	})

	// Four queries may wait; the upstream is shut. Misses beyond the
	// four are shed, the hits between them all answered.
	t.Run("overload", func(t *testing.T) {
		upstream := make(gate)
		srv := &Server{
			Addr:       "127.0.0.1:0",
			Handler:    Chain(NewCache(vclock.NewReal()), hitZone(t), upstream),
			queueDepth: 4,
		}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		f := dialIngress(t, "udp", srv.LocalAddr())
		f.send("www.hit.test.", 0) // warm: a miss the zone answers from the CPU, so it neither waits nor reaches the gate
		if _, _, ok := f.recv(2 * time.Second); !ok {
			t.Fatal("warm-up lost")
		}
		waitFor(t, 2*time.Second, func() bool { return srv.IngressLoad() == 0 })
		const rounds, window = 400, 64
		hits, sent := 0, 0
		for hits < rounds {
			for sent < rounds && sent-hits < window/2 { // a miss and a hit per round: 64 datagrams out
				f.send(fmt.Sprintf("m%d.miss.test.", sent), uint16(10000+sent))
				f.send("www.hit.test.", uint16(sent))
				sent++
			}
			id, rcode, ok := f.recv(2 * time.Second)
			if !ok || id >= 10000 || rcode != dnswire.RcodeSuccess {
				t.Fatalf("hit %d of %d: ok=%v id=%d rcode=%v (no miss can have been answered yet)", hits, rounds, ok, id, rcode)
			}
			hits++
		}
		if got := srv.IngressLoad(); got != 1 {
			t.Errorf("IngressLoad = %v with the bound reached, want 1", got)
		}
		close(upstream)
		for i := 0; i < 4; i++ {
			if id, rcode, ok := f.recv(2 * time.Second); !ok || id < 10000 || rcode != dnswire.RcodeRefused {
				t.Fatalf("released miss %d: ok=%v id=%d rcode=%v", i, ok, id, rcode)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := f.recv(50 * time.Millisecond); ok {
			t.Error("a shed datagram was answered")
		}
		packets, _ := srv.BatchStats()
		served, dropped := srv.ServedPackets(), srv.DroppedPackets()
		if packets != 1+2*rounds || served != 1+rounds+4 || dropped != rounds-4 {
			t.Errorf("read %d, served %d, shed %d; want %d, %d, %d", packets, served, dropped, 1+2*rounds, 1+rounds+4, rounds-4)
		}
		if got := srv.IngressLoad(); got != 0 {
			t.Errorf("IngressLoad = %v after the drain, want 0", got)
		}
	})
}

// cdnRouter stands in for the embedded C-DNS router (a *cdn.Router,
// which this package's tests cannot import): it answers every name
// under cdn.test. from the CPU and passes the rest on.
type cdnRouter struct{}

func (cdnRouter) Name() string { return "router" }

func (cdnRouter) ServeDNS(ctx context.Context, w ResponseWriter, r *Request, next Handler) (dnswire.Rcode, error) {
	if !dnswire.IsSubdomain("cdn.test.", r.Name()) {
		return next.ServeDNS(ctx, w, r)
	}
	return answerHandler("203.0.113.1").ServeDNS(ctx, w, r)
}

// TestCPUOnlyMissesDoNotAsk: only the code that blocks asks to wait. A
// cache miss the zone or the router answers never calls the wait hook;
// a miss that reaches the upstream asks once, there.
func TestCPUOnlyMissesDoNotAsk(t *testing.T) {
	upstream := make(gate)
	close(upstream) // it asks, then answers at once
	chain := Chain(NewCache(vclock.NewReal()), hitZone(t), cdnRouter{}, upstream)
	asked := 0
	st := &serveScratch{intern: dnswire.NewNameIntern(0), wait: func() bool { asked++; return true }}
	client := netip.MustParseAddrPort("198.51.100.9:5300")
	for _, tc := range []struct {
		name  string
		asks  int
		rcode dnswire.Rcode
	}{
		{"www.hit.test.", 0, dnswire.RcodeSuccess},    // a zone answer, stored
		{"nope.hit.test.", 0, dnswire.RcodeNameError}, // a zone NXDOMAIN, stored
		{"a.cdn.test.", 0, dnswire.RcodeSuccess},      // a router answer, stored
		{"www.hit.test.", 0, dnswire.RcodeSuccess},    // a hit
		{"m.miss.test.", 1, dnswire.RcodeRefused},     // the upstream's exchange asks
		{"WWW.CDN.TEST.", 0, dnswire.RcodeSuccess},    // another router answer
		{"m.miss.test.", 1, dnswire.RcodeRefused},     // REFUSED is not stored: asks again
	} {
		before := asked
		q := new(dnswire.Message)
		q.SetQuestion(tc.name, dnswire.TypeA)
		buf, _ := serveQuery(context.Background(), chain, nil, st, mustPack(t, q), client, "udp", maxUDPPayload)
		if buf == nil {
			t.Fatalf("%s: no reply", tc.name)
		}
		rcode := dnswire.Rcode(buf[3] & 0xF)
		dnswire.PutBuffer(buf)
		if got := asked - before; got != tc.asks || rcode != tc.rcode {
			t.Errorf("%s: asked to wait %d times, rcode %v; want %d, %v", tc.name, got, rcode, tc.asks, tc.rcode)
		}
	}
}

// TestCPUOnlyMissesAnsweredWhenQueueFull is the DoS-threshold promise
// for names not yet cached: with queueDepth queries parked at a shut
// upstream, a never-seen zone name and a never-seen router name are
// answered, nothing more is shed and no place in the queue is taken.
func TestCPUOnlyMissesAnsweredWhenQueueFull(t *testing.T) {
	upstream := make(gate)
	srv := &Server{
		Addr:       "127.0.0.1:0",
		Handler:    Chain(NewCache(vclock.NewReal()), hitZone(t), cdnRouter{}, upstream),
		queueDepth: 4,
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(upstream)
	f := dialIngress(t, "udp", srv.LocalAddr())
	for i := 0; i < 4; i++ {
		f.send(fmt.Sprintf("m%d.miss.test.", i), uint16(100+i))
	}
	waitFor(t, 2*time.Second, func() bool { return srv.IngressLoad() == 1 })
	for i, name := range []string{"www.hit.test.", "nope.hit.test.", "a.cdn.test.", "b.cdn.test."} {
		f.send(name, uint16(i))
		id, rcode, ok := f.recv(2 * time.Second)
		if !ok || id != uint16(i) || rcode == dnswire.RcodeServerFailure {
			t.Fatalf("%s, never seen, behind a full queue: ok=%v id=%d rcode=%v", name, ok, id, rcode)
		}
		if got := srv.IngressLoad(); got != 1 {
			t.Errorf("%s: IngressLoad = %v, want 1 (the four parked queries)", name, got)
		}
	}
	if n := srv.DroppedPackets(); n != 0 {
		t.Errorf("%d datagrams shed; a miss the CPU answers must not be", n)
	}
}

// hold is a plugin that, once armed, keeps the next query for name on
// the goroutine serving it until released: it does not say it waits,
// so on UDP it holds the socket's lead.
type hold struct {
	name             string
	armed            atomic.Bool
	entered, release chan struct{}
}

func (h *hold) Name() string { return "hold" }

func (h *hold) ServeDNS(ctx context.Context, w ResponseWriter, r *Request, next Handler) (dnswire.Rcode, error) {
	if r.Name() == h.name && h.armed.CompareAndSwap(true, false) {
		close(h.entered)
		<-h.release
	}
	return next.ServeDNS(ctx, w, r)
}

// TestShedLeaderJoinersGetServfail: a cache leader refused at the
// exchange after another query joined its flight drops nobody silently.
// The joiner, which was let wait, gets SERVFAIL; the leader gets no
// reply — no stale entry revives it — and is counted once as shed;
// every datagram read is served or shed, and every pooled buffer comes
// back (run it with -tags pooldebug).
func TestShedLeaderJoinersGetServfail(t *testing.T) {
	const name = "x.shed.test."
	clock := new(stepClock)
	cache := NewCache(clock)
	cache.MaxStale = time.Hour
	shut, warmed := make(gate), atomic.Bool{}
	// The upstream asks, as Forward does; it answers the warm-up, then
	// holds every query at the shut gate.
	upstream := pluginize(HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		if !r.mayWait() {
			return dnswire.RcodeServerFailure, errIngressFull
		}
		if warmed.CompareAndSwap(false, true) {
			return answerHandler("192.0.2.99").ServeDNS(ctx, w, r)
		}
		<-shut
		return dnswire.RcodeRefused, nil
	}))
	held := &hold{name: name, entered: make(chan struct{}), release: make(chan struct{})}
	srv := &Server{Addr: "127.0.0.1:0", Handler: Chain(cache, held, upstream), queueDepth: 2}
	base := poolOutstanding()
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	release := sync.OnceFunc(func() { close(held.release) })
	defer release()
	open := sync.OnceFunc(func() { close(shut) })
	defer open()

	// The name's entry expires into its serve-stale window: a failed
	// refill would be answered from it.
	f := dialIngress(t, "udp", srv.LocalAddr())
	f.send(name, 1)
	if _, rcode, ok := f.recv(2 * time.Second); !ok || rcode != dnswire.RcodeSuccess {
		t.Fatalf("warm-up: ok=%v rcode=%v", ok, rcode)
	}
	clock.Advance(time.Minute)
	// Both places in the queue are taken.
	f.send("m0.shed.test.", 100)
	f.send("m1.shed.test.", 101)
	waitFor(t, 2*time.Second, func() bool { return srv.IngressLoad() == 1 })

	// The leader's refill is held in front of the upstream while a TCP
	// query, which no queue bounds, joins its flight.
	held.armed.Store(true)
	f.send(name, 2)
	select {
	case <-held.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("the refill never led a flight: the miss was shed at the cache")
	}
	joiner := make(chan dnswire.Rcode, 1)
	tcp, query := dialIngress(t, "tcp", srv.LocalAddr()), mustPack(t, queryFor(name).Msg)
	go func() {
		rcode := dnswire.Rcode(0xF) // no reply: not an rcode the test expects
		if reply, err := tcp.ask(query); err == nil && len(reply) >= 12 {
			rcode = dnswire.Rcode(reply[3] & 0xF)
		}
		joiner <- rcode
	}()
	waitFor(t, 2*time.Second, func() bool { return cache.Stats().Coalesced == 1 })
	release()
	select {
	case rcode := <-joiner:
		if rcode != dnswire.RcodeServerFailure {
			t.Errorf("the joiner of a shed leader got rcode %v, want SERVFAIL", rcode)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the joiner of a shed leader got no reply")
	}
	waitFor(t, 2*time.Second, func() bool { return srv.DroppedPackets() == 1 })

	open()
	for i := 0; i < 2; i++ {
		if id, rcode, ok := f.recv(2 * time.Second); !ok || id < 100 || rcode != dnswire.RcodeRefused {
			t.Fatalf("released query %d: ok=%v id=%d rcode=%v", i, ok, id, rcode)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if id, _, ok := f.recv(50 * time.Millisecond); ok {
		t.Errorf("the shed leader was answered (id %d)", id)
	}
	packets, _ := srv.BatchStats()
	if served, dropped := srv.ServedPackets(), srv.DroppedPackets(); packets != 4 || served != 3 || dropped != 1 {
		t.Errorf("read %d, served %d, shed %d; want 4, 3, 1", packets, served, dropped)
	}
	if st := cache.Stats(); st.StaleServes != 0 {
		t.Errorf("%d stale serves: the shed leader was revived", st.StaleServes)
	}
	waitFor(t, 2*time.Second, func() bool { return poolOutstanding() <= base })
}

// TestShedJoinerLeavesFlight: a query refused when it asks to wait on
// another query's flight leaves the flight at once, with no reply; the
// leader, now alone, answers from its own exchange, and the flight and
// its buffer go back for the next miss.
func TestShedJoinerLeavesFlight(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	backend := HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		close(entered)
		<-release
		return answerHandler("192.0.2.77").ServeDNS(ctx, w, r)
	})
	cache := NewCache(vclock.NewReal())
	h := Chain(cache, pluginize(backend))
	base := poolOutstanding()
	leader := make(chan *dnswire.Message, 1)
	go func() { leader <- Resolve(context.Background(), h, queryFor("join.test.")) }()
	<-entered

	asked := 0
	st := &serveScratch{intern: dnswire.NewNameIntern(0), wait: func() bool { asked++; return false }}
	q := new(dnswire.Message)
	q.SetQuestion("join.test.", dnswire.TypeA)
	if buf, _ := serveQuery(context.Background(), h, nil, st, mustPack(t, q), netip.MustParseAddrPort("198.51.100.9:5300"), "udp", maxUDPPayload); buf != nil {
		dnswire.PutBuffer(buf)
		t.Error("a joiner refused a place in the queue was answered")
	}
	if asked != 1 || cache.Stats().Coalesced != 0 {
		t.Errorf("the joiner asked %d times and was counted coalesced %d times; want 1 and 0", asked, cache.Stats().Coalesced)
	}
	close(release)
	if resp := <-leader; resp == nil || len(resp.Answers) != 1 {
		t.Fatalf("the leader got %v", resp)
	}
	for _, sh := range cache.shards {
		sh.mu.Lock()
		if len(sh.flights) != 0 {
			t.Errorf("%d flights still indexed", len(sh.flights))
		}
		sh.mu.Unlock()
	}
	if out := poolOutstanding(); out != base {
		t.Errorf("%d pooled buffers outstanding", out-base)
	}
}

// TestDrainSweepsSocketBuffer: datagrams the kernel was still holding
// when Shutdown began — sent while the socket's lead was busy — are
// read by the final sweep and answered.
func TestDrainSweepsSocketBuffer(t *testing.T) {
	busy, release := make(chan struct{}, 8), make(chan struct{})
	h := HandlerFunc(func(context.Context, ResponseWriter, *Request) (dnswire.Rcode, error) {
		busy <- struct{}{}
		<-release // holds the lead itself: it does not say it waits
		return dnswire.RcodeRefused, nil
	})
	srv := &Server{Addr: "127.0.0.1:0", Handler: h}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	f := dialIngress(t, "udp", srv.LocalAddr())
	f.send("first.sweep.test.", 0)
	<-busy
	const behind = 5
	for i := 1; i <= behind; i++ {
		f.send("behind.sweep.test.", uint16(i))
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	waitFor(t, 2*time.Second, srv.Draining)
	time.Sleep(10 * time.Millisecond) // let Shutdown reach its wait
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i := 0; i <= behind; i++ {
		if _, _, ok := f.recv(time.Second); !ok {
			t.Fatalf("only %d of %d datagrams sent before Shutdown were answered", i, behind+1)
		}
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
		queueDepth: 256, // roomy: this test is about reuse, not shedding
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
		queueDepth: 8, // datagrams
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
// bound, and a scrape of the drained server reads every datagram as
// served or shed.
func TestUDPQueueOverflowSheds(t *testing.T) {
	z := NewZone("flood.test.")
	if err := z.AddA("www.flood.test.", 60, netip.MustParseAddr("192.0.2.1")); err != nil {
		t.Fatal(err)
	}
	srv := &Server{
		Addr:       "127.0.0.1:0",
		Handler:    Chain(&slowPlugin{delay: 100 * time.Millisecond}, NewZonePlugin(z)),
		queueDepth: 1, // datagram
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

	// Drained, the scrape shows every datagram read as served or shed:
	// 30 == 1 + 29.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, sample := range []string{
		"meccdn_dns_udp_packets_total 30\n", "meccdn_dns_udp_served_total 1\n", "meccdn_dns_udp_dropped_total 29\n",
	} {
		if !strings.Contains(b.String(), sample) {
			t.Errorf("drained exposition missing %q", sample)
		}
	}
}

// TestIngressLoad: the load signal is the share of queueDepth taken by
// UDP queries waiting on the network, read off a live server whose
// upstream is held shut.
func TestIngressLoad(t *testing.T) {
	upstream := make(gate)
	s := &Server{Addr: "127.0.0.1:0", Handler: Chain(upstream), queueDepth: 4}
	if got := s.IngressLoad(); got != 0 {
		t.Fatalf("IngressLoad before Start = %v, want 0", got)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer close(upstream)
	if got := s.IngressLoad(); got != 0 {
		t.Fatalf("IngressLoad with nothing waiting = %v, want 0", got)
	}
	f := dialIngress(t, "udp", s.LocalAddr())
	for i, want := range []float64{0.25, 0.5, 0.75, 1, 1} { // the fifth is shed
		f.send("load.test.", uint16(i))
		waitFor(t, 2*time.Second, func() bool { return s.IngressLoad() == want })
	}
	waitFor(t, 2*time.Second, func() bool { return s.DroppedPackets() == 1 })
	if got := s.IngressLoad(); got != 1 {
		t.Fatalf("IngressLoad at the bound = %v, want 1", got)
	}
}

// TestTCPMaxConns pins the connection cap: with maxConns held open by
// idle connections, the next accept is closed immediately (counted on
// the reject counter), and closing one of the idle
// connections frees a slot for a new client.
func TestTCPMaxConns(t *testing.T) {
	srv := startTestServer(t, &Server{Handler: shardChain(t), maxConns: 2})
	addr := srv.LocalAddr()
	query := mustPack(t, queryFor("www.shard.test.").Msg)

	// Two connections fill the cap; a query on each proves they are
	// registered and being served, then they sit idle holding slots.
	conn1 := dialIngress(t, "tcp", addr)
	if _, err := conn1.ask(query); err != nil {
		t.Fatal(err)
	}
	if _, err := dialIngress(t, "tcp", addr).ask(query); err != nil {
		t.Fatal(err)
	}

	// The third connection must be closed at accept: the read sees EOF
	// without a response ever arriving.
	conn3 := dialIngress(t, "tcp", addr)
	if _, err := conn3.ask(query); err == nil {
		t.Fatal("query succeeded on a connection beyond maxConns")
	}
	conn3.Close()
	if got := srv.RejectedConns(); got != 1 {
		t.Errorf("RejectedConns() = %d, want 1", got)
	}

	// Closing an idle connection frees its slot (asynchronously, as
	// its handler observes the close).
	conn1.Close()
	waitFor(t, 2*time.Second, func() bool {
		_, err := dialIngress(t, "tcp", addr).ask(query)
		return err == nil
	})
}

// TestServerResolveGarbageQueries feeds random (but unpackable)
// queries through a full chain; the server must answer, never panic.
func TestServerResolveGarbageQueries(t *testing.T) {
	h := Chain(NewZonePlugin(testZone(t)))
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := new(dnswire.Message)
		q.SetQuestion(randomName(rng, fmt.Sprintf("%s.", randomLabel(rng))), dnswire.Type(rng.Intn(300)))
		q.ID = uint16(rng.Intn(1 << 16))
		resp := Resolve(context.Background(), h, &Request{Msg: q, Transport: "test"})
		return resp != nil && resp.ID == q.ID
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
