package dnsserver

// Tests for the run-to-completion UDP ingress: the goroutine that reads
// a socket serves its datagrams inline, and a query that must wait on
// the network gives the socket away first (Request.mayWait).

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnsclient"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/vclock"
)

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

// flow is one client socket with many queries outstanding: replies are
// matched to queries by ID, so they may arrive in any order.
type flow struct {
	t    *testing.T
	conn net.Conn
	buf  []byte
}

func dialFlow(t *testing.T, srv *Server) *flow {
	t.Helper()
	conn, err := net.Dial("udp", srv.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &flow{t: t, conn: conn, buf: make([]byte, 4096)}
}

func (f *flow) send(name string, id uint16) {
	f.t.Helper()
	q := new(dnswire.Message)
	q.SetQuestion(name, dnswire.TypeA)
	q.ID = id
	if _, err := f.conn.Write(mustPack(f.t, q)); err != nil {
		f.t.Fatal(err)
	}
}

// recv returns the ID and rcode of the next reply, ok=false once
// nothing has arrived for timeout.
func (f *flow) recv(timeout time.Duration) (id uint16, rcode dnswire.Rcode, ok bool) {
	f.conn.SetReadDeadline(time.Now().Add(timeout))
	n, err := f.conn.Read(f.buf)
	if err != nil || n < 12 {
		return 0, 0, false
	}
	return uint16(f.buf[0])<<8 | uint16(f.buf[1]), dnswire.Rcode(f.buf[3] & 0xF), true
}

// slowUpstream is a loopback UDP server answering every query NOERROR,
// no records, delay after it arrived.
func slowUpstream(t *testing.T, delay time.Duration) netip.AddrPort {
	t.Helper()
	conn, err := net.ListenUDP("udp", net.UDPAddrFromAddrPort(netip.MustParseAddrPort("127.0.0.1:0")))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			buf := make([]byte, 512)
			n, from, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			buf[2] |= 0x80 // QR: the query, echoed, is its own empty answer
			wg.Add(1)
			time.AfterFunc(delay, func() {
				defer wg.Done()
				conn.WriteToUDPAddrPort(buf[:n], from)
			})
		}
	}()
	t.Cleanup(func() {
		conn.Close()
		wg.Wait()
	})
	return conn.LocalAddr().(*net.UDPAddr).AddrPort()
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
		Upstreams: []netip.AddrPort{slowUpstream(t, 150*time.Millisecond)},
		Client:    &dnsclient.Client{Transport: tr, Timeout: 2 * time.Second},
	}
	srv := &Server{Addr: "127.0.0.1:0", Handler: Chain(NewCache(vclock.NewReal()), hitZone(t), fwd)}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	f := dialFlow(t, srv)
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
		f := dialFlow(t, srv)
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
		f := dialFlow(t, srv)
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
	f := dialFlow(t, srv)
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

// tcpAsk sends one A question for name over a new TCP connection to
// srv and returns the reply's rcode, ok=false if none arrived.
func tcpAsk(srv *Server, name string) (rcode dnswire.Rcode, ok bool) {
	conn, err := net.Dial("tcp", srv.LocalAddr().String())
	if err != nil {
		return 0, false
	}
	defer conn.Close()
	q := new(dnswire.Message)
	q.SetQuestion(name, dnswire.TypeA)
	wire, err := q.Pack()
	if err != nil {
		return 0, false
	}
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if dnswire.WriteTCP(conn, wire) != nil {
		return 0, false
	}
	reply, err := dnswire.ReadTCP(conn)
	if err != nil {
		return 0, false
	}
	defer dnswire.PutBuffer(reply)
	return dnswire.Rcode(reply[3] & 0xF), len(reply) >= 12
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
	f := dialFlow(t, srv)
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
	go func() {
		rcode, ok := tcpAsk(srv, name)
		if !ok {
			rcode = 0xF // no reply: not an rcode the test expects
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
	f := dialFlow(t, srv)
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
