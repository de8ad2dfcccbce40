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
		f.send("www.hit.test.", 0) // warm: a miss the zone answers, so it waits but never reaches the gate
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
