package dnsclient

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnswire"
)

// fakeUpstream is a loopback UDP listener whose reaction to each query
// the test scripts.
type fakeUpstream struct {
	conn *net.UDPConn
	addr netip.AddrPort
	done chan struct{}
}

// listenUpstream binds addr ("127.0.0.1:0", or a port to rebind) and
// calls handle for every datagram until the test ends or stop is
// called.
func listenUpstream(t *testing.T, addr string, handle func(u *fakeUpstream, from netip.AddrPort, query []byte)) *fakeUpstream {
	t.Helper()
	conn, err := net.ListenUDP("udp", net.UDPAddrFromAddrPort(netip.MustParseAddrPort(addr)))
	if err != nil {
		t.Fatal(err)
	}
	u := &fakeUpstream{conn: conn, addr: conn.LocalAddr().(*net.UDPAddr).AddrPort(), done: make(chan struct{})}
	go func() {
		defer close(u.done)
		buf := make([]byte, 4096)
		for {
			n, from, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			handle(u, from, append([]byte(nil), buf[:n]...))
		}
	}()
	t.Cleanup(u.stop)
	return u
}

func (u *fakeUpstream) stop() {
	u.conn.Close()
	<-u.done
}

func (u *fakeUpstream) send(t *testing.T, to netip.AddrPort, wire []byte) {
	if _, err := u.conn.WriteToUDPAddrPort(wire, to); err != nil {
		t.Errorf("upstream write: %v", err)
	}
}

// answering is the well-behaved upstream: one correct reply per query.
func answering(t *testing.T) func(*fakeUpstream, netip.AddrPort, []byte) {
	return func(u *fakeUpstream, from netip.AddrPort, query []byte) {
		u.send(t, from, answerFor(t, query, nil))
	}
}

func poolClient(tr *NetTransport, seed int64) *Client {
	c := &Client{Transport: tr, Timeout: 2 * time.Second}
	c.SetRand(rand.New(rand.NewSource(seed)))
	return c
}

func wantStats(t *testing.T, tr *NetTransport, want SocketStats) {
	t.Helper()
	if got := tr.Stats(); got != want {
		t.Errorf("socket stats = %+v, want %+v", got, want)
	}
}

func TestPoolSequentialExchangesDialOnce(t *testing.T) {
	up := listenUpstream(t, "127.0.0.1:0", answering(t))
	tr := &NetTransport{}
	defer tr.Close()
	c := poolClient(tr, 1)
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := c.Query(context.Background(), up.addr, "seq.test.", dnswire.TypeA); err != nil {
			t.Fatal(err)
		}
	}
	wantStats(t, tr, SocketStats{Dialed: 1, Reused: n - 1, Idle: 1})
}

// TestPoolIdleCap: with more exchanges in flight than the cap, every
// one gets a socket, and only the cap's worth stay idle afterwards.
func TestPoolIdleCap(t *testing.T) {
	const flights = 2 * maxIdleSockets
	// Each upstream holds its replies until all flights have arrived,
	// so every exchange needs a socket of its own.
	barrier := func() func(*fakeUpstream, netip.AddrPort, []byte) {
		type pending struct {
			from  netip.AddrPort
			query []byte
		}
		var held []pending // touched by the upstream's goroutine only
		return func(u *fakeUpstream, from netip.AddrPort, query []byte) {
			held = append(held, pending{from, query})
			if len(held) < flights {
				return
			}
			for _, p := range held {
				u.send(t, p.from, answerFor(t, p.query, nil))
			}
			held = nil
		}
	}
	ups := []*fakeUpstream{
		listenUpstream(t, "127.0.0.1:0", barrier()),
		listenUpstream(t, "127.0.0.1:0", barrier()),
	}
	tr := &NetTransport{}
	defer tr.Close()
	c := &Client{Transport: tr, Timeout: 5 * time.Second}
	for round := 1; round <= 2; round++ {
		var wg sync.WaitGroup
		for _, up := range ups {
			for i := 0; i < flights; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := c.Query(context.Background(), up.addr, "cap.test.", dnswire.TypeA); err != nil {
						t.Error(err)
					}
				}()
			}
		}
		wg.Wait()
		tr.mu.Lock()
		for _, up := range ups {
			if n := len(tr.idle[up.addr]); n != maxIdleSockets {
				t.Errorf("round %d: %d sockets idle for %v, want the cap %d", round, n, up.addr, maxIdleSockets)
			}
		}
		tr.mu.Unlock()
		st := tr.Stats()
		if st.Dialed-st.Discarded != uint64(st.Idle) {
			t.Errorf("round %d: %+v: dialed − discarded should be what is idle", round, st)
		}
	}
	// Round two found the cap's worth idle per upstream and dialed the
	// rest again.
	wantStats(t, tr, SocketStats{
		Dialed:    2 * (flights + flights - maxIdleSockets),
		Reused:    2 * maxIdleSockets,
		Discarded: 2 * 2 * (flights - maxIdleSockets),
		Idle:      2 * maxIdleSockets,
	})
}

// TestPoolUpstreamRestart: a query to a stopped upstream fails on the
// pooled socket (ECONNREFUSED on loopback) and that socket is closed,
// not kept; once the upstream is back on the same port the next query
// succeeds on a fresh one.
func TestPoolUpstreamRestart(t *testing.T) {
	up := listenUpstream(t, "127.0.0.1:0", answering(t))
	tr := &NetTransport{}
	defer tr.Close()
	c := poolClient(tr, 3)
	c.Timeout = 200 * time.Millisecond
	c.Retries = 1
	if _, err := c.Query(context.Background(), up.addr, "restart.test.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	up.stop()
	if _, err := c.Query(context.Background(), up.addr, "restart.test.", dnswire.TypeA); err == nil {
		t.Fatal("query to a stopped upstream succeeded")
	}
	// Both attempts' sockets are gone: the pooled one and the retry's.
	wantStats(t, tr, SocketStats{Dialed: 2, Reused: 1, Discarded: 2})

	listenUpstream(t, up.addr.String(), answering(t))
	if _, err := c.Query(context.Background(), up.addr, "restart.test.", dnswire.TypeA); err != nil {
		t.Fatalf("query after the upstream came back: %v", err)
	}
	wantStats(t, tr, SocketStats{Dialed: 3, Reused: 1, Discarded: 2, Idle: 1})
}

func TestPoolSocketAgeLimit(t *testing.T) {
	a := listenUpstream(t, "127.0.0.1:0", answering(t))
	b := listenUpstream(t, "127.0.0.1:0", answering(t))
	tr := &NetTransport{}
	defer tr.Close()
	c := poolClient(tr, 4)
	ask := func(up *fakeUpstream) {
		t.Helper()
		if _, err := c.Query(context.Background(), up.addr, "age.test.", dnswire.TypeA); err != nil {
			t.Fatal(err)
		}
	}
	age := func(up *fakeUpstream) {
		tr.mu.Lock()
		tr.idle[up.addr][0].born = time.Now().Add(-maxSocketAge)
		tr.mu.Unlock()
	}

	// take: an expired idle socket is closed, not reused.
	ask(a)
	age(a)
	ask(a)
	wantStats(t, tr, SocketStats{Dialed: 2, Discarded: 1, Idle: 1})

	// A dial for one upstream collects what expired for the others.
	age(a)
	ask(b)
	wantStats(t, tr, SocketStats{Dialed: 3, Discarded: 2, Idle: 1})

	// yield: a socket that expired during its exchange is not kept.
	s, err := tr.take(context.Background(), b.addr)
	if err != nil {
		t.Fatal(err)
	}
	s.born = time.Now().Add(-maxSocketAge)
	tr.yield(b.addr, s)
	wantStats(t, tr, SocketStats{Dialed: 3, Reused: 1, Discarded: 3})
}

func TestPoolClose(t *testing.T) {
	up := listenUpstream(t, "127.0.0.1:0", answering(t))
	tr := &NetTransport{}
	c := poolClient(tr, 5)
	for i := 0; i < 2; i++ {
		if _, err := c.Query(context.Background(), up.addr, "close.test.", dnswire.TypeA); err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		if idle := tr.Stats().Idle; idle != 0 {
			t.Fatalf("%d sockets idle after Close", idle)
		}
	}
	wantStats(t, tr, SocketStats{Dialed: 2, Discarded: 2})
}

// TestStrayDatagramIgnored: a datagram with the wrong ID ahead of the
// real reply neither fails the attempt nor answers it.
func TestStrayDatagramIgnored(t *testing.T) {
	up := listenUpstream(t, "127.0.0.1:0", func(u *fakeUpstream, from netip.AddrPort, query []byte) {
		u.send(t, from, answerFor(t, query, func(m *dnswire.Message) { m.ID ^= 0xFFFF }))
		u.send(t, from, []byte{0}) // too short to carry an ID at all
		u.send(t, from, answerFor(t, query, nil))
	})
	tr := &NetTransport{}
	defer tr.Close()
	c := poolClient(tr, 6)
	resp, err := c.Query(context.Background(), up.addr, "stray.test.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 {
		t.Errorf("answers = %d", len(resp.Answers))
	}
	wantStats(t, tr, SocketStats{Dialed: 1, Idle: 1})
}

// TestDuplicateReplyOnPooledSocket: an upstream that answers twice
// leaves its second copy queued on a socket that goes back to the
// pool. The next exchange on that socket must skip it.
func TestDuplicateReplyOnPooledSocket(t *testing.T) {
	up := listenUpstream(t, "127.0.0.1:0", func(u *fakeUpstream, from netip.AddrPort, query []byte) {
		reply := answerFor(t, query, nil)
		u.send(t, from, reply)
		u.send(t, from, reply)
	})
	tr := &NetTransport{}
	defer tr.Close()
	c := poolClient(tr, 7)
	for _, name := range []string{"first.test.", "second.test.", "third.test."} {
		resp, err := c.Query(context.Background(), up.addr, name, dnswire.TypeA)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := resp.Question().Name; got != name {
			t.Errorf("asked %s, answered %s", name, got)
		}
	}
	wantStats(t, tr, SocketStats{Dialed: 1, Reused: 2, Idle: 1})
}

// TestCancelWakesExchange: cancelling the context ends an exchange
// that is waiting for a reply, long before its deadline, and the
// socket — its query still outstanding — is closed.
func TestCancelWakesExchange(t *testing.T) {
	got := make(chan struct{}, 1)
	up := listenUpstream(t, "127.0.0.1:0", func(*fakeUpstream, netip.AddrPort, []byte) { got <- struct{}{} })
	tr := &NetTransport{}
	defer tr.Close()
	c := &Client{Transport: tr, Timeout: 30 * time.Second, Retries: 3}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-got // the query is on the wire, the exchange in its read
		cancel()
	}()
	start := time.Now()
	_, err := c.Query(ctx, up.addr, "cancel.test.", dnswire.TypeA)
	if !errors.Is(err, ErrAllAttemptsFail) {
		t.Fatalf("err = %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancelled exchange returned after %v", elapsed)
	}
	wantStats(t, tr, SocketStats{Dialed: 1, Discarded: 1})
}

// TestCancelledContextLeavesPoolAlone: an exchange whose context is
// already cancelled fails without touching the idle socket.
func TestCancelledContextLeavesPoolAlone(t *testing.T) {
	up := listenUpstream(t, "127.0.0.1:0", answering(t))
	tr := &NetTransport{}
	defer tr.Close()
	c := poolClient(tr, 8)
	if _, err := c.Query(context.Background(), up.addr, "pre.test.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Query(ctx, up.addr, "pre.test.", dnswire.TypeA); !errors.Is(err, ErrAllAttemptsFail) {
		t.Fatalf("err = %v", err)
	}
	wantStats(t, tr, SocketStats{Dialed: 1, Idle: 1})
	if _, err := c.Query(context.Background(), up.addr, "pre.test.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	wantStats(t, tr, SocketStats{Dialed: 1, Reused: 1, Idle: 1})
}

// TestAttemptDeadline: with no reply the attempt ends at the client's
// Timeout, or at the caller's own deadline when that is sooner.
func TestAttemptDeadline(t *testing.T) {
	up := listenUpstream(t, "127.0.0.1:0", func(*fakeUpstream, netip.AddrPort, []byte) {})
	tr := &NetTransport{}
	defer tr.Close()
	c := &Client{Transport: tr, Timeout: 30 * time.Millisecond, Retries: 1}
	start := time.Now()
	if _, err := c.Query(context.Background(), up.addr, "slow.test.", dnswire.TypeA); err == nil {
		t.Fatal("unanswered query succeeded")
	}
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond || elapsed > time.Second {
		t.Errorf("two 30ms attempts took %v", elapsed)
	}
	wantStats(t, tr, SocketStats{Dialed: 2, Discarded: 2})

	c.Timeout = 30 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start = time.Now()
	if _, err := c.Query(ctx, up.addr, "slow.test.", dnswire.TypeA); err == nil {
		t.Fatal("unanswered query succeeded")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("caller's 30ms deadline honoured after %v", elapsed)
	}
}
