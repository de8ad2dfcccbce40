package dnsclient

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"slices"
	"sync"
	"time"

	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/simnet"
	"github.com/meccdn/meccdn/internal/telemetry"
)

// The idle-socket limits are constants, not fields: every caller in
// the repository builds the zero NetTransport, and nothing a
// deployment observes depends on tuning them.
const (
	// maxIdleSockets caps the idle UDP sockets kept per upstream. More
	// exchanges than this may run at once; the surplus sockets are
	// closed when their exchanges finish.
	maxIdleSockets = 16
	// maxSocketAge retires a UDP socket this long after it was dialed,
	// so the source ports a spoofer has to guess keep rotating
	// (RFC 5452 §9.2) however steady the traffic is.
	maxSocketAge = 10 * time.Second
)

// NetTransport exchanges DNS messages over real UDP and TCP sockets.
// The zero value is ready to use.
//
// UDP exchanges reuse connected sockets, kept idle per upstream: an
// exchange takes one (or dials), writes the query, reads until the
// datagram answering it arrives (checkReply), and hands the socket
// back. The pool's invariant is that an idle socket has no query
// outstanding: a socket goes back only after its own query's reply was
// read, and is closed on timeout, cancellation or any socket error, so
// a late reply can never reach another exchange. Expired sockets are
// closed when the pool is next touched; there is no background
// goroutine. TCP (truncation fallback, zone transfers) dials per
// exchange.
type NetTransport struct {
	// Dialer, if non-nil, overrides the default dialer (useful for
	// binding to a source address).
	Dialer *net.Dialer

	mu   sync.Mutex
	idle map[netip.AddrPort][]udpSocket // per upstream, most recently used last

	ctrOnce sync.Once
	sockets *telemetry.CounterVec
}

// udpSocket is a connected UDP socket and the time it was dialed.
type udpSocket struct {
	conn net.Conn
	born time.Time
}

func (s udpSocket) expired(now time.Time) bool { return now.Sub(s.born) >= maxSocketAge }

// SocketStats is a snapshot of the UDP socket pool.
type SocketStats struct {
	// Dialed counts sockets opened, Reused exchanges that took an idle
	// socket instead, and Discarded sockets closed: after an error,
	// timeout or cancellation, over the idle cap, past the age limit,
	// or by Close. Dialed − Discarded sockets are idle or in use.
	Dialed, Reused, Discarded uint64
	// Idle is the number of sockets waiting for an exchange.
	Idle int
}

// counters lazily builds the socket counter family, so NetTransport
// keeps working as a plain struct literal.
func (t *NetTransport) counters() *telemetry.CounterVec {
	t.ctrOnce.Do(func() {
		t.sockets = telemetry.NewCounterVec("meccdn_dns_upstream_sockets_total",
			"Upstream UDP sockets dialed, reused from the idle pool, and discarded (closed).", "result")
	})
	return t.sockets
}

// Collectors returns the socket pool's metric families for
// registration on a telemetry.Registry.
func (t *NetTransport) Collectors() []telemetry.Collector {
	return []telemetry.Collector{
		t.counters(),
		telemetry.NewGaugeFunc("meccdn_dns_upstream_sockets_idle",
			"Upstream UDP sockets idle in the pool.",
			func() float64 { return float64(t.idleCount()) }),
	}
}

// Stats returns a snapshot of the socket pool counters.
func (t *NetTransport) Stats() SocketStats {
	c := t.counters()
	return SocketStats{
		Dialed:    c.Value("dialed"),
		Reused:    c.Value("reused"),
		Discarded: c.Value("discarded"),
		Idle:      t.idleCount(),
	}
}

func (t *NetTransport) idleCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, stack := range t.idle {
		n += len(stack)
	}
	return n
}

// Close closes every idle socket. Sockets in use are unaffected, and
// the transport stays usable: a later exchange dials again.
func (t *NetTransport) Close() error {
	t.mu.Lock()
	idle := t.idle
	t.idle = nil
	t.mu.Unlock()
	for _, stack := range idle {
		for _, s := range stack {
			t.discard(s)
		}
	}
	return nil
}

// Exchange implements Transport. The context's deadline bounds the
// exchange, and cancelling the context ends it at once.
func (t *NetTransport) Exchange(ctx context.Context, server netip.AddrPort, query []byte, tcp bool) ([]byte, error) {
	if tcp {
		return t.exchangeTCP(ctx, server, query)
	}
	if len(query) < 12 {
		return nil, errors.New("dnsclient: query is shorter than a DNS header")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s, err := t.take(ctx, server)
	if err != nil {
		return nil, err
	}
	resp, err := roundTrip(ctx, s.conn, query)
	if err != nil {
		// The query may still be answered; closing the socket is what
		// keeps that reply away from every later exchange.
		t.discard(s)
		return nil, fmt.Errorf("udp exchange with %v: %w", server, err)
	}
	t.yield(server, s)
	return resp, nil
}

func (t *NetTransport) dial(ctx context.Context, network string, server netip.AddrPort) (net.Conn, error) {
	d := t.Dialer
	if d == nil {
		d = &net.Dialer{}
	}
	conn, err := d.DialContext(ctx, network, server.String())
	if err != nil {
		return nil, fmt.Errorf("dialing %s %v: %w", network, server, err)
	}
	return conn, nil
}

func (t *NetTransport) exchangeTCP(ctx context.Context, server netip.AddrPort, query []byte) ([]byte, error) {
	conn, err := t.dial(ctx, "tcp", server)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if deadline, ok := ctx.Deadline(); ok {
		if err := conn.SetDeadline(deadline); err != nil {
			return nil, err
		}
	}
	if err := dnswire.WriteTCP(conn, query); err != nil {
		return nil, err
	}
	return dnswire.ReadTCP(conn)
}

// take returns an idle socket connected to server, or dials one.
func (t *NetTransport) take(ctx context.Context, server netip.AddrPort) (udpSocket, error) {
	now := time.Now()
	t.mu.Lock()
	stack := t.idle[server]
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack[len(stack)-1] = udpSocket{}
		stack = stack[:len(stack)-1]
		if !s.expired(now) {
			t.idle[server] = stack
			t.mu.Unlock()
			t.counters().Inc1("reused")
			return s, nil
		}
		t.discard(s)
	}
	// Nothing idle for this upstream. A dial is rare once traffic is
	// steady, so it is also where sockets left behind by upstreams that
	// went quiet are collected: what sits idle is bounded by what was
	// dialed within the last maxSocketAge.
	delete(t.idle, server)
	for up, stack := range t.idle {
		stack = slices.DeleteFunc(stack, func(s udpSocket) bool {
			if s.expired(now) {
				t.discard(s)
				return true
			}
			return false
		})
		if len(stack) == 0 {
			delete(t.idle, up)
		} else {
			t.idle[up] = stack
		}
	}
	t.mu.Unlock()

	conn, err := t.dial(ctx, "udp", server)
	if err != nil {
		return udpSocket{}, err
	}
	t.counters().Inc1("dialed")
	return udpSocket{conn: conn, born: now}, nil
}

// yield returns a socket whose exchange completed to the idle pool,
// unless it is past its age limit or the upstream's pool is full.
func (t *NetTransport) yield(server netip.AddrPort, s udpSocket) {
	if s.expired(time.Now()) {
		t.discard(s)
		return
	}
	t.mu.Lock()
	stack := t.idle[server]
	if len(stack) >= maxIdleSockets {
		t.mu.Unlock()
		t.discard(s)
		return
	}
	if t.idle == nil {
		t.idle = make(map[netip.AddrPort][]udpSocket)
	}
	t.idle[server] = append(stack, s)
	t.mu.Unlock()
}

func (t *NetTransport) discard(s udpSocket) {
	s.conn.Close()
	t.counters().Inc1("discarded")
}

// aLongTimeAgo is a deadline in the past: setting it fails a blocked
// read immediately.
var aLongTimeAgo = time.Unix(1, 0)

// roundTrip writes query to conn and reads datagrams until one passes
// checkReply — the query's ID, the response bit, the question echoed —
// ignoring any that do not (RFC 5452 §9.1: a stray or spoofed datagram
// must neither end the wait for the real reply nor stand in for it; a
// flood of them cannot outlast the deadline). The reply is in a pooled
// buffer the caller recycles. On any error — the deadline, a
// cancelled ctx, a socket error such as ECONNREFUSED — the query may
// still be outstanding and conn must not be reused.
func roundTrip(ctx context.Context, conn net.Conn, query []byte) ([]byte, error) {
	// A zero deadline (ctx has none) clears the previous exchange's.
	deadline, _ := ctx.Deadline()
	if err := conn.SetDeadline(deadline); err != nil {
		return nil, err
	}
	// Cancellation wakes the blocked read instead of leaving it to the
	// deadline. A context that can never be cancelled needs no watcher.
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { _ = conn.SetReadDeadline(aLongTimeAgo) })
	}
	buf := dnswire.GetBuffer()
	n, err := writeAndRead(conn, query, buf)
	if stop != nil && !stop() {
		// The watcher ran, or is about to: whatever was read, this
		// socket's deadline is no longer this function's to set.
		err = ctx.Err()
	}
	if err != nil {
		dnswire.PutBuffer(buf)
		return nil, err
	}
	return buf[:n], nil
}

func writeAndRead(conn net.Conn, query, buf []byte) (int, error) {
	if _, err := conn.Write(query); err != nil {
		return 0, err
	}
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return 0, err
		}
		if checkReply(query, buf[:n]) == nil {
			return n, nil
		}
	}
}

// SimTransport exchanges DNS messages inside a simnet virtual network.
// Each exchange advances virtual time by the routed path delay plus
// the server's processing time; real time barely advances at all.
type SimTransport struct {
	// Endpoint is the simnet node this client sends from.
	Endpoint *simnet.Endpoint
	// Timeout is the virtual-time wait before an exchange is declared
	// lost. Zero means 2s, comfortably above any simulated RTT.
	Timeout time.Duration
}

// Exchange implements Transport. The tcp flag and context deadline are
// ignored: virtual datagrams are not size-limited and timeouts are
// virtual-time by construction.
func (t *SimTransport) Exchange(_ context.Context, server netip.AddrPort, query []byte, _ bool) ([]byte, error) {
	timeout := t.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	resp, _, err := t.Endpoint.Exchange(server.Addr(), query, timeout)
	if err != nil {
		return nil, err
	}
	return resp, nil
}
