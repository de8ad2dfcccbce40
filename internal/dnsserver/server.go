// Package dnsserver is a composable DNS server engine modeled on the
// CoreDNS plugin architecture the paper's prototype builds on.
//
// A server is a chain of plugins; each plugin either answers the
// query, rewrites it, or passes it to the next plugin. The same chain
// runs over real UDP/TCP sockets (Server) and inside a simnet virtual
// network (Attach), so the code path that answers a query in an
// experiment is byte-for-byte the one a real deployment would run.
//
// Plugins provided here mirror the pieces of the paper's MEC DNS:
//
//   - Zone: authoritative answers from in-memory zones (the
//     orchestrator's service registry, A-DNS emulation, C-DNS glue)
//   - Cache: sharded TTL-honouring response cache with negative
//     caching and singleflight miss coalescing
//   - Forward: upstream forwarding with rcode-aware failover,
//     per-upstream health cooldowns, and optional hedged queries
//     (provider L-DNS)
//   - Stub: sub-domain delegation to an upstream (CoreDNS
//     stub-domain, used to hand the CDN domain to the C-DNS);
//     safe for live reconfiguration
//   - Split: split-horizon namespaces (internal VNF vs public MEC-CDN)
//   - ECS: EDNS Client Subnet attachment and scrubbing (RFC 7871)
//   - LoadShed: token-bucket ingress admission (DoS mitigation)
//   - Metrics: query/rcode counters and a ServeDNS duration histogram
package dnsserver

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/telemetry"
)

// Request carries one inbound query and its connection metadata.
type Request struct {
	Msg *dnswire.Message
	// Client is the query's source address as seen by this server.
	// Behind a cellular gateway this is the P-GW's public address,
	// not the UE's — exactly the obfuscation the paper discusses.
	Client netip.AddrPort
	// Transport is "udp", "tcp", or "sim".
	Transport string

	// wait is the UDP ingress's hand-off hook (udpServe.wait); nil on
	// TCP, simnet and requests a test builds.
	wait func() bool
}

// mayWait is called by a plugin that is about to wait on anything but
// the CPU — an upstream exchange, another query's flight — before it
// touches state other queries can see. On the UDP ingress it gives the
// socket this goroutine is serving to another goroutine, so queries
// behind this one are not held up by the wait. False means the server
// already has QueueDepth queries waiting: the plugin returns at once
// with errIngressFull, no reply is made and the datagram is shed.
func (r *Request) mayWait() bool { return r.wait == nil || r.wait() }

// errIngressFull is what a plugin returns when mayWait said no;
// ResolveTo synthesizes no response for it.
var errIngressFull = errors.New("dnsserver: too many queries waiting on the network")

// Name returns the canonicalized first question name.
func (r *Request) Name() string { return dnswire.CanonicalName(r.Msg.Question().Name) }

// Type returns the first question type.
func (r *Request) Type() dnswire.Type { return r.Msg.Question().Type }

// ResponseWriter sends the response for one request.
type ResponseWriter interface {
	WriteMsg(*dnswire.Message) error
}

// WireWriter is an optional ResponseWriter extension for writers that
// can transmit a pre-packed response without decoding it. Every reply
// the cache emits is its stored wire image patched in place —
// transaction ID, the request-mirrored flag bits, the TTLs, the ECS
// echo — and a WireWriter receives those bytes as they are; any other
// writer receives them decoded, through WriteMsg.
type WireWriter interface {
	ResponseWriter
	// WireSize returns the largest packed response the transport can
	// carry as-is: the client's advertised EDNS payload size on UDP
	// (at most maxUDPPayload), MaxMessageSize on TCP and simnet. Larger
	// responses go through WriteMsg so truncation applies.
	WireSize() int
	// WriteWire transmits a packed response verbatim. The writer must
	// not retain wire after returning; callers typically recycle it.
	WriteWire(wire []byte) error
}

// OwnedWireWriter is an optional WireWriter extension for writers that
// can take ownership of a dnswire pooled buffer instead of copying out
// of it. The cache patches the stored wire image inside a pooled
// buffer anyway; handing that buffer over saves the last copy
// between the cache and the socket. The writer becomes responsible for
// returning buf to the pool.
type OwnedWireWriter interface {
	WireWriter
	// WriteWireOwned transmits buf[:n], a pooled buffer from
	// dnswire.GetBuffer whose ownership transfers to the writer —
	// even on error.
	WriteWireOwned(buf []byte, n int) error
}

// Handler answers DNS requests. If no response was written, the
// returned rcode is synthesized into one by the server; a non-nil
// error produces SERVFAIL.
type Handler interface {
	ServeDNS(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error)

// ServeDNS implements Handler.
func (f HandlerFunc) ServeDNS(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
	return f(ctx, w, r)
}

// Plugin is one link of a server chain. The UDP ingress runs the chain
// on the goroutine that reads the socket, so the rule is: a plugin that
// waits on anything but the CPU says so first (Request.mayWait, as
// Forward and Cache do); one that only computes just answers.
type Plugin interface {
	// Name identifies the plugin in metrics and errors.
	Name() string
	// ServeDNS handles the request or delegates to next.
	ServeDNS(ctx context.Context, w ResponseWriter, r *Request, next Handler) (dnswire.Rcode, error)
}

// Chain composes plugins into a Handler. The final fallthrough
// REFUSES the query, the behaviour of a server with no matching zone.
func Chain(plugins ...Plugin) Handler {
	h := Handler(HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		return dnswire.RcodeRefused, nil
	}))
	for i := len(plugins) - 1; i >= 0; i-- {
		p, next := plugins[i], h
		h = HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
			return p.ServeDNS(ctx, w, r, next)
		})
	}
	return h
}

// responseTracker is a ResponseWriter that knows whether it has been
// written to, which is what lets ResolveTo synthesize a response only
// when the chain wrote none.
type responseTracker interface {
	ResponseWriter
	Written() bool
}

// recorder is the Message-capturing responseTracker: it keeps the
// first response written (later writes from confused plugins are
// dropped) and passes it on to w when there is one. ResolveTo wraps a
// writer that cannot say whether it was written in it; Resolve and the
// tests use it bare, as the double of a writer that cannot take bytes.
type recorder struct {
	w       ResponseWriter
	written bool
	msg     *dnswire.Message
}

// WriteMsg implements ResponseWriter.
func (rec *recorder) WriteMsg(m *dnswire.Message) error {
	if rec.written {
		return nil
	}
	rec.written = true
	rec.msg = m
	if rec.w == nil {
		return nil
	}
	return rec.w.WriteMsg(m)
}

// Written implements responseTracker.
func (rec *recorder) Written() bool { return rec.written }

// Resolve is ResolveTo into a recorder, returning the response as a
// Message: the convenience tests drive a chain with. Nothing that
// serves calls it — every ingress goes through serveQuery.
func Resolve(ctx context.Context, h Handler, req *Request) *dnswire.Message {
	rec := &recorder{}
	ResolveTo(ctx, h, rec, req)
	return rec.msg
}

// normalizeQueryECS enforces the RFC 7871 §6 query-side invariants on
// an inbound request's ECS option — scope zeroed, undisclosed address
// bits masked — before any plugin sees it. Running in ResolveTo covers
// every ingress: UDP, TCP, the simnet adapter, and tests.
func normalizeQueryECS(req *Request) {
	if opt, ok := req.Msg.OPT(); ok {
		if ecs, ok := opt.ECS(); ok {
			ecs.NormalizeQuery()
		}
	}
}

// ResolveTo is the engine: it runs handler h to completion for req,
// writing the response through w as the chain produces it, and
// synthesizing an empty response with the handler's rcode (SERVFAIL on
// error) when no plugin answered. It returns the rcode of the response
// that was written.
//
// It never materializes the response: a writer that implements
// WireWriter (the ingresses' replyImage does) receives cached and
// relayed answers as patched wire bytes, which is what keeps a hit in
// the serve loop allocation-free. A writer that is not a
// responseTracker is served through a recorder, as a Message-only one.
func ResolveTo(ctx context.Context, h Handler, w ResponseWriter, req *Request) dnswire.Rcode {
	normalizeQueryECS(req)
	t, ok := w.(responseTracker)
	if !ok {
		t = &recorder{w: w}
	}
	rcode, err := h.ServeDNS(ctx, t, req)
	if t.Written() || errors.Is(err, errIngressFull) {
		return rcode // answered — or shed, and a shed query gets no reply
	}
	m := new(dnswire.Message)
	if err != nil {
		rcode = dnswire.RcodeServerFailure
	}
	m.SetRcode(req.Msg, rcode)
	_ = t.WriteMsg(m)
	return m.Rcode
}

// Server serves a Handler over real UDP and TCP sockets.
type Server struct {
	// Addr is the listen address, e.g. "127.0.0.1:5353".
	Addr string
	// Handler answers the queries.
	Handler Handler
	// ReadTimeout bounds TCP reads. Zero means 10s.
	ReadTimeout time.Duration
	// Telemetry, when non-nil, opens a span for every query (carried
	// through the plugin chain via the request context), observes the
	// client-visible serve duration, and feeds the sampled query log.
	Telemetry *telemetry.Hub
	// Sockets is the number of UDP ingress sockets bound to Addr via
	// SO_REUSEPORT, each served by its own loop; the kernel shards
	// inbound datagrams across them by flow hash, so ingress scales with
	// cores. Values <= 1 — and any value on platforms without
	// SO_REUSEPORT (see reuseport_other.go) — mean a single socket.
	Sockets int
	// MaxConns caps concurrently served TCP connections; accepted
	// connections beyond the cap are closed immediately and counted in
	// meccdn_dns_tcp_rejected_total (and on Shed when set). Zero means
	// 512. A goroutine per connection is fine; an unbounded number of
	// them under a SYN-rate attack is not.
	MaxConns int
	// QueueDepth bounds, in datagrams, the UDP queries waiting on the
	// network at once (an upstream exchange, another query's flight),
	// each on a goroutine of its own. Zero means 128 × GOMAXPROCS. A
	// query that would have to wait beyond the bound is shed — no reply,
	// counted in meccdn_dns_udp_dropped_total — while queries that need
	// only the CPU (cache hits, zones, the C-DNS router) keep being
	// answered: the paper's DoS-threshold behaviour.
	QueueDepth int
	// Batch is the maximum number of datagrams moved per syscall on
	// the UDP ingress and egress paths. On Linux a socket's loop fills
	// up to Batch pooled buffers per recvmmsg and flushes the replies
	// with one sendmmsg, back out the socket the queries arrived on.
	// 0 means 32 on Linux; values above 64 are capped. Platforms
	// without the batched syscalls always behave as 1.
	Batch int
	// Shed, when non-nil, has ingress sheds recorded on its shed
	// counter too, so admission-control drops and ingress drops surface
	// in one meccdn_dns_loadshed_shed_total family.
	Shed *LoadShed

	mu       sync.Mutex
	udps     []*net.UDPConn
	tcp      net.Listener
	conns    map[net.Conn]struct{}
	started  bool
	draining bool
	wg       sync.WaitGroup
	inflight sync.WaitGroup

	// leads carries a socket from the goroutine giving it away to an
	// idle one. Unbuffered: a send succeeds only if a follower is
	// parked on it. Closed by the last socket loop to end.
	leads  chan *socketShard
	live   atomic.Int32 // socket loops not yet ended
	parked atomic.Int64 // UDP queries waiting on the network
	depth  int64        // QueueDepth resolved at Start

	ctr         serveCounters
	tcpRejected atomic.Uint64
}

// serveCounters are the serve loop's per-packet counters. Every one
// of them is touched for every datagram (or batch), so none may be a
// single atomic word all cores bounce between their caches: each is
// sharded into cache-line-padded cells, one per socket — written by
// the socket's lead and, once per waited query, by the goroutine that
// gave the socket away — and summed only at scrape time.
type serveCounters struct {
	packets  *telemetry.ShardedCounter // datagrams read off the sockets
	batches  *telemetry.ShardedCounter // reads that yielded >= 1 datagram
	dropped  *telemetry.ShardedCounter // datagrams shed at the QueueDepth bound
	served   *telemetry.ShardedCounter // datagrams served, reply (if any) sent
	sendErrs *telemetry.ShardedCounter // response transmissions that failed
	recvErrs *telemetry.ShardedCounter // transient receive errors survived
}

func newServeCounters(sockets int) serveCounters {
	c := func(name string) *telemetry.ShardedCounter { return telemetry.NewShardedCounter(name, "", sockets) }
	return serveCounters{
		packets:  c("meccdn_dns_udp_packets_total"),
		batches:  c("meccdn_dns_udp_batches_total"),
		dropped:  c("meccdn_dns_udp_dropped_total"),
		served:   c("meccdn_dns_udp_served_total"),
		sendErrs: c("meccdn_dns_udp_send_errors_total"),
		recvErrs: c("meccdn_dns_udp_recv_errors_total"),
	}
}

// datagram is one UDP packet in a pooled buffer: a query in an ingress
// slot, or a packed reply stashed for the next flush.
type datagram struct {
	buf  []byte
	n    int
	addr netip.AddrPort
}

// socketShard is one UDP ingress socket and everything its lead — the
// one goroutine currently reading it — owns: the ingress slots and the
// cursor over them, the replies stashed since the last flush, the
// batched-syscall state, the question-name intern table and the
// counter cells. All of it changes hands with the socket.
type socketShard struct {
	conn *net.UDPConn
	rc   syscall.RawConn

	in      []datagram // Batch slots; in[next:n] are read and not yet served
	n, next int
	out     []datagram // replies to in[:next], not yet sent
	done    int        // datagrams served since the last flush
	drained bool       // the final sweep has run; the next fill ends the loop
	mio     *mmsgIO
	intern  *dnswire.NameIntern

	packets, batches, dropped, served, sendErrs, recvErrs *telemetry.CounterCell
}

// maxBatch caps Server.Batch. 64 datagrams per syscall is past the
// point of diminishing returns for DNS-sized packets.
const maxBatch = 64

// socketCount resolves the configured UDP ingress socket count,
// collapsing to one socket wherever SO_REUSEPORT can't shard.
func (s *Server) socketCount() int {
	if s.Sockets <= 1 || !reusePortSupported {
		return 1
	}
	return s.Sockets
}

// maxConns resolves the TCP concurrency cap.
func (s *Server) maxConns() int {
	if s.MaxConns > 0 {
		return s.MaxConns
	}
	return 512
}

// counters returns the serve counters, which Start builds: before it
// every field is nil, and a nil ShardedCounter reads 0.
func (s *Server) counters() serveCounters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctr
}

// Collectors returns the server's serve-loop metric families for
// registration on a telemetry.Registry: queries waiting on the network,
// batching tallies per server and packets per socket, and the drop and
// error counters. Every family reads 0 before Start — callers may
// register the collectors first (cmd/dnsd does) and Start later.
func (s *Server) Collectors() []telemetry.Collector {
	sum := func(name, help string, pick func(serveCounters) *telemetry.ShardedCounter) telemetry.Collector {
		return telemetry.NewCounterFunc(name, help, func() float64 { return float64(pick(s.counters()).Value()) })
	}
	return []telemetry.Collector{
		telemetry.NewGaugeFunc("meccdn_dns_udp_queue_depth",
			"UDP queries waiting on the network (an upstream exchange or another query's flight), bounded by QueueDepth.",
			func() float64 { return float64(s.parked.Load()) }),
		sum("meccdn_dns_udp_packets_total", "Datagrams read off the UDP ingress sockets.",
			func(c serveCounters) *telemetry.ShardedCounter { return c.packets }),
		telemetry.NewCounterFuncs("meccdn_dns_udp_socket_packets_total",
			"Datagrams read off each UDP ingress socket; a skewed SO_REUSEPORT flow hash shows here.",
			"socket", s.SocketPackets),
		sum("meccdn_dns_udp_batches_total", "Socket reads that yielded at least one datagram; packets_total over batches_total is the achieved batching factor.",
			func(c serveCounters) *telemetry.ShardedCounter { return c.batches }),
		sum("meccdn_dns_udp_dropped_total", "Datagrams shed because QueueDepth queries were already waiting on the network.",
			func(c serveCounters) *telemetry.ShardedCounter { return c.dropped }),
		sum("meccdn_dns_udp_send_errors_total", "UDP response transmissions that failed at the socket.",
			func(c serveCounters) *telemetry.ShardedCounter { return c.sendErrs }),
		sum("meccdn_dns_udp_recv_errors_total", "Transient UDP receive errors (ENOBUFS, ENOMEM, ...) the socket loops survived.",
			func(c serveCounters) *telemetry.ShardedCounter { return c.recvErrs }),
		telemetry.NewGaugeFunc("meccdn_dns_udp_sockets",
			"UDP ingress sockets sharing the listen address via SO_REUSEPORT.",
			func() float64 { return float64(s.NumSockets()) }),
		telemetry.NewCounterFunc("meccdn_dns_tcp_rejected_total",
			"TCP connections closed at accept because MaxConns was reached.",
			func() float64 { return float64(s.tcpRejected.Load()) }),
	}
}

// IngressLoad returns the share of QueueDepth in use as a fraction in
// [0, 1]: 0 when no UDP query is waiting on the network (or before
// Start), 1 when the bound is reached and queries that would wait are
// being shed. This is the load signal fed to the health registry's
// ingress watermark switch.
func (s *Server) IngressLoad() float64 {
	s.mu.Lock()
	depth := s.depth
	s.mu.Unlock()
	if depth == 0 {
		return 0
	}
	return min(1, float64(s.parked.Load())/float64(depth))
}

// DroppedPackets returns the number of datagrams shed at the
// QueueDepth bound since Start.
func (s *Server) DroppedPackets() uint64 { return s.counters().dropped.Value() }

// BatchStats returns the ingress batching tallies since Start: packets
// is the number of datagrams read off the sockets, batches the number
// of reads that produced them. packets over batches is the achieved
// batching factor — 1.0 on the unbatched path, up to Batch under load
// on Linux.
func (s *Server) BatchStats() (packets, batches uint64) {
	c := s.counters()
	return c.packets.Value(), c.batches.Value()
}

// SocketPackets returns the datagrams read off each ingress socket
// since Start, in socket order; their sum is BatchStats' packets.
func (s *Server) SocketPackets() []uint64 { return s.counters().packets.Values() }

// ServedPackets returns the number of datagrams fully served (reply,
// if any, sent) since Start; with DroppedPackets it accounts for every
// datagram read.
func (s *Server) ServedPackets() uint64 { return s.counters().served.Value() }

// batchSize resolves the configured Batch against platform support.
func (s *Server) batchSize() int {
	if !batchingSupported {
		return 1
	}
	b := s.Batch
	if b == 0 {
		b = defaultBatch
	}
	if b < 1 {
		b = 1
	}
	if b > maxBatch {
		b = maxBatch
	}
	return b
}

// RejectedConns returns the number of TCP connections refused at the
// MaxConns cap since Start.
func (s *Server) RejectedConns() uint64 { return s.tcpRejected.Load() }

// NumSockets returns the number of UDP ingress sockets actually bound;
// valid after Start. It is socketCount() unless the platform collapsed
// the shard set to one.
func (s *Server) NumSockets() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.udps)
}

// Start begins serving on UDP and TCP. It returns once the sockets
// are bound; serving continues in background goroutines until Close.
func (s *Server) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return errors.New("dnsserver: already started")
	}
	if s.Handler == nil {
		return errors.New("dnsserver: nil handler")
	}
	udps, err := s.listenUDP()
	if err != nil {
		return err
	}
	rcs := make([]syscall.RawConn, len(udps)) // for the batched syscalls
	for i, u := range udps {
		if rcs[i], err = u.SyscallConn(); err != nil {
			break
		}
	}
	if err == nil {
		// Bind TCP to whatever port UDP got (supports ":0").
		s.tcp, err = net.Listen("tcp", udps[0].LocalAddr().String())
	}
	if err != nil {
		for _, u := range udps {
			u.Close()
		}
		return fmt.Errorf("listening on %s: %w", udps[0].LocalAddr(), err)
	}
	s.udps = udps
	s.conns = make(map[net.Conn]struct{})
	s.depth = int64(s.QueueDepth)
	if s.depth <= 0 {
		s.depth = 128 * int64(runtime.GOMAXPROCS(0))
	}
	s.ctr = newServeCounters(len(udps))
	s.leads = make(chan *socketShard)
	s.live.Store(int32(len(udps)))
	s.started = true
	// Every socket loop counts as in flight until it ends, so a drain
	// waits for what the loops have read, and a query that gives its
	// socket away registers itself while that count is still held.
	s.inflight.Add(len(udps))
	s.wg.Add(1 + len(udps))
	for i, conn := range udps {
		go s.serveUDP(s.newShard(i, conn, rcs[i]))
	}
	go s.serveTCP()
	return nil
}

// listenUDP binds the UDP ingress socket set: a single plain socket
// for socketCount() == 1, or N SO_REUSEPORT-sharing sockets bound to
// the same address. With a ":0" listen address the first socket picks
// the port and the rest join it.
func (s *Server) listenUDP() ([]*net.UDPConn, error) {
	n := s.socketCount()
	if n == 1 {
		uaddr, err := net.ResolveUDPAddr("udp", s.Addr)
		if err != nil {
			return nil, fmt.Errorf("resolving %q: %w", s.Addr, err)
		}
		conn, err := net.ListenUDP("udp", uaddr)
		if err != nil {
			return nil, fmt.Errorf("listening udp %q: %w", s.Addr, err)
		}
		return []*net.UDPConn{conn}, nil
	}
	lc := net.ListenConfig{Control: controlReusePort}
	conns := make([]*net.UDPConn, 0, n)
	addr := s.Addr
	for i := 0; i < n; i++ {
		pc, err := lc.ListenPacket(context.Background(), "udp", addr)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, fmt.Errorf("listening udp shard %d/%d on %q: %w", i+1, n, addr, err)
		}
		conn := pc.(*net.UDPConn)
		conns = append(conns, conn)
		if i == 0 {
			addr = conn.LocalAddr().String()
		}
	}
	return conns, nil
}

// Draining reports whether a graceful Shutdown is in progress (or
// finished); the admin /healthz probe keys off this.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown gracefully drains the server: it stops accepting new
// queries immediately, waits — bounded by ctx — for in-flight queries
// to finish and their responses to be written, then closes the
// sockets. It returns ctx.Err() when the deadline cut the drain
// short, nil when every in-flight query completed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.started || s.draining {
		s.mu.Unlock()
		return s.Close()
	}
	s.draining = true
	udps, tcp := s.udps, s.tcp
	s.mu.Unlock()

	// Stop the intake: no new TCP connections, and an immediate deadline
	// sends every UDP socket loop into its final sweep. The UDP sockets
	// themselves stay open so that what was read is still answered.
	tcp.Close()
	for _, u := range udps {
		_ = u.SetReadDeadline(time.Now())
	}

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}

	// Tear down what remains: the UDP sockets and any TCP connections
	// still mid-stream (idle keepalives, or queries the deadline cut).
	for _, u := range udps {
		u.Close()
	}
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// LocalAddr returns the bound UDP address; valid after Start. All
// sharded sockets share it.
func (s *Server) LocalAddr() netip.AddrPort {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.udps) == 0 {
		return netip.AddrPort{}
	}
	return s.udps[0].LocalAddr().(*net.UDPAddr).AddrPort()
}

// Close stops serving and waits for the serve loops to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return nil
	}
	for _, u := range s.udps {
		u.Close()
	}
	s.tcp.Close()
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// track registers one in-flight query. It returns false once a drain
// has begun, in which case the query must be dropped; the mutex
// ordering guarantees no tracked query starts after Shutdown begins
// waiting.
func (s *Server) track() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// BackgroundTracker registers background work with a graceful-drain
// scope. A started Server implements it; the cache's refresh-ahead
// prefetcher uses it so Shutdown waits for in-flight background
// resolves instead of leaking them past the drain.
type BackgroundTracker interface {
	// TrackBackground registers one unit of background work. ok=false
	// means a drain has begun and the work must not start; otherwise
	// the caller must invoke done exactly once when the work finishes.
	TrackBackground() (done func(), ok bool)
}

// TrackBackground implements BackgroundTracker on the server's
// in-flight WaitGroup, under the same mutex ordering as track(): no
// tracked work can begin after Shutdown starts waiting.
func (s *Server) TrackBackground() (done func(), ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false
	}
	s.inflight.Add(1)
	return s.inflight.Done, true
}

// newShard wraps ingress socket i in the state its lead works in.
func (s *Server) newShard(i int, conn *net.UDPConn, rc syscall.RawConn) *socketShard {
	batch := s.batchSize()
	return &socketShard{
		conn: conn, rc: rc,
		in:     make([]datagram, batch),
		out:    make([]datagram, 0, batch),
		mio:    newMmsgIO(batch),
		intern: dnswire.NewNameIntern(0),

		packets: s.ctr.packets.Shard(i), batches: s.ctr.batches.Shard(i), dropped: s.ctr.dropped.Shard(i),
		served: s.ctr.served.Shard(i), sendErrs: s.ctr.sendErrs.Shard(i), recvErrs: s.ctr.recvErrs.Shard(i),
	}
}

// udpServe is one UDP serve goroutine. It leads one socket at a time:
// fill a batch, run serveQuery on every datagram inline, flush the
// replies, repeat — a query answered from the CPU alone (a cache hit,
// a zone, the C-DNS router) meets no channel and no other goroutine
// between its recvmmsg and its sendmmsg. The first time a query has to
// wait on the network (wait, reached through Request.mayWait) the
// goroutine gives the socket to another one, finishes that query on
// its own and then follows: parks on Server.leads until some lead
// gives a socket away in turn. So there is a goroutine per socket and
// one per waiting query, idle ones are reused before any is started,
// and a slow upstream never stands between a socket and its cache
// hits.
type udpServe struct {
	s    *Server
	st   serveScratch
	sh   *socketShard // the socket being led; nil once given away
	pkt  []byte       // the query's packet, taken out of its slot by wait
	shed bool         // wait refused the query now in serveQuery
}

// serveUDP runs one serve goroutine, starting as the lead of sh, until
// every socket loop has ended.
func (s *Server) serveUDP(sh *socketShard) {
	defer s.wg.Done()
	g := &udpServe{s: s}
	g.st.wait = g.wait // bound once: a per-query method value would allocate
	for ok := true; ok; sh, ok = <-s.leads {
		g.lead(sh)
	}
}

// lead serves sh — first what its previous lead left unserved — until
// the socket is given away or ends.
func (g *udpServe) lead(sh *socketShard) {
	s := g.s
	g.sh, g.st.intern = sh, sh.intern
	for {
		for sh.next < sh.n {
			q := &sh.in[sh.next]
			sh.next++
			from := q.addr // the slot is the next lead's once wait has run
			buf, n := serveQuery(s.Handler, s.Telemetry, &g.st, q.buf[:q.n], from, "udp", maxUDPPayload)
			switch {
			case g.shed: // ResolveTo wrote nothing
				g.shed = false
				sh.dropped.Inc()
				if s.Shed != nil {
					s.Shed.RecordShed()
				}
			case g.sh == nil:
				if buf != nil {
					sh.send(buf, n, from)
				}
				dnswire.PutBuffer(g.pkt)
				g.pkt = nil
				sh.served.Inc()
				s.parked.Add(-1)
				s.inflight.Done()
				return
			default:
				if buf != nil {
					sh.out = append(sh.out, datagram{buf, n, from})
				}
				sh.done++
			}
		}
		sh.flush()
		if !sh.fill() {
			sh.release()
			if s.live.Add(-1) == 0 {
				close(s.leads) // no lead is left to send on it
			}
			s.inflight.Done()
			return
		}
	}
}

// wait is the Request.mayWait hook: the query this goroutine is
// serving is about to wait on the network. The replies stashed so far
// leave first, then the socket — slots, cursor and all — goes to an
// idle goroutine, or a new one if none is parked on leads; the query's
// own packet stays behind with this goroutine, which will send its
// reply itself. At QueueDepth waiting queries the answer is no, and
// nothing has changed hands.
func (g *udpServe) wait() bool {
	sh, s := g.sh, g.s
	if sh == nil || g.shed {
		return !g.shed // asked before in this query: the answer stands
	}
	if s.parked.Add(1) > s.depth {
		s.parked.Add(-1)
		g.shed = true
		return false
	}
	sh.flush()
	q := &sh.in[sh.next-1]
	g.pkt, q.buf = q.buf, nil
	g.sh = nil
	s.inflight.Add(1)
	select {
	case s.leads <- sh:
	default:
		s.wg.Add(1)
		go s.serveUDP(sh)
	}
	return true
}

// recvErrPause is how long a socket loop stands back after a transient
// receive error, so that a persistent one cannot spin a core.
const recvErrPause = 5 * time.Millisecond

// recvTerminal reports whether a receive error ends a socket's loop.
// Only two do: the socket was closed, or the read deadline Shutdown
// sets has passed. Anything else — ENOBUFS or ENOMEM under memory
// pressure, say — is counted and survived: a DNS server must not go
// deaf for the life of the process over one failed read.
func recvTerminal(err error) bool {
	return errors.Is(err, net.ErrClosed) || errors.Is(err, os.ErrDeadlineExceeded)
}

// fill blocks until the socket yields a batch into sh.in and reports
// whether it did; false ends the loop. When the drain deadline fires,
// the socket gets one last non-blocking sweep, so that what clients
// sent before Shutdown and the kernel still holds is answered too.
func (sh *socketShard) fill() bool {
	for !sh.drained {
		err := sh.recv(true)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			sh.drained = true
			err = sh.recv(false)
		}
		switch {
		case err == nil && sh.n > 0:
			sh.packets.Add(uint64(sh.n))
			sh.batches.Inc()
			return true
		case err == nil:
		case recvTerminal(err):
			return false
		default:
			sh.recvErrs.Inc()
			time.Sleep(recvErrPause)
		}
	}
	return false
}

// release returns the buffers armed in the ingress slots to the pool,
// when the loop ends.
func (sh *socketShard) release() {
	for i := range sh.in {
		dnswire.PutBuffer(sh.in[i].buf)
		sh.in[i].buf = nil
	}
}

// send transmits one reply with a plain sendto and recycles its buffer;
// failures count on the socket's send-error cell (UDP gives the client
// its retry either way). Any goroutine may call it: a query that gave
// the socket away replies through it beside the lead's flushes.
func (sh *socketShard) send(buf []byte, n int, to netip.AddrPort) {
	if _, err := sh.conn.WriteToUDPAddrPort(buf[:n], to); err != nil {
		sh.sendErrs.Inc()
	}
	dnswire.PutBuffer(buf)
}

// flush transmits the stashed replies — several in one sendmmsg where
// there is one — and credits the datagrams served since the last flush.
func (sh *socketShard) flush() {
	if len(sh.out) == 1 {
		sh.send(sh.out[0].buf, sh.out[0].n, sh.out[0].addr)
	} else if len(sh.out) > 1 {
		sh.sendBatch()
	}
	sh.out = sh.out[:0]
	if sh.done > 0 {
		sh.served.Add(uint64(sh.done))
		sh.done = 0
	}
}

// sendLoop is the portable egress: one sendto per stashed reply. It
// backs flush on platforms without sendmmsg and on Linux architectures
// whose sendmmsg syscall number isn't wired up.
func (sh *socketShard) sendLoop() {
	for _, p := range sh.out {
		sh.send(p.buf, p.n, p.addr)
	}
}

func (s *Server) serveTCP() {
	defer s.wg.Done()
	for {
		conn, err := s.tcp.Accept()
		if err != nil {
			return // closed
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if len(s.conns) >= s.maxConns() {
			s.mu.Unlock()
			// At the cap: refuse outright rather than queueing the
			// accept — a connection held open while others starve is
			// worse than a fast close the client can retry over UDP.
			s.tcpRejected.Add(1)
			if s.Shed != nil {
				s.Shed.RecordShed()
			}
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	timeout := s.ReadTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	raddr, _ := netip.ParseAddrPort(conn.RemoteAddr().String())
	st := &serveScratch{intern: dnswire.NewNameIntern(0)}
	for {
		_ = conn.SetReadDeadline(time.Now().Add(timeout))
		pkt, err := dnswire.ReadTCP(conn)
		if err != nil {
			return
		}
		if !s.track() {
			dnswire.PutBuffer(pkt)
			return // draining: stop accepting
		}
		buf, n := serveQuery(s.Handler, s.Telemetry, st, pkt, raddr, "tcp", dnswire.MaxMessageSize)
		dnswire.PutBuffer(pkt)
		if buf != nil {
			err = dnswire.WriteTCP(conn, buf[:n])
			dnswire.PutBuffer(buf)
		}
		s.inflight.Done()
		if buf == nil || err != nil {
			return // not DNS, or the stream is broken: hang up
		}
	}
}
