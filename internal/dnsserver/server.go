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
}

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

// Plugin is one link of a server chain.
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
	if t.Written() {
		return rcode
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
	// Workers is the number of UDP worker goroutines pulling packets
	// off the ingress queue. Zero means GOMAXPROCS. Bounding the
	// workers (instead of a goroutine per packet) keeps concurrency —
	// and therefore memory and scheduler load — flat under the paper's
	// DoS-threshold scenario.
	Workers int
	// Sockets is the number of UDP ingress sockets bound to Addr via
	// SO_REUSEPORT, each with its own read loop feeding the shared
	// worker pool; the kernel shards inbound datagrams across them by
	// flow hash, removing the single-read-loop bottleneck on
	// multi-core hosts. Values <= 1 — and any value on platforms
	// without SO_REUSEPORT (see reuseport_other.go) — mean the classic
	// single-socket ingress.
	Sockets int
	// MaxConns caps concurrently served TCP connections; accepted
	// connections beyond the cap are closed immediately and counted in
	// meccdn_dns_tcp_rejected_total (and on Shed when set). Zero means
	// 512. A goroutine per connection is fine; an unbounded number of
	// them under a SYN-rate attack is not.
	MaxConns int
	// QueueDepth is the capacity of the UDP ingress queue between the
	// read loops and the workers, measured in batches (a batch holds
	// 1..Batch datagrams). Zero means 4× the worker count. Batches
	// arriving with the queue full are dropped whole and counted, per
	// datagram, in meccdn_dns_udp_dropped_total rather than queued
	// without bound.
	QueueDepth int
	// Batch is the maximum number of datagrams moved per syscall on
	// the UDP ingress and egress paths. On Linux each read loop fills
	// up to Batch pooled buffers per recvmmsg and workers flush their
	// responses with one sendmmsg per batch, back out the socket the
	// queries arrived on. 0 means 32 on Linux; 1 disables batching
	// (one recvfrom/sendto per datagram); values above 64 are capped.
	// Platforms without the batched syscalls always behave as 1.
	Batch int
	// Shed, when non-nil, has queue-overflow drops recorded on its
	// shed counter too, so admission-control drops and ingress drops
	// surface in one meccdn_dns_loadshed_shed_total family.
	Shed *LoadShed

	mu       sync.Mutex
	udps     []*net.UDPConn
	shards   []*socketShard
	tcp      net.Listener
	conns    map[net.Conn]struct{}
	started  bool
	draining bool
	wg       sync.WaitGroup
	readers  sync.WaitGroup
	inflight sync.WaitGroup

	queue       chan *udpBatch
	ctr         serveCounters
	tcpRejected atomic.Uint64
}

// serveCounters are the serve loop's per-packet counters. Every one
// of them is touched for every datagram (or batch), so none may be a
// single atomic word all cores bounce between their caches: each is
// sharded into cache-line-padded cells, one per reader socket or per
// worker, and summed only at scrape time.
type serveCounters struct {
	// Per reader-socket cells.
	packets *telemetry.ShardedCounter // datagrams accepted off the sockets
	batches *telemetry.ShardedCounter // read wakeups that yielded >= 1 datagram
	dropped *telemetry.ShardedCounter // datagrams shed on queue overflow
	// Per worker cells.
	served   *telemetry.ShardedCounter // datagrams fully served
	sendErrs *telemetry.ShardedCounter // response transmissions that failed
	busy     *telemetry.ShardedGauge   // workers currently serving a batch
}

func newServeCounters(sockets, workers int) serveCounters {
	return serveCounters{
		packets:  telemetry.NewShardedCounter("meccdn_dns_udp_packets_total", "", sockets),
		batches:  telemetry.NewShardedCounter("meccdn_dns_udp_batches_total", "", sockets),
		dropped:  telemetry.NewShardedCounter("meccdn_dns_udp_dropped_total", "", sockets),
		served:   telemetry.NewShardedCounter("meccdn_dns_udp_served_total", "", workers),
		sendErrs: telemetry.NewShardedCounter("meccdn_dns_udp_send_errors_total", "", workers),
		busy:     telemetry.NewShardedGauge("meccdn_dns_udp_workers_busy", "", workers),
	}
}

// socketShard is one UDP ingress socket plus its reader-owned state:
// the raw descriptor access for batched syscalls and this reader's
// counter cells, cached so the loop never indexes a shard table per
// packet.
type socketShard struct {
	conn    *net.UDPConn
	rc      syscall.RawConn
	packets *telemetry.CounterCell
	batches *telemetry.CounterCell
	dropped *telemetry.CounterCell
}

// maxBatch caps Server.Batch. 64 datagrams per syscall is past the
// point of diminishing returns for DNS-sized packets, and the cap
// keeps the per-batch slot arrays small enough to pool.
const maxBatch = 64

// udpBatch is one group of datagrams handed from a read loop to a
// worker: up to Batch pooled buffers, each sliced to its datagram,
// with their source addresses. All packets of a batch arrived on the
// same socket, so the worker's response flush can go back out that
// socket in one sendmmsg. Containers are pooled; a batch of one is
// how the unbatched (non-Linux or Batch=1) ingress rides the same
// worker code.
type udpBatch struct {
	shard *socketShard
	n     int
	bufs  [maxBatch][]byte
	addrs [maxBatch]netip.AddrPort
}

var batchPool = sync.Pool{New: func() any { return new(udpBatch) }}

func getBatch(sh *socketShard) *udpBatch {
	b := batchPool.Get().(*udpBatch)
	b.shard, b.n = sh, 0
	return b
}

// releaseBatch returns every buffer the batch still owns, then the
// container itself, to their pools. Consumers that have already
// recycled a buffer nil its slot first, so each buffer goes back
// exactly once no matter which path releases the batch.
func releaseBatch(b *udpBatch) {
	for i := 0; i < b.n; i++ {
		if b.bufs[i] != nil {
			dnswire.PutBuffer(b.bufs[i])
			b.bufs[i] = nil
		}
	}
	b.n, b.shard = 0, nil
	batchPool.Put(b)
}

// workerCount resolves the configured worker-pool size.
func (s *Server) workerCount() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

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

// Collectors returns the server's serve-loop metric families for
// registration on a telemetry.Registry: worker occupancy, ingress
// queue depth, batching tallies, and the drop counters. The sharded
// serve counters behind them are built at Start, so every family reads
// 0 before then — callers may register the collectors first (cmd/dnsd
// does) and Start later.
func (s *Server) Collectors() []telemetry.Collector {
	sum := func(pick func(serveCounters) *telemetry.ShardedCounter) func() float64 {
		return func() float64 {
			s.mu.Lock()
			c := pick(s.ctr)
			s.mu.Unlock()
			if c == nil {
				return 0
			}
			return float64(c.Value())
		}
	}
	return []telemetry.Collector{
		telemetry.NewGaugeFunc("meccdn_dns_udp_workers_busy",
			"UDP worker goroutines currently serving a batch.",
			func() float64 {
				s.mu.Lock()
				g := s.ctr.busy
				s.mu.Unlock()
				if g == nil {
					return 0
				}
				return float64(g.Value())
			}),
		telemetry.NewGaugeFunc("meccdn_dns_udp_queue_depth",
			"Batches waiting in the UDP ingress queue.",
			func() float64 {
				s.mu.Lock()
				q := s.queue
				s.mu.Unlock()
				return float64(len(q))
			}),
		telemetry.NewCounterFunc("meccdn_dns_udp_packets_total",
			"Datagrams accepted off the UDP ingress sockets.",
			sum(func(c serveCounters) *telemetry.ShardedCounter { return c.packets })),
		telemetry.NewCounterFunc("meccdn_dns_udp_batches_total",
			"Read-loop wakeups that yielded at least one datagram; packets_total over batches_total is the achieved batching factor.",
			sum(func(c serveCounters) *telemetry.ShardedCounter { return c.batches })),
		telemetry.NewCounterFunc("meccdn_dns_udp_dropped_total",
			"Datagrams dropped because the UDP ingress queue was full.",
			sum(func(c serveCounters) *telemetry.ShardedCounter { return c.dropped })),
		telemetry.NewCounterFunc("meccdn_dns_udp_send_errors_total",
			"UDP response transmissions that failed at the socket.",
			sum(func(c serveCounters) *telemetry.ShardedCounter { return c.sendErrs })),
		telemetry.NewGaugeFunc("meccdn_dns_udp_sockets",
			"UDP ingress sockets sharing the listen address via SO_REUSEPORT.",
			func() float64 { return float64(s.NumSockets()) }),
		telemetry.NewCounterFunc("meccdn_dns_tcp_rejected_total",
			"TCP connections closed at accept because MaxConns was reached.",
			func() float64 { return float64(s.tcpRejected.Load()) }),
	}
}

// IngressLoad returns the UDP ingress queue occupancy as a fraction
// in [0, 1]: 0 when idle (or before Start), 1 when the queue is full
// and arrivals are being shed. This is the load signal fed to the
// health registry's ingress watermark switch.
func (s *Server) IngressLoad() float64 {
	s.mu.Lock()
	q := s.queue
	s.mu.Unlock()
	if q == nil || cap(q) == 0 {
		return 0
	}
	return float64(len(q)) / float64(cap(q))
}

// DroppedPackets returns the number of datagrams shed on queue
// overflow since Start.
func (s *Server) DroppedPackets() uint64 {
	s.mu.Lock()
	c := s.ctr.dropped
	s.mu.Unlock()
	if c == nil {
		return 0
	}
	return c.Value()
}

// BatchStats returns the ingress batching tallies since Start: packets
// is the number of datagrams accepted off the sockets, batches the
// number of read wakeups that produced them. packets over batches is
// the achieved batching factor — 1.0 on the unbatched path, up to
// Batch under load on Linux.
func (s *Server) BatchStats() (packets, batches uint64) {
	s.mu.Lock()
	p, b := s.ctr.packets, s.ctr.batches
	s.mu.Unlock()
	if p == nil || b == nil {
		return 0, 0
	}
	return p.Value(), b.Value()
}

// ServedPackets returns the number of datagrams fully served (response
// flushed) by the worker pool since Start, summed over the per-worker
// counter cells.
func (s *Server) ServedPackets() uint64 {
	s.mu.Lock()
	c := s.ctr.served
	s.mu.Unlock()
	if c == nil {
		return 0
	}
	return c.Value()
}

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
	s.udps = udps
	// Bind TCP to whatever port UDP got (supports ":0").
	s.tcp, err = net.Listen("tcp", udps[0].LocalAddr().String())
	if err != nil {
		for _, u := range udps {
			u.Close()
		}
		return fmt.Errorf("listening tcp: %w", err)
	}
	s.conns = make(map[net.Conn]struct{})
	workers := s.workerCount()
	depth := s.QueueDepth
	if depth <= 0 {
		depth = 4 * workers
	}
	s.queue = make(chan *udpBatch, depth)
	s.ctr = newServeCounters(len(udps), workers)
	batch := s.batchSize()
	s.shards = make([]*socketShard, len(udps))
	for i, conn := range udps {
		sh := &socketShard{
			conn:    conn,
			packets: s.ctr.packets.Shard(i),
			batches: s.ctr.batches.Shard(i),
			dropped: s.ctr.dropped.Shard(i),
		}
		if batch > 1 {
			rc, err := conn.SyscallConn()
			if err != nil {
				batch = 1 // no raw descriptor access; serve unbatched
			} else {
				sh.rc = rc
			}
		}
		s.shards[i] = sh
	}
	s.started = true
	s.readers.Add(len(udps))
	s.wg.Add(2 + len(udps) + workers)
	for i := 0; i < workers; i++ {
		go s.udpWorker(i)
	}
	for _, sh := range s.shards {
		if batch > 1 {
			go s.serveUDPBatched(sh, batch)
		} else {
			go s.serveUDPSingle(sh)
		}
	}
	// The queue closes once every sharded read loop has exited, so the
	// workers drain whatever any socket accepted, then stop.
	go func() {
		defer s.wg.Done()
		s.readers.Wait()
		close(s.queue)
	}()
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

	// Stop the intake: no new TCP connections, and unblock every UDP
	// read loop via an immediate deadline. The UDP sockets themselves
	// must stay open so in-flight handlers can still write responses.
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

// trackN registers n in-flight queries at once, refusing once a drain
// has begun — the same mutex-ordering contract as track(), paid once
// per batch instead of once per packet.
func (s *Server) trackN(n int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(n)
	return true
}

// dispatch hands a filled batch to the worker pool, consuming it
// either way. It returns false when the server is draining and the
// read loop should exit. Dispatch happens after trackN so a graceful
// Shutdown waits for packets already accepted into the queue, not just
// those a worker has picked up. On queue overflow the whole batch is
// shed immediately — bounded delay beats unbounded backlog for a
// protocol whose clients retry.
func (s *Server) dispatch(b *udpBatch) bool {
	n := b.n
	if !s.trackN(n) {
		releaseBatch(b)
		return false
	}
	select {
	case s.queue <- b:
	default:
		b.shard.dropped.Add(uint64(n))
		if s.Shed != nil {
			s.Shed.RecordShedN(uint64(n))
		}
		s.inflight.Add(-n)
		releaseBatch(b)
	}
	return true
}

// serveUDPSingle is the unbatched ingress loop for one sharded socket:
// one recvfrom per datagram, each wrapped in a batch of one so the
// worker path is identical to the batched ingress. It serves
// Batch <= 1 and every platform without recvmmsg. With Sockets > 1
// several of these run concurrently, one per SO_REUSEPORT socket, so
// ingress scales with cores instead of serializing on a single reader.
func (s *Server) serveUDPSingle(sh *socketShard) {
	defer s.wg.Done()
	defer s.readers.Done() // last reader out closes the queue
	for {
		buf := dnswire.GetBuffer()
		n, raddr, err := sh.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			dnswire.PutBuffer(buf)
			return // closed or draining
		}
		sh.packets.Inc()
		sh.batches.Inc()
		b := getBatch(sh)
		b.bufs[0], b.addrs[0], b.n = buf[:n], raddr, 1
		if !s.dispatch(b) {
			return
		}
	}
}

// udpWorker serves batches from the ingress queue until it is closed
// and drained. id selects this worker's cache-line-padded counter
// cells, so nothing on the per-packet path contends with another
// worker's counters. Each packet's pooled buffer goes back to the pool
// as soon as it is served; the batch container (and any buffers an
// early exit leaves behind) is released after the flush.
func (s *Server) udpWorker(id int) {
	defer s.wg.Done()
	st := &serveScratch{intern: dnswire.NewNameIntern(0)}
	busy := s.ctr.busy.Shard(id)
	served := s.ctr.served.Shard(id)
	w := &udpWriter{sendErrs: s.ctr.sendErrs.Shard(id)}
	for b := range s.queue {
		busy.Set(1)
		w.shard = b.shard
		for i := 0; i < b.n; i++ {
			if buf, n := serveQuery(s.Handler, s.Telemetry, st, b.bufs[i], b.addrs[i], "udp", maxUDPPayload); buf != nil {
				w.stash(buf, n, b.addrs[i])
			}
			dnswire.PutBuffer(b.bufs[i])
			b.bufs[i] = nil
		}
		w.flush()
		served.Add(uint64(b.n))
		busy.Set(0)
		s.inflight.Add(-b.n)
		releaseBatch(b)
	}
}

// egressPkt is one packed response waiting in a worker's egress batch:
// a pooled buffer the writer owns, the packed length, and where it
// goes.
type egressPkt struct {
	buf   []byte
	n     int
	raddr netip.AddrPort
}

// udpWriter is one worker's egress batch. Instead of one sendto per
// response, the replies serveQuery returns accumulate in out (each in
// a pooled buffer the writer owns) and leave in one sendmmsg per batch
// when the worker flushes — back out the sharded socket the queries
// arrived on.
type udpWriter struct {
	shard    *socketShard
	out      []egressPkt
	sendErrs *telemetry.CounterCell
	eio      egressIO
}

// stash queues one packed response, taking ownership of its buffer.
func (w *udpWriter) stash(buf []byte, n int, raddr netip.AddrPort) {
	w.out = append(w.out, egressPkt{buf: buf, n: n, raddr: raddr})
}

// flush transmits every queued response of the batch and recycles the
// buffers. A batch of one goes out as a plain sendto; failures count
// on the worker's send-error cell (UDP gives the client its retry
// either way).
func (w *udpWriter) flush() {
	switch len(w.out) {
	case 0:
		return
	case 1:
		p := &w.out[0]
		if _, err := w.shard.conn.WriteToUDPAddrPort(p.buf[:p.n], p.raddr); err != nil {
			w.sendErrs.Inc()
		}
		dnswire.PutBuffer(p.buf)
	default:
		w.sendBatch()
	}
	w.out = w.out[:0]
}

// sendLoop is the portable egress fallback: one sendto per queued
// response. It backs flush on platforms without sendmmsg and on Linux
// architectures whose sendmmsg syscall number isn't wired up.
func (w *udpWriter) sendLoop() {
	for i := range w.out {
		p := &w.out[i]
		if _, err := w.shard.conn.WriteToUDPAddrPort(p.buf[:p.n], p.raddr); err != nil {
			w.sendErrs.Inc()
		}
		dnswire.PutBuffer(p.buf)
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
