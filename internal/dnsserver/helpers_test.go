package dnsserver

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnsclient"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/simnet"
)

// testClient is the address every request queryFor builds comes from.
var testClient = netip.MustParseAddrPort("198.51.100.7:4242")

// queryFor builds an A query for name from testClient. Given a subnet
// ("10.1.2.0/24"), the query carries an OPT (1232) disclosing it in an
// ECS option.
func queryFor(name string, subnet ...string) *Request {
	q := new(dnswire.Message)
	q.SetQuestion(name, dnswire.TypeA)
	for _, s := range subnet {
		opt := q.SetEDNS(1232)
		opt.Options = append(opt.Options, dnswire.NewECSOption(netip.MustParsePrefix(s)))
	}
	return &Request{Msg: q, Client: testClient, Transport: "test"}
}

func mustPack(t *testing.T, m *dnswire.Message) []byte {
	t.Helper()
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func realClient() *dnsclient.Client {
	c := &dnsclient.Client{Transport: &dnsclient.NetTransport{}, Timeout: 2 * time.Second}
	c.SetRand(rand.New(rand.NewSource(99)))
	return c
}

func simClient(n *simnet.Network, node string) *dnsclient.Client {
	c := &dnsclient.Client{Transport: &dnsclient.SimTransport{Endpoint: n.Node(node).Endpoint()}}
	c.SetRand(rand.New(rand.NewSource(1)))
	return c
}

// countingPlugin counts how often the chain reaches it.
type countingPlugin struct {
	hits int
	h    Handler
}

func (c *countingPlugin) Name() string { return "counting" }

func (c *countingPlugin) ServeDNS(ctx context.Context, w ResponseWriter, r *Request, next Handler) (dnswire.Rcode, error) {
	c.hits++
	if c.h != nil {
		return c.h.ServeDNS(ctx, w, r)
	}
	return next.ServeDNS(ctx, w, r)
}

// terminalPlugin is a Handler as the last link of a chain. Unlike
// countingPlugin it keeps no state, so concurrent tests may share it.
type terminalPlugin struct{ h Handler }

func (p terminalPlugin) Name() string { return "terminal" }

func (p terminalPlugin) ServeDNS(ctx context.Context, w ResponseWriter, r *Request, _ Handler) (dnswire.Rcode, error) {
	return p.h.ServeDNS(ctx, w, r)
}

// pluginize wraps a terminal Handler as a Plugin for tests.
func pluginize(h Handler) Plugin { return terminalPlugin{h} }

func answerHandler(addr string) Handler {
	return HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		m := new(dnswire.Message)
		m.SetReply(r.Msg)
		m.Answers = []dnswire.RR{&dnswire.A{
			Hdr:  dnswire.RRHeader{Name: r.Name(), Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 30},
			Addr: netip.MustParseAddr(addr),
		}}
		return m.Rcode, w.WriteMsg(m)
	})
}

// echoSourceScope makes ecsAnswerHandler echo scope = the query's
// source prefix (an authority tailoring as finely as clients disclose).
const echoSourceScope = 255

// ecsAnswerHandler answers with an A record and echoes the query's ECS
// option at the given scope (or the source prefix for echoSourceScope),
// per RFC 7871 §7.2.1.
func ecsAnswerHandler(addr string, scope uint8) Handler {
	return HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		m := new(dnswire.Message)
		m.SetReply(r.Msg)
		m.Answers = []dnswire.RR{&dnswire.A{
			Hdr:  dnswire.RRHeader{Name: r.Name(), Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 30},
			Addr: netip.MustParseAddr(addr),
		}}
		if ecs, ok := r.Msg.ECS(); ok {
			echo := *ecs
			if scope == echoSourceScope {
				echo.ScopePrefix = ecs.SourcePrefix
			} else {
				echo.ScopePrefix = scope
			}
			opt := m.SetEDNS(dnswire.DefaultEDNSSize)
			opt.Options = append(opt.Options, &echo)
		}
		return m.Rcode, w.WriteMsg(m)
	})
}

// slowPlugin delays every query, simulating a resolution in flight
// while the server drains. It waits on something other than the CPU,
// so like Forward it says so first.
type slowPlugin struct{ delay time.Duration }

func (p *slowPlugin) Name() string { return "slow" }

func (p *slowPlugin) ServeDNS(ctx context.Context, w ResponseWriter, r *Request, next Handler) (dnswire.Rcode, error) {
	if !r.mayWait() {
		return dnswire.RcodeServerFailure, errIngressFull
	}
	time.Sleep(p.delay)
	return next.ServeDNS(ctx, w, r)
}

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

// askWire serves a query for name — with an OPT when edns, and the ECS
// option ecs when that is not nil — through h as an ingress does, and
// returns the reply decoded, which must hold answers answers.
func askWire(t *testing.T, h Handler, name string, edns bool, ecs *dnswire.ECSOption, answers int) *dnswire.Message {
	t.Helper()
	q := new(dnswire.Message)
	q.SetQuestion(name, dnswire.TypeA)
	if edns || ecs != nil {
		opt := q.SetEDNS(dnswire.DefaultEDNSSize)
		if ecs != nil {
			opt.Options = append(opt.Options, ecs)
		}
	}
	pkt, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	st := &serveScratch{intern: dnswire.NewNameIntern(0)}
	buf, n := serveQuery(context.Background(), h, nil, st, pkt, testClient, "udp", maxUDPPayload)
	if buf == nil {
		t.Fatalf("%s: no reply", name)
	}
	defer dnswire.PutBuffer(buf)
	resp := new(dnswire.Message)
	if err := resp.Unpack(buf[:n]); err != nil || len(resp.Answers) != answers {
		t.Fatalf("%s: reply %v, %d answers", name, err, len(resp.Answers))
	}
	return resp
}

// startTestServer starts srv — on a loopback ephemeral port unless its
// Addr says otherwise — and closes it when the test ends.
func startTestServer(t *testing.T, srv *Server) *Server {
	t.Helper()
	if srv.Addr == "" {
		srv.Addr = "127.0.0.1:0"
	}
	if err := srv.Start(); err != nil {
		t.Fatalf("starting server: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// shardChain answers www.shard.test. from a zone: the one name the
// socket-count and connection-cap tests ask.
func shardChain(t *testing.T) Handler {
	t.Helper()
	z := NewZone("shard.test.")
	if err := z.AddA("www.shard.test.", 60, netip.MustParseAddr("192.0.2.61")); err != nil {
		t.Fatal(err)
	}
	return Chain(NewZonePlugin(z))
}

// ingressConn is one client connection to a server's UDP socket or TCP
// listener. ask sends one raw query image and reads the raw reply; on
// UDP, send and recv keep many queries outstanding on the one flow,
// their replies matched by ID, so they may arrive in any order.
type ingressConn struct {
	net.Conn
	t   *testing.T
	tcp bool
	buf []byte
}

func dialIngress(t *testing.T, transport string, addr netip.AddrPort) *ingressConn {
	t.Helper()
	conn, err := net.Dial(transport, addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &ingressConn{Conn: conn, t: t, tcp: transport == "tcp", buf: make([]byte, dnswire.MaxMessageSize)}
}

func (c *ingressConn) ask(query []byte) ([]byte, error) {
	_ = c.SetDeadline(time.Now().Add(5 * time.Second))
	if c.tcp {
		if err := dnswire.WriteTCP(c, query); err != nil {
			return nil, err
		}
		buf, err := dnswire.ReadTCP(c)
		reply := append([]byte(nil), buf...)
		dnswire.PutBuffer(buf)
		return reply, err
	}
	if _, err := c.Write(query); err != nil {
		return nil, err
	}
	n, err := c.Read(c.buf)
	return append([]byte(nil), c.buf[:n]...), err
}

func (c *ingressConn) send(name string, id uint16) {
	c.t.Helper()
	q := queryFor(name).Msg
	q.ID = id
	if _, err := c.Write(mustPack(c.t, q)); err != nil {
		c.t.Fatal(err)
	}
}

// recv returns the ID and rcode of the next reply, ok=false once
// nothing has arrived for timeout.
func (c *ingressConn) recv(timeout time.Duration) (id uint16, rcode dnswire.Rcode, ok bool) {
	c.SetReadDeadline(time.Now().Add(timeout))
	n, err := c.Read(c.buf)
	if err != nil || n < 12 {
		return 0, 0, false
	}
	return uint16(c.buf[0])<<8 | uint16(c.buf[1]), dnswire.Rcode(c.buf[3] & 0xF), true
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not met in time")
}

// scriptedUpstream is a loopback UDP server that answers each query
// with whatever datagrams reply returns, in order, delay after the
// query arrived; delayed answers run on timers of their own, so the
// queries they answer are outstanding together.
func scriptedUpstream(t *testing.T, delay time.Duration, reply func(q *dnswire.Message, raw []byte) [][]byte) netip.AddrPort {
	t.Helper()
	conn, err := net.ListenUDP("udp", net.UDPAddrFromAddrPort(netip.MustParseAddrPort("127.0.0.1:0")))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 4096)
		for {
			n, from, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			q := new(dnswire.Message)
			if err := q.Unpack(buf[:n]); err != nil {
				t.Errorf("upstream: %v", err)
				continue
			}
			datagrams := reply(q, buf[:n])
			answer := func() {
				for _, d := range datagrams {
					if _, err := conn.WriteToUDPAddrPort(d, from); err != nil && !errors.Is(err, net.ErrClosed) {
						t.Errorf("upstream write: %v", err)
					}
				}
			}
			if delay == 0 {
				answer()
				continue
			}
			wg.Add(1)
			time.AfterFunc(delay, func() {
				defer wg.Done()
				answer()
			})
		}
	}()
	t.Cleanup(func() {
		conn.Close()
		wg.Wait()
	})
	return conn.LocalAddr().(*net.UDPAddr).AddrPort()
}

// scriptTransport is a dnsclient.Transport whose behaviour is scripted
// per upstream address: an answer address, a failure rcode, a
// transport error, a delay (honouring context cancellation), or a hold
// (answering only once the channel is closed, cancelled or not).
type scriptTransport struct {
	mu     sync.Mutex
	calls  map[netip.AddrPort]int
	answer map[netip.AddrPort]netip.Addr
	rcode  map[netip.AddrPort]dnswire.Rcode
	fail   map[netip.AddrPort]error
	delay  map[netip.AddrPort]time.Duration
	hold   map[netip.AddrPort]chan struct{}
}

func newScriptTransport() *scriptTransport {
	return &scriptTransport{
		calls:  make(map[netip.AddrPort]int),
		answer: make(map[netip.AddrPort]netip.Addr),
		rcode:  make(map[netip.AddrPort]dnswire.Rcode),
		fail:   make(map[netip.AddrPort]error),
		delay:  make(map[netip.AddrPort]time.Duration),
		hold:   make(map[netip.AddrPort]chan struct{}),
	}
}

func (t *scriptTransport) callCount(server netip.AddrPort) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.calls[server]
}

func (t *scriptTransport) Exchange(ctx context.Context, _ time.Time, server netip.AddrPort, query []byte, tcp bool) ([]byte, error) {
	t.mu.Lock()
	t.calls[server]++
	delay := t.delay[server]
	failErr := t.fail[server]
	rcode := t.rcode[server]
	addr, hasAnswer := t.answer[server]
	hold := t.hold[server]
	t.mu.Unlock()

	if hold != nil {
		<-hold
	}
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if failErr != nil {
		return nil, failErr
	}
	q := new(dnswire.Message)
	if err := q.Unpack(query); err != nil {
		return nil, err
	}
	m := new(dnswire.Message)
	m.SetReply(q)
	m.Rcode = rcode
	if rcode == dnswire.RcodeSuccess && hasAnswer {
		m.Answers = []dnswire.RR{&dnswire.A{
			Hdr:  dnswire.RRHeader{Name: q.Question().Name, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 30},
			Addr: addr,
		}}
	}
	return m.Pack()
}

func scriptClient(t *scriptTransport) *dnsclient.Client {
	return &dnsclient.Client{Transport: t, Timeout: 2 * time.Second}
}

var (
	upA = netip.MustParseAddrPort("192.0.2.10:53")
	upB = netip.MustParseAddrPort("192.0.2.20:53")
)

// transportFunc is a dnsclient.Transport answering in process, so the
// same upstream serves a chain behind a socket and one inside a simnet.
type transportFunc func(query []byte) ([]byte, error)

func (f transportFunc) Exchange(_ context.Context, _ time.Time, _ netip.AddrPort, query []byte, _ bool) ([]byte, error) {
	return f(query)
}

// stepClock is a vclock.Clock the test moves while server goroutines
// read it.
type stepClock struct{ now atomic.Int64 }

func (c *stepClock) Now() time.Duration { return time.Duration(c.now.Load()) }

func (c *stepClock) Advance(d time.Duration) { c.now.Add(int64(d)) }

// The scratch a serve loop parses into is rewritten by its next query,
// OPT record and ECS option in place (Message.UnpackQuery). Work that
// outlives the query it serves — a refresh-ahead prefetch, a hedged
// exchange's loser — runs on a clone of the request, and
// TestPrefetchKeepsItsOwnECS and TestHedgedLoserKeepsItsOwnECS pin
// that: after the next query, disclosing nextSubnet, reuses the
// scratch, the outliving work still carries its own query's ownSubnet.
// Run them with -race, which also catches a read of the scratch the
// assertions cannot time.
var (
	ownSubnet  = netip.MustParsePrefix("10.1.2.0/24")
	nextSubnet = netip.MustParsePrefix("10.9.9.0/24")
)

// poolOutstanding is dnswire.PoolOutstanding under -tags pooldebug
// (pooldebug_test.go installs it) and a constant 0 otherwise.
var poolOutstanding = func() int { return 0 }

func testZone(t *testing.T) *Zone {
	t.Helper()
	z := NewZone("mycdn.ciab.test.")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(z.AddA("edge1.mycdn.ciab.test.", 60, netip.MustParseAddr("10.96.0.11")))
	must(z.AddA("edge1.mycdn.ciab.test.", 60, netip.MustParseAddr("10.96.0.12")))
	must(z.AddCNAME("video.demo1.mycdn.ciab.test.", 300, "edge1.mycdn.ciab.test."))
	must(z.AddCNAME("chain1.mycdn.ciab.test.", 300, "chain2.mycdn.ciab.test."))
	must(z.AddCNAME("chain2.mycdn.ciab.test.", 300, "edge1.mycdn.ciab.test."))
	must(z.AddCNAME("external.mycdn.ciab.test.", 300, "cdn.elsewhere.example."))
	must(z.Add(&dnswire.TXT{
		Hdr: dnswire.RRHeader{Name: "edge1.mycdn.ciab.test.", Type: dnswire.TypeTXT, Class: dnswire.ClassINET, TTL: 60},
		Txt: []string{"site=edge1"},
	}))
	must(z.AddA("*.wild.mycdn.ciab.test.", 60, netip.MustParseAddr("10.96.0.99")))
	// Delegation: child.mycdn.ciab.test → ns.child with glue.
	must(z.Add(&dnswire.NS{
		Hdr: dnswire.RRHeader{Name: "child.mycdn.ciab.test.", Type: dnswire.TypeNS, Class: dnswire.ClassINET, TTL: 3600},
		NS:  "ns.child.mycdn.ciab.test.",
	}))
	must(z.AddA("ns.child.mycdn.ciab.test.", 3600, netip.MustParseAddr("10.96.0.200")))
	return z
}

// randomLabel builds a plausible DNS label from a seed byte.
func randomLabel(rng *rand.Rand) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-"
	n := 1 + rng.Intn(12)
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet)-1)]
	}
	// Avoid leading '-' which some parsers dislike; keep it simple.
	if b[0] == '-' {
		b[0] = 'a'
	}
	return string(b)
}

func randomName(rng *rand.Rand, origin string) string {
	depth := 1 + rng.Intn(3)
	name := ""
	for i := 0; i < depth; i++ {
		name += randomLabel(rng) + "."
	}
	return name + origin
}
