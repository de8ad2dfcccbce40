package dnsserver

// Tests of the one query→reply path: the three ingresses run
// serveQuery, so they must agree byte for byte, the sim ingress must
// survive a query arriving while another is parked in its chain, the
// advertised EDNS payload size must not buy more than maxUDPPayload,
// and serveQuery must take any bytes at any limit.

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnsclient"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/simnet"
	"github.com/meccdn/meccdn/internal/telemetry"
)

// poolOutstanding is dnswire.PoolOutstanding under -tags pooldebug
// (pooldebug_test.go installs it) and a constant 0 otherwise.
var poolOutstanding = func() int { return 0 }

// stepClock is a vclock.Clock the test moves while server goroutines
// read it.
type stepClock struct{ now atomic.Int64 }

func (c *stepClock) Now() time.Duration      { return time.Duration(c.now.Load()) }
func (c *stepClock) Advance(d time.Duration) { c.now.Add(int64(d)) }

// transportFunc is a dnsclient.Transport answering in process, so the
// same upstream serves a chain behind a socket and one inside a simnet.
type transportFunc func(query []byte) ([]byte, error)

func (f transportFunc) Exchange(_ context.Context, _ netip.AddrPort, query []byte, _ bool) ([]byte, error) {
	return f(query)
}

// agreeSite is one instance of the chain TestIngressesAgree plays its
// script against: Metrics → Cache → Stub → Zone, the stub's upstream a
// scripted CDN authority that scopes its answers to /16 and can be made
// to fail.
type agreeSite struct {
	chain    Handler
	clock    *stepClock
	upstream atomic.Bool // false: the upstream errors out
}

func newAgreeSite(t *testing.T) *agreeSite {
	t.Helper()
	s := &agreeSite{clock: new(stepClock)}
	s.upstream.Store(true)
	zone := NewZone("zone.test.")
	if err := zone.AddA("www.zone.test.", 300, netip.MustParseAddr("192.0.2.80")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ { // ~1 KiB: whole at an advertised 4096
		if err := zone.AddA("many.zone.test.", 300, netip.AddrFrom4([4]byte{10, 9, 0, byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	// The upstream answers on the query's own bytes with the owner name
	// spelled out in upper case — an image no Pack would write, so an
	// ingress that decoded and repacked a relayed reply would show — and,
	// when the query carries ECS (its only option), echoes it scoped /16.
	stub := NewStub(&dnsclient.Client{Timeout: time.Second, Transport: transportFunc(func(query []byte) ([]byte, error) {
		if !s.upstream.Load() {
			return nil, errors.New("upstream down")
		}
		var q dnswire.Message
		if err := q.Unpack(query); err != nil {
			return nil, err
		}
		qend := 12
		for query[qend] != 0 {
			qend += 1 + int(query[qend])
		}
		qend += 5
		ttl := byte(60)
		if q.Question().Name == "short.cdn.test." {
			ttl = 5
		}
		img := append([]byte(nil), query[:qend]...)
		img[2] |= 0x84 // QR, AA
		img[7] = 1     // ANCOUNT
		img = append(img, bytes.ToUpper(query[12:qend-4])...)
		img = append(img, 0, 1, 0, 1, 0, 0, 0, ttl, 0, 4, 198, 51, 100, 7)
		opt := append([]byte(nil), query[qend:]...)
		if _, ok := q.ECS(); ok {
			opt[11+7] = 16 // SCOPE PREFIX-LENGTH, past the OPT's fixed part and the option's head
		}
		return append(img, opt...), nil
	})})
	stub.Route("cdn.test.", netip.MustParseAddrPort("192.0.2.53:53"))
	cache := NewCache(s.clock)
	cache.MaxStale = time.Minute
	s.chain = Chain(NewMetrics(), cache, stub, NewZonePlugin(zone))
	return s
}

// agreeStep is one query of the script, with what happens to the site
// before it is sent.
type agreeStep struct {
	name    string
	advance time.Duration
	down    bool // the upstream fails from here on
	query   func(q *dnswire.Message)
}

func ecsQuery(name string, subnet string) func(*dnswire.Message) {
	return func(q *dnswire.Message) {
		q.SetQuestion(name, dnswire.TypeA)
		p := netip.MustParsePrefix(subnet)
		opt := q.SetEDNS(1232)
		opt.Options = append(opt.Options, &dnswire.ECSOption{
			Family: 1, SourcePrefix: uint8(p.Bits()), Address: p.Addr(),
		})
	}
}

func plainQuery(name string) func(*dnswire.Message) {
	return func(q *dnswire.Message) { q.SetQuestion(name, dnswire.TypeA) }
}

var agreeScript = []agreeStep{
	{name: "zone miss", query: plainQuery("www.zone.test.")},
	{name: "zone hit", query: plainQuery("www.zone.test.")},
	{name: "nxdomain", query: plainQuery("nope.zone.test.")},
	{name: "nxdomain hit", query: plainQuery("nope.zone.test.")},
	{name: "relayed ecs miss", query: ecsQuery("a.cdn.test.", "10.1.2.0/24")},
	{name: "ecs hit on the /16 scope", query: ecsQuery("a.cdn.test.", "10.1.99.0/24")},
	{name: "opt-only miss relayed", query: func(q *dnswire.Message) {
		q.SetQuestion("b.cdn.test.", dnswire.TypeA)
		q.SetEDNS(1232)
	}},
	{name: "aged hit", advance: 10 * time.Second, query: plainQuery("www.zone.test.")},
	{name: "large answer at an advertised size that fits", query: func(q *dnswire.Message) {
		q.SetQuestion("many.zone.test.", dnswire.TypeA)
		q.SetEDNS(4096)
	}},
	{name: "short-lived relayed", query: plainQuery("short.cdn.test.")},
	{name: "stale answer", advance: 6 * time.Second, down: true, query: plainQuery("short.cdn.test.")},
	{name: "upstream failure", query: plainQuery("fresh.cdn.test.")},
	{name: "nobody answers", query: plainQuery("www.elsewhere.example.")},
}

// dialIngress connects to a server's UDP socket or TCP listener and
// returns a function that sends one raw query image and reads the raw
// reply.
func dialIngress(t *testing.T, transport string, addr netip.AddrPort) func(query []byte) ([]byte, error) {
	t.Helper()
	conn, err := net.Dial(transport, addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return func(query []byte) ([]byte, error) {
		_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
		if transport == "tcp" {
			if err := dnswire.WriteTCP(conn, query); err != nil {
				return nil, err
			}
			buf, err := dnswire.ReadTCP(conn)
			reply := append([]byte(nil), buf...)
			dnswire.PutBuffer(buf)
			return reply, err
		}
		if _, err := conn.Write(query); err != nil {
			return nil, err
		}
		buf := make([]byte, dnswire.MaxMessageSize)
		n, err := conn.Read(buf)
		return buf[:n], err
	}
}

// TestIngressesAgree plays one script of query images against three
// instances of one chain, each behind a different ingress — a loopback
// UDP socket, a server's TCP listener, and an Attached simnet node —
// and requires the reply bytes to be identical: there is one
// query→reply path, so a figure measured in the simulator ran the code
// the daemon serves with.
func TestIngressesAgree(t *testing.T) {
	type ingress struct {
		name string
		site *agreeSite
		ask  func(query []byte) ([]byte, error)
	}
	var ingresses []ingress

	for _, transport := range []string{"udp", "tcp"} {
		site := newAgreeSite(t)
		srv := &Server{Addr: "127.0.0.1:0", Handler: site.chain, Telemetry: telemetry.NewHub(nil)}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		ingresses = append(ingresses, ingress{transport, site, dialIngress(t, transport, srv.LocalAddr())})
	}

	site := newAgreeSite(t)
	n := simnet.New(7)
	n.AddNode("ue")
	n.AddNode("ldns")
	n.AddLink("ue", "ldns", simnet.Constant(time.Millisecond), 0)
	Attach(n.Node("ldns"), site.chain, simnet.Constant(250*time.Microsecond))
	ingresses = append(ingresses, ingress{"sim", site, func(query []byte) ([]byte, error) {
		reply, _, err := n.Node("ue").Endpoint().Exchange(n.Node("ldns").Addr, query, time.Second)
		return reply, err
	}})

	for i, step := range agreeScript {
		q := new(dnswire.Message)
		step.query(q)
		q.ID = 0x4000 + uint16(i)
		q.RecursionDesired = i%2 == 0
		query := mustPack(t, q)
		var first []byte
		for _, in := range ingresses {
			in.site.clock.Advance(step.advance)
			if step.down {
				in.site.upstream.Store(false)
			}
			reply, err := in.ask(query)
			if err != nil {
				t.Fatalf("%s over %s: %v", step.name, in.name, err)
			}
			var m dnswire.Message
			if err := m.Unpack(reply); err != nil || m.ID != q.ID || !m.Response {
				t.Fatalf("%s over %s: not a reply to the query (%v): % x", step.name, in.name, err, reply)
			}
			if first == nil {
				first = reply
				t.Logf("%-45s %v, %d answers, %d bytes", step.name, m.Rcode, len(m.Answers), len(reply))
			} else if !bytes.Equal(reply, first) {
				t.Errorf("%s: %s answers differently from %s:\n% x\n% x", step.name, in.name, ingresses[0].name, reply, first)
			}
		}
	}
}

// TestAttachReentrant delivers a second query to a simnet node while
// its first is parked in a nested upstream Exchange (which pumps the
// event loop re-entrantly). Each client must get its own ID, question
// and answer back — which is why the sim ingress parses every datagram
// into scratch of its own.
func TestAttachReentrant(t *testing.T) {
	n := simnet.New(11)
	for _, name := range []string{"a", "b", "ldns", "up"} {
		n.AddNode(name)
	}
	n.AddLink("a", "ldns", simnet.Constant(time.Millisecond), 0)
	n.AddLink("b", "ldns", simnet.Constant(time.Millisecond), 0)
	n.AddLink("ldns", "up", simnet.Constant(10*time.Millisecond), 0)

	zone := NewZone("up.test.")
	want := map[string]netip.Addr{
		"a.up.test.": netip.MustParseAddr("10.0.0.1"),
		"b.up.test.": netip.MustParseAddr("10.0.0.2"),
	}
	for name, addr := range want {
		if err := zone.AddA(name, 60, addr); err != nil {
			t.Fatal(err)
		}
	}
	Attach(n.Node("up"), Chain(NewZonePlugin(zone)), nil)
	stub := NewStub(simClient(n, "ldns"))
	stub.Route("up.test.", netip.AddrPortFrom(n.Node("up").Addr, 53))
	Attach(n.Node("ldns"), Chain(stub), nil)

	replies := map[string][]byte{}
	send := func(node, name string, id uint16) {
		q := new(dnswire.Message)
		q.SetQuestion(name, dnswire.TypeA)
		q.ID = id
		n.Node(node).Tap(func(ev simnet.HopEvent) {
			if ev.Kind == simnet.HopDeliver {
				replies[node] = ev.Dg.Payload
			}
		})
		if err := n.Node(node).Endpoint().SendAsync(n.Node("ldns").Addr, mustPack(t, q)); err != nil {
			t.Fatal(err)
		}
	}
	// a's query reaches the L-DNS at 1 ms and waits until 21 ms for the
	// upstream; b's arrives at 6 ms, in the middle of that wait.
	send("a", "a.up.test.", 0xAAAA)
	n.Clock.Schedule(5*time.Millisecond, func() { send("b", "b.up.test.", 0xBBBB) })
	n.Clock.Run()

	for node, id := range map[string]uint16{"a": 0xAAAA, "b": 0xBBBB} {
		name := node + ".up.test."
		var m dnswire.Message
		if err := m.Unpack(replies[node]); err != nil {
			t.Fatalf("%s: no reply (%v)", node, err)
		}
		if m.ID != id || m.Question().Name != name {
			t.Errorf("%s got the reply to %#x %s, asked %#x %s", node, m.ID, m.Question().Name, id, name)
		}
		if len(m.Answers) != 1 || m.Answers[0].(*dnswire.A).Addr != want[name] {
			t.Errorf("%s: answers = %v, want %v", node, m.Answers, want[name])
		}
	}
}

// bigZone returns a zone whose big.<origin> RRset packs to more than
// maxUDPPayload bytes (16 per compressed A record).
func bigZone(t testing.TB, origin string) (*Zone, int) {
	const records = 300
	z := NewZone(origin)
	for i := 0; i < records; i++ {
		if err := z.AddA("big."+origin, 60, netip.AddrFrom4([4]byte{10, 3, byte(i >> 8), byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	return z, records
}

// TestServerCapsAdvertisedEDNSSize: the payload size a query advertises
// is honoured only up to maxUDPPayload. A spoofed-source query
// advertising 65 535 must not buy a reply larger than that over UDP (it
// is truncated, TC set); the whole RRset is there over TCP.
func TestServerCapsAdvertisedEDNSSize(t *testing.T) {
	zone, records := bigZone(t, "cap.test.")
	addr := startTestServer(t, Chain(NewZonePlugin(zone)))
	q := new(dnswire.Message)
	q.SetQuestion("big.cap.test.", dnswire.TypeA)
	q.SetEDNS(65535)
	query := mustPack(t, q)

	var m dnswire.Message
	reply, err := dialIngress(t, "udp", addr)(query)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Unpack(reply); err != nil {
		t.Fatal(err)
	}
	if len(reply) > maxUDPPayload || !m.Truncated || len(m.Answers) >= records {
		t.Errorf("UDP reply to an advertised 65535: %d bytes, TC=%v, %d answers; want <= %d bytes, truncated",
			len(reply), m.Truncated, len(m.Answers), maxUDPPayload)
	}

	if reply, err = dialIngress(t, "tcp", addr)(query); err != nil {
		t.Fatal(err)
	}
	if err := m.Unpack(reply); err != nil {
		t.Fatal(err)
	}
	if m.Truncated || len(m.Answers) != records {
		t.Errorf("TCP reply: TC=%v, %d answers; want all %d", m.Truncated, len(m.Answers), records)
	}
}

// FuzzServeQuery throws arbitrary bytes at the one query→reply
// function, at the reply limit of each transport: plain UDP, UDP at
// the EDNS cap, and a stream. It must never panic; a datagram is either
// dropped at every limit or answered at every limit; an answer decodes,
// is a response under the query's ID, and fits the limit; and every
// pooled buffer is back afterwards (counted under -tags pooldebug).
func FuzzServeQuery(f *testing.F) {
	zone, _ := bigZone(f, "fuzz.test.")
	if err := zone.AddA("www.fuzz.test.", 60, netip.MustParseAddr("192.0.2.1")); err != nil {
		f.Fatal(err)
	}
	clock := new(stepClock)
	chain := Chain(NewMetrics(), NewCache(clock), NewZonePlugin(zone))
	client := netip.MustParseAddrPort("198.51.100.9:5300")

	for _, name := range []string{"www.fuzz.test.", "big.fuzz.test.", "nope.fuzz.test.", "www.elsewhere.example."} {
		for _, build := range []func(*dnswire.Message){
			plainQuery(name),
			func(q *dnswire.Message) { q.SetQuestion(name, dnswire.TypeA); q.SetEDNS(65535) },
			ecsQuery(name, "10.1.2.0/24"),
		} {
			q := new(dnswire.Message)
			build(q)
			q.ID = 0x5151
			wire, err := q.Pack()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(wire)
		}
	}
	f.Add([]byte("not dns"))

	f.Fuzz(func(t *testing.T, data []byte) {
		base := poolOutstanding()
		st := &serveScratch{intern: dnswire.NewNameIntern(0)}
		replied := 0
		limits := []int{dnswire.MaxUDPSize, maxUDPPayload, dnswire.MaxMessageSize}
		for _, limit := range limits {
			buf, n := serveQuery(chain, nil, st, data, client, "fuzz", limit)
			if buf == nil {
				continue
			}
			replied++
			var m dnswire.Message
			err := m.Unpack(buf[:n])
			id := uint16(buf[0])<<8 | uint16(buf[1])
			dnswire.PutBuffer(buf)
			if err != nil {
				t.Fatalf("limit %d: the reply does not decode: %v", limit, err)
			}
			if n > limit || !m.Response || id != uint16(data[0])<<8|uint16(data[1]) {
				t.Fatalf("limit %d: %d-byte reply, QR=%v, ID %#x to a query with ID %#x", limit, n, m.Response, id, data[:2])
			}
		}
		if replied != 0 && replied != len(limits) {
			t.Fatalf("answered at %d of %d limits", replied, len(limits))
		}
		if out := poolOutstanding(); out != base {
			t.Fatalf("%d pooled buffers outstanding after serving", out-base)
		}
	})
}
