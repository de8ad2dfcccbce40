package dnsserver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnsclient"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/racecheck"
	"github.com/meccdn/meccdn/internal/simnet"
	"github.com/meccdn/meccdn/internal/telemetry"
	"github.com/meccdn/meccdn/internal/vclock"
)

// TestAcceptMatrix: a query the RFCs say to refuse gets its error reply
// from the ingress, whatever the chain behind it would have done — a
// zone answer, a cache hit, a stub's upstream exchange — and the chain
// never sees it: the cache neither answers nor stores it and the
// upstream is not asked. Each reply carries the query's opcode and
// question and an OPT of version 0, the chain's Metrics link counts
// it under its rcode and the query's type, and the hub counts it on the
// refused resolution path.
func TestAcceptMatrix(t *testing.T) {
	// The cells of meccdn_dns_resolution_path_total run cache-hit, edge,
	// upstream, refused, error.
	const refusedPath = 3
	const name = "www.accept.test."
	var asked atomic.Int32
	up := scriptedUpstream(t, 0, func(q *dnswire.Message, raw []byte) [][]byte {
		asked.Add(1)
		m := new(dnswire.Message)
		m.SetReply(q)
		m.Answers = []dnswire.RR{&dnswire.A{
			Hdr:  dnswire.RRHeader{Name: name, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 60},
			Addr: netip.MustParseAddr("192.0.2.80"),
		}}
		return [][]byte{mustPack(t, m)}
	})
	tr := &dnsclient.NetTransport{}
	defer tr.Close()
	zone := NewZone("accept.test.")
	if err := zone.AddA(name, 60, netip.MustParseAddr("192.0.2.53")); err != nil {
		t.Fatal(err)
	}
	client := netip.MustParseAddrPort("198.51.100.9:5300")

	for _, row := range []struct {
		name  string
		build func(*dnswire.Message)
		rcode dnswire.Rcode
	}{
		{"opcode STATUS", func(q *dnswire.Message) { q.Opcode = dnswire.OpcodeStatus }, dnswire.RcodeNotImplemented},
		{"OPT VERSION 1", func(q *dnswire.Message) { q.Additionals[0].(*dnswire.OPT).Hdr.TTL |= 1 << 16 }, dnswire.RcodeBadVers},
		{"two OPT records", func(q *dnswire.Message) { q.Additionals = append(q.Additionals, dnswire.NewOPT(1232)) }, dnswire.RcodeFormatError},
		// 10.1.2.0/24 with a fourth address octet; 10.1.3.0/22 with bits 23 and 24 set.
		{"ECS address longer than its prefix", badECS(0, 1, 24, 0, 10, 1, 2, 0), dnswire.RcodeFormatError},
		{"ECS bits past its prefix", badECS(0, 1, 22, 0, 10, 1, 3), dnswire.RcodeFormatError},
	} {
		for _, col := range []struct {
			name    string
			prefill bool          // a well-formed query for the name is cached first
			source  func() Plugin // the link behind the cache
		}{
			{"zone answer", false, func() Plugin { return NewZonePlugin(zone) }},
			{"cache hit", true, func() Plugin { return NewZonePlugin(zone) }},
			{"stub miss", false, func() Plugin {
				stub := NewStub(&dnsclient.Client{Transport: tr, Timeout: 2 * time.Second, Retries: 1})
				stub.Route("accept.test.", up)
				return stub
			}},
		} {
			cache, metrics, hub := NewCache(vclock.NewReal()), NewMetrics(), telemetry.NewHub(nil)
			chain := Chain(metrics, cache, col.source())
			st := &serveScratch{intern: dnswire.NewNameIntern(0)}
			serve := func(build func(*dnswire.Message)) *dnswire.Message {
				q := queryFor("WwW.Accept.TEST.", "10.1.2.0/24").Msg
				q.ID = 0x4242
				if build != nil {
					build(q)
				}
				buf, n := serveQuery(context.Background(), chain, hub, st, mustPack(t, q), client, "udp", maxUDPPayload)
				if buf == nil {
					t.Fatalf("%s, %s: no reply", row.name, col.name)
				}
				reply := new(dnswire.Message)
				err := reply.Unpack(buf[:n])
				dnswire.PutBuffer(buf)
				if err != nil {
					t.Fatalf("%s, %s: the reply does not decode: %v", row.name, col.name, err)
				}
				if reply.Opcode != q.Opcode || reply.ID != q.ID || len(reply.Questions) != 1 || reply.Questions[0] != q.Questions[0] {
					t.Errorf("%s, %s: reply opcode %v, ID %#x, question %v to opcode %v, ID %#x, question %v",
						row.name, col.name, reply.Opcode, reply.ID, reply.Questions, q.Opcode, q.ID, q.Questions[0])
				}
				return reply
			}
			if col.prefill {
				serve(nil)
			}
			before, askedBefore := cache.Stats(), asked.Load()
			counted, countedA := metrics.CountByRcode(row.rcode), metrics.CountByType(dnswire.TypeA)
			paths := hub.Path.Values()
			reply := serve(row.build)
			opt, edns := reply.OPT()
			switch {
			case reply.Rcode != row.rcode:
				t.Errorf("%s, %s: rcode %v, want %v", row.name, col.name, reply.Rcode, row.rcode)
			case !edns || opt.Version() != 0:
				t.Errorf("%s, %s: OPT %v, want one of version 0", row.name, col.name, opt)
			case len(reply.Answers) != 0:
				t.Errorf("%s, %s: %d answers", row.name, col.name, len(reply.Answers))
			}
			if after := cache.Stats(); after.Hits != before.Hits || after.Misses != before.Misses || after.Entries != before.Entries {
				t.Errorf("%s, %s: the query reached the cache: %+v, then %+v", row.name, col.name, before, after)
			}
			if n := asked.Load() - askedBefore; n != 0 {
				t.Errorf("%s, %s: the upstream was asked %d times", row.name, col.name, n)
			}
			if n, nA := metrics.CountByRcode(row.rcode)-counted, metrics.CountByType(dnswire.TypeA)-countedA; n != 1 || nA != 1 {
				t.Errorf("%s, %s: Metrics counted the reply %d times under %v, the query %d times under A", row.name, col.name, n, row.rcode, nA)
			}
			paths[refusedPath]++
			if got := hub.Path.Values(); !slices.Equal(got, paths) {
				t.Errorf("%s, %s: resolution paths %v, want %v", row.name, col.name, got, paths)
			}
		}
	}
}

// badECS returns a query edit that replaces the query's ECS option with
// one whose bytes are data.
func badECS(data ...byte) func(*dnswire.Message) {
	return func(q *dnswire.Message) {
		q.Additionals[0].(*dnswire.OPT).Options[0] = &dnswire.GenericOption{OptCode: dnswire.OptionCodeECS, Data: data}
	}
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
	query   *dnswire.Message
}

var agreeScript = []agreeStep{
	{name: "zone miss", query: queryFor("www.zone.test.").Msg},
	{name: "zone hit", query: queryFor("www.zone.test.").Msg},
	{name: "nxdomain", query: queryFor("nope.zone.test.").Msg},
	{name: "nxdomain hit", query: queryFor("nope.zone.test.").Msg},
	{name: "relayed ecs miss", query: queryFor("a.cdn.test.", "10.1.2.0/24").Msg},
	{name: "ecs hit on the /16 scope", query: queryFor("a.cdn.test.", "10.1.99.0/24").Msg},
	{name: "opt-only miss relayed", query: func() *dnswire.Message {
		q := queryFor("b.cdn.test.").Msg
		q.SetEDNS(1232)
		return q
	}()},
	{name: "aged hit", advance: 10 * time.Second, query: queryFor("www.zone.test.").Msg},
	{name: "large answer at an advertised size that fits", query: func() *dnswire.Message {
		q := queryFor("many.zone.test.").Msg
		q.SetEDNS(4096)
		return q
	}()},
	{name: "short-lived relayed", query: queryFor("short.cdn.test.").Msg},
	{name: "stale answer", advance: 6 * time.Second, down: true, query: queryFor("short.cdn.test.").Msg},
	{name: "upstream failure", query: queryFor("fresh.cdn.test.").Msg},
	{name: "nobody answers", query: queryFor("www.elsewhere.example.").Msg},
}

// TestIngressesAgree plays one script of query images against three
// instances of one chain, each behind a different ingress — a loopback
// UDP socket, a server's TCP listener, and an Attached simnet node —
// and requires the reply bytes to be identical: there is one
// query→reply path, so a figure measured in the simulator ran the code
// the daemon serves with. A fourth instance is driven through Resolve,
// the way the tests drive chains, and its replies must decode to what
// the UDP leg's bytes decode to: a test's answer is the daemon's.
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
		ingresses = append(ingresses, ingress{transport, site, dialIngress(t, transport, srv.LocalAddr()).ask})
	}

	site := newAgreeSite(t)
	n := simnet.New(7)
	n.AddNode("ue")
	n.AddNode("ldns")
	n.AddLink("ue", "ldns", simnet.Constant(time.Millisecond), 0)
	Attach(n.Node("ldns"), site.chain, nil, simnet.Constant(250*time.Microsecond))
	ingresses = append(ingresses, ingress{"sim", site, func(query []byte) ([]byte, error) {
		reply, _, err := n.Node("ue").Endpoint().Exchange(n.Node("ldns").Addr, query, time.Second)
		return reply, err
	}})

	resolveSite := newAgreeSite(t)
	resolveClient := netip.MustParseAddrPort("127.0.0.1:5300")

	for i, step := range agreeScript {
		q := step.query.Clone()
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

		resolveSite.clock.Advance(step.advance)
		if step.down {
			resolveSite.upstream.Store(false)
		}
		var want dnswire.Message
		if err := want.Unpack(first); err != nil {
			t.Fatal(err)
		}
		got := Resolve(context.Background(), resolveSite.chain, &Request{Msg: q, Client: resolveClient, Transport: "udp"})
		if !reflect.DeepEqual(got, &want) {
			t.Errorf("%s: Resolve answers differently from %s:\n%v\n%v", step.name, ingresses[0].name, got, &want)
		}
	}
}

// TestResponsesAreNotAnswered sends a packet with QR set — a response,
// which a server never answers, or two servers answering each other's
// responses would loop — to a UDP socket, a TCP listener and an
// Attached simnet node. None of them may reply to it; each still
// answers the query that follows it on UDP and in the simulator (a TCP
// stream is hung up, as on any packet that is not a query).
func TestResponsesAreNotAnswered(t *testing.T) {
	zone := NewZone("zone.test.")
	if err := zone.AddA("www.zone.test.", 300, netip.MustParseAddr("192.0.2.80")); err != nil {
		t.Fatal(err)
	}
	chain := Chain(NewMetrics(), NewCache(new(stepClock)), NewZonePlugin(zone))
	packet := func(id uint16, response bool) []byte {
		q := new(dnswire.Message)
		q.SetQuestion("www.zone.test.", dnswire.TypeA)
		q.ID, q.Response = id, response
		return mustPack(t, q)
	}
	const respID, queryID = 0x5151, 0x7171

	srv := &Server{Addr: "127.0.0.1:0", Handler: chain}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	udp, err := net.Dial("udp", srv.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	for _, pkt := range [][]byte{packet(respID, true), packet(queryID, false)} {
		if _, err := udp.Write(pkt); err != nil {
			t.Fatal(err)
		}
	}
	var ids []uint16
	buf := make([]byte, dnswire.MaxMessageSize)
	for {
		_ = udp.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
		if _, err := udp.Read(buf); err != nil {
			break
		}
		ids = append(ids, uint16(buf[0])<<8|uint16(buf[1]))
	}
	if !reflect.DeepEqual(ids, []uint16{queryID}) {
		t.Errorf("udp: replies to IDs %#x, want only the query's %#x", ids, queryID)
	}

	tcp, err := net.Dial("tcp", srv.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	if err := dnswire.WriteTCP(tcp, packet(respID, true)); err != nil {
		t.Fatal(err)
	}
	_ = tcp.SetReadDeadline(time.Now().Add(time.Second))
	if reply, err := dnswire.ReadTCP(tcp); err == nil {
		t.Errorf("tcp: the response was answered: % x", reply)
		dnswire.PutBuffer(reply)
	}

	n := simnet.New(3)
	n.AddNode("ue")
	n.AddNode("ldns")
	n.AddLink("ue", "ldns", simnet.Constant(time.Millisecond), 0)
	Attach(n.Node("ldns"), chain, nil, nil)
	ids = nil
	n.Node("ue").Tap(func(ev simnet.HopEvent) {
		if ev.Kind == simnet.HopDeliver {
			ids = append(ids, uint16(ev.Dg.Payload[0])<<8|uint16(ev.Dg.Payload[1]))
		}
	})
	for _, pkt := range [][]byte{packet(respID, true), packet(queryID, false)} {
		if err := n.Send(simnet.Datagram{Src: n.Node("ue").Addr, Dst: n.Node("ldns").Addr, Payload: pkt}); err != nil {
			t.Fatal(err)
		}
	}
	n.Clock.RunUntil(time.Second)
	if !reflect.DeepEqual(ids, []uint16{queryID}) {
		t.Errorf("sim: replies to IDs %#x, want only the query's %#x", ids, queryID)
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
// advertising 65 535 must not buy a reply larger than that over UDP: it
// is truncated to its header, question and OPT, TC set, so the ingress
// reflects no more bytes than it was sent. The whole RRset is there
// over TCP.
func TestServerCapsAdvertisedEDNSSize(t *testing.T) {
	zone, records := bigZone(t, "cap.test.")
	addr := startTestServer(t, &Server{Handler: Chain(NewZonePlugin(zone))}).LocalAddr()
	q := new(dnswire.Message)
	q.SetQuestion("big.cap.test.", dnswire.TypeA)
	q.SetEDNS(65535)
	query := mustPack(t, q)

	var m dnswire.Message
	reply, err := dialIngress(t, "udp", addr).ask(query)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Unpack(reply); err != nil {
		t.Fatal(err)
	}
	if len(reply) > len(query) || !m.Truncated || len(m.Answers) != 0 {
		t.Errorf("UDP reply to a %d-byte query advertising 65535: %d bytes, TC=%v, %d answers; want <= %d bytes, TC, none",
			len(query), len(reply), m.Truncated, len(m.Answers), len(query))
	}

	if reply, err = dialIngress(t, "tcp", addr).ask(query); err != nil {
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
// is a response under the query's ID and opcode, carries the query's
// first question as asked — letter case, type and class — and fits the
// limit; a truncated one carries no answers, no authorities and no
// additionals but OPT records; and every pooled buffer is back
// afterwards (counted under -tags pooldebug).
func FuzzServeQuery(f *testing.F) {
	zone, _ := bigZone(f, "fuzz.test.")
	if err := zone.AddA("www.fuzz.test.", 60, netip.MustParseAddr("192.0.2.1")); err != nil {
		f.Fatal(err)
	}
	clock := new(stepClock)
	chain := Chain(NewMetrics(), NewCache(clock), NewZonePlugin(zone))
	client := netip.MustParseAddrPort("198.51.100.9:5300")

	for _, name := range []string{"www.fuzz.test.", "big.fuzz.test.", "nope.fuzz.test.", "www.elsewhere.example."} {
		capped := queryFor(name).Msg
		capped.SetEDNS(65535)
		for _, q := range []*dnswire.Message{queryFor(name).Msg, capped, queryFor(name, "10.1.2.0/24").Msg} {
			q.ID = 0x5151
			wire, err := q.Pack()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(wire)
		}
	}
	for _, build := range []func(*dnswire.Message){
		func(q *dnswire.Message) {
			q.SetQuestion("www.fuzz.test.", dnswire.TypeA)
			q.Opcode = dnswire.OpcodeStatus
		},
		func(q *dnswire.Message) {
			q.SetQuestion("www.fuzz.test.", dnswire.TypeA)
			q.SetEDNS(1232).Hdr.TTL |= 1 << 16
		},
		func(q *dnswire.Message) { *q = *queryFor("wWw.FuZz.TeSt.", "10.1.2.0/24").Msg },
		func(q *dnswire.Message) {
			q.SetQuestion("www.fuzz.test.", dnswire.TypeA)
			q.Questions[0].Class = 3 // CH
		},
		func(q *dnswire.Message) {
			*q = *queryFor("www.fuzz.test.", "10.1.2.0/24").Msg
			q.Additionals = append(q.Additionals, dnswire.NewOPT(1232))
		},
	} {
		q := new(dnswire.Message)
		build(q)
		wire, err := q.Pack()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}
	f.Add([]byte("not dns"))
	response := new(dnswire.Message)
	response.SetQuestion("www.fuzz.test.", dnswire.TypeA)
	response.Response = true
	wire, err := response.Pack()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wire)

	f.Fuzz(func(t *testing.T, data []byte) {
		base := poolOutstanding()
		var query dnswire.Message // UnpackQuery accepts what Unpack does
		if query.Unpack(data) != nil {
			query = dnswire.Message{}
		}
		st := &serveScratch{intern: dnswire.NewNameIntern(0)}
		replied := 0
		limits := []int{dnswire.MaxUDPSize, maxUDPPayload, dnswire.MaxMessageSize}
		for _, limit := range limits {
			buf, n := serveQuery(context.Background(), chain, nil, st, data, client, "fuzz", limit)
			if buf == nil {
				continue
			}
			if len(data) > 2 && data[2]&0x80 != 0 {
				dnswire.PutBuffer(buf)
				t.Fatalf("limit %d: a packet with QR set was answered", limit)
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
			if m.Opcode != query.Opcode {
				t.Fatalf("limit %d: opcode %v in the reply to opcode %v", limit, m.Opcode, query.Opcode)
			}
			if len(m.Questions) != min(len(query.Questions), 1) || len(m.Questions) == 1 && m.Questions[0] != query.Questions[0] {
				t.Fatalf("limit %d: question %v in the reply to %v", limit, m.Questions, query.Questions)
			}
			// RFC 6891 §6.1.1: a query with more than one OPT record is
			// malformed, and gets no answer.
			opts := 0
			for _, rr := range query.Additionals {
				if rr.Header().Type == dnswire.TypeOPT {
					opts++
				}
			}
			if opts > 1 && len(m.Answers) > 0 {
				t.Fatalf("limit %d: %d answer records to a query with %d OPT records", limit, len(m.Answers), opts)
			}
			// The zone holds IN records only: a question of another
			// class is never answered from it.
			if len(m.Questions) == 1 && len(m.Answers) > 0 {
				if c := m.Questions[0].Class; c != dnswire.ClassINET && c != dnswire.ClassANY {
					t.Fatalf("limit %d: %d answer records to a %v question", limit, len(m.Answers), c)
				}
			}
			if !m.Truncated {
				continue
			}
			if len(m.Answers) != 0 || len(m.Authorities) != 0 {
				t.Fatalf("limit %d: a truncated reply carries %d answers and %d authorities", limit, len(m.Answers), len(m.Authorities))
			}
			for _, rr := range m.Additionals {
				if rr.Header().Type != dnswire.TypeOPT {
					t.Fatalf("limit %d: a truncated reply carries the additional %v", limit, rr)
				}
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

// TestSynthesizedReplyFollowsAsker (RFC 6891 §7, RFC 7871 §7.2.1): the
// replies the server writes itself when no plugin answered — the chain's
// REFUSED fall-through, SERVFAIL for a handler's error, and LoadShed's
// refusal once its bucket is empty — carry an OPT exactly when the query
// did, and echo an ECS option at scope 0.
func TestSynthesizedReplyFollowsAsker(t *testing.T) {
	failing := pluginize(HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		return dnswire.RcodeSuccess, errors.New("handler failed")
	}))
	shed := &LoadShed{Clock: &vclock.Fixed{}, MaxQueries: 1}
	shed.overloaded() // the bucket's one token; a fixed clock never refills it
	subnet := netip.MustParsePrefix("10.1.2.0/24")
	for _, c := range []struct {
		name  string
		h     Handler
		rcode dnswire.Rcode
	}{
		{"REFUSED fall-through", Chain(), dnswire.RcodeRefused},
		{"SERVFAIL on error", Chain(failing), dnswire.RcodeServerFailure},
		{"LoadShed refusal", Chain(shed, failing), dnswire.RcodeRefused},
	} {
		for _, q := range []struct {
			with string
			edns bool
			ecs  *dnswire.ECSOption
		}{{"no OPT", false, nil}, {"OPT", true, nil}, {"OPT+ECS", true, dnswire.NewECSOption(subnet)}} {
			resp := askWire(t, c.h, "synth.test.", q.edns, q.ecs, 0)
			opt, has := resp.OPT()
			echo, echoed := resp.ECS()
			switch {
			case resp.Rcode != c.rcode:
				t.Errorf("%s, %s: rcode %v, want %v", c.name, q.with, resp.Rcode, c.rcode)
			case has != q.edns || has && opt.UDPSize() != dnswire.DefaultEDNSSize:
				t.Errorf("%s, %s: OPT in the reply %v, want %v", c.name, q.with, has, q.edns)
			case echoed != (q.ecs != nil) || echoed && (echo.Prefix() != subnet || echo.Family != 1 || echo.ScopePrefix != 0):
				t.Errorf("%s, %s: ECS echo %v, want %v at scope 0", c.name, q.with, echo, q.ecs)
			}
		}
	}
}

// TestECSClampedAtIngress (RFC 7871 §7.1.1): a client that discloses
// more of its address than the resolver itself would is passed on, and
// cached, at /24 (/56 for IPv6), so two /32s in one /24 share an entry;
// the reply still echoes the family, source length and address the
// client sent, with the answer's scope. A shorter source is left alone.
func TestECSClampedAtIngress(t *testing.T) {
	var forwarded []netip.Prefix
	upstream := HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		wire, err := r.Msg.Pack() // what Stub and Forward send on
		if err != nil {
			return dnswire.RcodeServerFailure, err
		}
		var sent dnswire.Message
		if err := sent.Unpack(wire); err != nil {
			return dnswire.RcodeServerFailure, err
		}
		if ecs, ok := sent.ECS(); ok {
			forwarded = append(forwarded, ecs.Prefix())
		}
		return ecsAnswerHandler("192.0.2.9", echoSourceScope).ServeDNS(ctx, w, r)
	})
	h := Chain(NewCache(&vclock.Fixed{}), pluginize(upstream))
	for _, c := range []struct {
		client string
		scope  uint8
	}{
		{"10.1.2.3/32", 24},
		{"10.1.2.77/32", 24}, // a hit on the /24 entry
		{"10.1.2.0/24", 24},  // and again
		{"2001:db8:1:2:3::1/128", 56},
		{"10.9.0.0/16", 16},
	} {
		p := netip.MustParsePrefix(c.client)
		resp := askWire(t, h, "clamp.test.", true, dnswire.NewECSOption(p), 1)
		echo, ok := resp.ECS()
		if !ok || echo.Prefix() != p || echo.ScopePrefix != c.scope || echo.Family != dnswire.NewECSOption(p).Family {
			t.Errorf("%s: echo %v, want the client's subnet with scope %d", c.client, echo, c.scope)
		}
	}
	want := []netip.Prefix{
		netip.MustParsePrefix("10.1.2.0/24"),
		netip.MustParsePrefix("2001:db8:1::/56"),
		netip.MustParsePrefix("10.9.0.0/16"),
	}
	if len(forwarded) != len(want) {
		t.Fatalf("forwarded %v, want %v", forwarded, want)
	}
	for i := range want {
		if forwarded[i] != want[i] {
			t.Errorf("forwarded %v, want %v", forwarded, want)
		}
	}
}

// TestSpanMatchesClientLatency is the acceptance test for the tracing
// subsystem: a query resolved through a real UDP server must produce a
// span whose duration is contained in — and close to — the
// client-observed latency, with its hop decomposition consistent.
func TestSpanMatchesClientLatency(t *testing.T) {
	// Upstream the forwarder escapes to.
	upZone := NewZone("up.test.")
	if err := upZone.AddA("www.up.test.", 60, netip.MustParseAddr("192.0.2.10")); err != nil {
		t.Fatal(err)
	}
	upstream := startTestServer(t, &Server{Handler: Chain(NewZonePlugin(upZone))}).LocalAddr()

	hub := telemetry.NewHub(nil)
	hub.SampleEvery = 1 // keep every query in the log

	cache := NewCache(vclock.NewReal())
	srv := &Server{
		Addr: "127.0.0.1:0",
		Handler: Chain(
			NewMetrics(),
			cache,
			&Forward{Upstreams: []netip.AddrPort{upstream}, Client: realClient()},
		),
		Telemetry: hub,
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	client := realClient()
	start := time.Now()
	resp, err := client.Query(context.Background(), srv.LocalAddr(), "www.up.test.", dnswire.TypeA)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %v", resp.Answers)
	}
	// Second query: cache hit.
	if _, err := client.Query(context.Background(), srv.LocalAddr(), "www.up.test.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}

	waitFor(t, time.Second, func() bool { return hub.Log.Len() >= 2 })
	recs := hub.Log.Drain()
	if len(recs) != 2 {
		t.Fatalf("query log has %d records, want 2", len(recs))
	}

	first, second := recs[0], recs[1]
	if first.Path != telemetry.PathUpstream {
		t.Errorf("first query path = %q, want upstream (hops %+v)", first.Path, first.Hops)
	}
	if second.Path != telemetry.PathCacheHit {
		t.Errorf("second query path = %q, want cache-hit (hops %+v)", second.Path, second.Hops)
	}

	// The span is opened after the packet is read and finished after
	// the response is written, so its duration must fit inside what
	// the client measured — and, minus scheduling noise and loopback
	// I/O, account for most of it.
	elapsedUS := elapsed.Microseconds()
	if first.DurUS <= 0 {
		t.Fatalf("span duration = %dus", first.DurUS)
	}
	if first.DurUS > elapsedUS+1000 {
		t.Errorf("span (%dus) exceeds client-observed latency (%dus)", first.DurUS, elapsedUS)
	}
	if gap := elapsedUS - first.DurUS; gap > 250_000 {
		t.Errorf("span (%dus) unaccountably far from client latency (%dus)", first.DurUS, elapsedUS)
	}

	// Hop consistency: the forwarded query crossed cache (miss),
	// forward, and upstream; every hop fits inside the span, and the
	// top-level hops sum to no more than the span.
	layers := map[string]bool{}
	for _, h := range first.Hops {
		layers[h.Layer] = true
		if h.StartUS+h.DurUS > first.DurUS+1000 {
			t.Errorf("hop %s [%d+%dus] extends past span end %dus", h.Layer, h.StartUS, h.DurUS, first.DurUS)
		}
	}
	for _, want := range []string{"cache", "forward", "upstream"} {
		if !layers[want] {
			t.Errorf("no %q hop recorded: %+v", want, first.Hops)
		}
	}
	if sum := topLevelHopSum(first.Hops); sum > first.DurUS+1000 {
		t.Errorf("top-level hops sum to %dus, more than the span %dus", sum, first.DurUS)
	}

	// The hub's client-facing histogram and path counters saw both.
	if hub.ServeDuration.Count() != 2 {
		t.Errorf("serve histogram count = %d", hub.ServeDuration.Count())
	}
	var b strings.Builder
	if err := hub.Registry.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{telemetry.PathUpstream, telemetry.PathCacheHit} {
		if want := `meccdn_dns_resolution_path_total{path="` + path + `"} 1`; !strings.Contains(b.String(), want) {
			t.Errorf("exposition lacks %s:\n%s", want, b.String())
		}
	}
}

// topLevelHopSum sums the durations of hops not contained in any other
// hop (1000us slack absorbs microsecond truncation in the records).
func topLevelHopSum(hops []telemetry.HopRecord) int64 {
	var sum int64
	for i, h := range hops {
		contained := false
		for j, p := range hops {
			if i == j {
				continue
			}
			if p.StartUS <= h.StartUS && p.StartUS+p.DurUS+1 >= h.StartUS+h.DurUS &&
				!(p.StartUS == h.StartUS && p.DurUS == h.DurUS && j > i) {
				contained = true
				break
			}
		}
		if !contained {
			sum += h.DurUS
		}
	}
	return sum
}

// TestTelemetryParallelResolves drives the full plugin chain (metrics,
// loadshed, cache with coalescing, stub, forward) from many goroutines
// with spans attached; run with -race. It pins the registry invariants
// afterwards: every query classified into exactly one path, and the
// exposition renders while counters are still moving.
func TestTelemetryParallelResolves(t *testing.T) {
	upZone := NewZone("up.test.")
	cdnZone := NewZone("cdn.test.")
	for i := 0; i < 8; i++ {
		if err := upZone.AddA(fmt.Sprintf("h%d.up.test.", i), 300, netip.MustParseAddr("192.0.2.10")); err != nil {
			t.Fatal(err)
		}
		if err := cdnZone.AddA(fmt.Sprintf("v%d.cdn.test.", i), 300, netip.MustParseAddr("192.0.2.20")); err != nil {
			t.Fatal(err)
		}
	}
	upstream := startTestServer(t, &Server{Handler: Chain(NewZonePlugin(upZone, cdnZone))}).LocalAddr()

	hub := telemetry.NewHub(nil)
	hub.SampleEvery = 3

	metrics := NewMetrics()
	shed := &LoadShed{} // MaxQueries 0: admission disabled, layer still crossed
	cache := NewCache(vclock.NewReal())
	stub := NewStub(realClient())
	stub.Route("cdn.test.", upstream)
	fwd := &Forward{Upstreams: []netip.AddrPort{upstream}, Client: realClient()}
	chain := Chain(metrics, shed, cache, stub, fwd)

	reg := telemetry.NewRegistry()
	if err := reg.Register(metrics.Collectors()...); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(cache.Collectors()...); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(fwd.Collectors()...); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(shed.Collectors()...); err != nil {
		t.Fatal(err)
	}

	const workers, iters = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var name string
				switch i % 3 {
				case 0:
					name = fmt.Sprintf("h%d.up.test.", i%8)
				case 1:
					name = fmt.Sprintf("v%d.cdn.test.", i%8)
				default:
					name = "unmatched.example." // forwarded, NXDOMAIN-ish REFUSED from upstream
				}
				q := new(dnswire.Message)
				q.SetQuestion(name, dnswire.TypeA)
				req := &Request{Msg: q, Client: netip.MustParseAddrPort("192.0.2.99:5353"), Transport: "udp"}
				sp := hub.BeginAddr(req.Name(), req.Type().String(), req.Transport, req.Client)
				ctx := telemetry.ContextWith(context.Background(), sp)
				resp := Resolve(ctx, chain, req)
				hub.Finish(sp, resp.Rcode.String())
				if i%16 == 0 {
					var b strings.Builder
					if err := reg.WritePrometheus(&b); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	total := uint64(workers * iters)
	if got := hub.Path.Sum(); got != total {
		t.Errorf("path counters saw %d queries, want %d", got, total)
	}
	if got := metrics.Total(); got != total {
		t.Errorf("metrics total = %d, want %d", got, total)
	}
	if got := hub.ServeDuration.Count(); got != total {
		t.Errorf("serve histogram count = %d, want %d", got, total)
	}
	added, _ := hub.Log.Stats()
	if added == 0 {
		t.Error("head sampling kept nothing")
	}
	cs := cache.Stats()
	if cs.Hits == 0 || cs.Misses == 0 {
		t.Errorf("cache saw hits=%d misses=%d; expected both under repetition", cs.Hits, cs.Misses)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"meccdn_dns_queries_total", "meccdn_dns_responses_total", "meccdn_dns_cache_hits_total",
		"meccdn_dns_forward_queries_total", "meccdn_dns_loadshed_served_total",
	} {
		if !strings.Contains(b.String(), family) {
			t.Errorf("exposition missing %s", family)
		}
	}
}

// TestServeQueryAllocs pins what a cache hit costs with telemetry on,
// served the way dnsd assembles it: a hub in front of Metrics → Cache.
// Opening, timing and finishing the span allocates nothing, and
// UnpackQuery parses an ECS query into the OPT and ECS option the
// scratch already holds, so an unsampled hit, OPT-less or ECS-bearing,
// makes no allocation at all, and neither does one sampled into the log
// once its ring has gone round: a ring slot keeps its hop records'
// array, and the client address is rendered when the log is read. Under
// the race detector sync.Pool drops a share of what it is handed on
// purpose, so there the counts are logged, not held to.
func TestServeQueryAllocs(t *testing.T) {
	const ring = 64
	hub := telemetry.NewHub(vclock.NewReal())
	hub.Log = telemetry.NewQueryLog(ring)
	hub.SampleEvery = math.MaxInt // only the hub's first query is sampled
	chain := Chain(NewMetrics(), NewCache(vclock.NewReal()), pluginize(ecsAnswerHandler("192.0.2.9", 24)))
	st := &serveScratch{intern: dnswire.NewNameIntern(0)}
	client := netip.MustParseAddrPort("198.51.100.7:4242")
	serve := func(pkt []byte) {
		buf, _ := serveQuery(context.Background(), chain, hub, st, pkt, client, "udp", maxUDPPayload)
		if buf == nil {
			t.Fatal("no reply")
		}
		dnswire.PutBuffer(buf)
	}
	pack := func(r *Request) []byte {
		wire, err := r.Msg.Pack()
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	unknown := queryFor("alloc.test.")
	unknown.Msg.Questions[0].Type = 4242 // a type dnswire does not name
	plain, ecs, other := pack(queryFor("alloc.test.")), pack(queryFor("alloc.test.", "10.1.2.0/24")), pack(unknown)
	serve(plain) // the misses that fill the cache
	serve(ecs)
	serve(other)

	for _, c := range []struct {
		name        string
		pkt         []byte
		sampleEvery int
		max         float64
	}{
		{"plain hit", plain, math.MaxInt, 0},
		{"ECS hit", ecs, math.MaxInt, 0},
		{"sampled plain hit", plain, 1, 0},
		// The span's qtype is Type.String(), which formats an
		// unnamed type; the cache key and the counters do not.
		{"unknown-type hit", other, math.MaxInt, 2},
	} {
		hub.SampleEvery = c.sampleEvery
		for i := 0; i < ring; i++ { // round the ring
			serve(c.pkt)
		}
		got := testing.AllocsPerRun(100, func() { serve(c.pkt) })
		switch {
		case racecheck.Enabled:
			t.Logf("%s: %v allocs per query under the race detector", c.name, got)
		case got > c.max:
			t.Errorf("%s: %v allocs per query, want <= %v", c.name, got, c.max)
		}
	}
	if added, _ := hub.Log.Stats(); added < 100 {
		t.Errorf("query log took %d records, want every sampled query", added)
	}
}

// TestMixedCaseHitAllocs: a 0x20-cased question (letters in mixed case,
// as resolvers send to defeat spoofing) is lowered once per query, in
// Request.Name, however many layers ask for the name: a repeated cache
// hit for AlLoC.TeSt. with telemetry on allocates that one copy, where
// alloc.test. allocates nothing.
func TestMixedCaseHitAllocs(t *testing.T) {
	hub := telemetry.NewHub(vclock.NewReal())
	hub.SampleEvery = math.MaxInt
	chain := Chain(NewMetrics(), NewCache(vclock.NewReal()), pluginize(ecsAnswerHandler("192.0.2.9", 24)))
	st := &serveScratch{intern: dnswire.NewNameIntern(0)}
	client := netip.MustParseAddrPort("198.51.100.7:4242")
	for _, c := range []struct {
		name string
		max  float64
	}{{"alloc.test.", 0}, {"AlLoC.TeSt.", 1}} {
		q := new(dnswire.Message)
		q.Questions = []dnswire.Question{{Name: c.name, Type: dnswire.TypeA, Class: dnswire.ClassINET}}
		pkt, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		serve := func() {
			buf, _ := serveQuery(context.Background(), chain, hub, st, pkt, client, "udp", maxUDPPayload)
			if buf == nil {
				t.Fatal("no reply")
			}
			dnswire.PutBuffer(buf)
		}
		serve() // the miss that fills the cache
		got := testing.AllocsPerRun(100, serve)
		switch {
		case racecheck.Enabled:
			t.Logf("%s: %v allocs per hit under the race detector", c.name, got)
		case got > c.max:
			t.Errorf("%s: %v allocs per hit, want <= %v", c.name, got, c.max)
		}
	}
}

// TestHedgeStragglerCannotReachNextQuery: the losing exchange of a
// hedged pair outlives its query, and once the query has finished its
// span serves the next one. The straggler's upstream hop must not land
// there, while the finished query's record keeps the winning hop that
// classifies it as upstream. Run with -race: the straggler must not
// touch the recycled span or the context inside it either.
func TestHedgeStragglerCannotReachNextQuery(t *testing.T) {
	hub := telemetry.NewHub(vclock.NewReal())
	hub.SampleEvery = 1
	client := netip.MustParseAddrPort("198.51.100.7:4242")
	pack := func(name string) []byte {
		wire, err := queryFor(name).Msg.Pack()
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	st := &serveScratch{intern: dnswire.NewNameIntern(0)}
	serve := func(h Handler, name string) {
		buf, _ := serveQuery(context.Background(), h, hub, st, pack(name), client, "udp", maxUDPPayload)
		if buf == nil {
			t.Fatalf("%s: no reply", name)
		}
		dnswire.PutBuffer(buf)
	}

	// The pool does not promise the next query the same span (and under
	// -race drops some on purpose), so repeat until it was reused.
	reused := false
	for round := 0; round < 20 && !reused; round++ {
		tr := newScriptTransport()
		tr.answer[upA] = netip.MustParseAddr("203.0.113.1")
		tr.answer[upB] = netip.MustParseAddr("203.0.113.2")
		release := make(chan struct{})
		tr.hold[upA] = release
		fwd := Chain(&Forward{
			Upstreams:  []netip.AddrPort{upA, upB},
			Client:     scriptClient(tr),
			Clock:      &vclock.Fixed{},
			HedgeDelay: time.Millisecond,
		})
		before := runtime.NumGoroutine()

		var first *telemetry.Span
		serve(HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
			first = telemetry.FromContext(ctx)
			return fwd.ServeDNS(ctx, w, r)
		}), "hedged.test.")
		// The primary is still held; it answers while the next query,
		// likely on the same span, is in flight.
		serve(HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
			reused = telemetry.FromContext(ctx) == first
			close(release)
			waitFor(t, 2*time.Second, func() bool { return runtime.NumGoroutine() <= before })
			return answerHandler("192.0.2.1").ServeDNS(ctx, w, r)
		}), "next.test.")

		recs := hub.Log.Drain()
		if len(recs) != 2 {
			t.Fatalf("round %d: %d records, want 2", round, len(recs))
		}
		hedged, next := recs[0], recs[1]
		want := []telemetry.HopRecord{
			{Layer: "upstream", Note: upB.String()},
			{Layer: "forward", Note: "hedge:" + upB.String()},
		}
		if hedged.Path != telemetry.PathUpstream || len(hedged.Hops) != len(want) {
			t.Fatalf("round %d: hedged query path %q, hops %+v; want upstream with %+v", round, hedged.Path, hedged.Hops, want)
		}
		for i, h := range hedged.Hops {
			if h.Layer != want[i].Layer || h.Note != want[i].Note {
				t.Errorf("round %d: hedged query hop %d = %+v, want %+v", round, i, h, want[i])
			}
		}
		if next.Path != telemetry.PathEdge || len(next.Hops) != 0 {
			t.Fatalf("round %d (span reused: %v): next query path %q, hops %+v; want edge and none",
				round, reused, next.Path, next.Hops)
		}
	}
	if !reused {
		t.Error("no round reused the finished query's span")
	}
}

// TestHubLatencyHistogram: the hub's serve-duration histogram tracks
// the chain's virtual-time cost when serveQuery runs under a hub on
// that clock, as Attach serves a simnet node.
func TestHubLatencyHistogram(t *testing.T) {
	clock := &vclock.Fixed{}
	hub := telemetry.NewHub(clock)
	backend := HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		clock.Time += 5 * time.Millisecond // simulated resolution work
		return answerHandler("192.0.2.1").ServeDNS(ctx, w, r)
	})
	h := Chain(NewMetrics(), pluginize(backend))
	query, err := queryFor("lat.test.").Msg.Pack()
	if err != nil {
		t.Fatal(err)
	}
	st := new(serveScratch)
	for i := 0; i < 20; i++ {
		buf, _ := serveQuery(context.Background(), h, hub, st, query, netip.AddrPort{}, "sim", dnswire.MaxMessageSize)
		if buf == nil {
			t.Fatal("no reply")
		}
		dnswire.PutBuffer(buf)
	}
	d := hub.ServeDuration
	if d.Count() != 20 || d.Sum() != 100*time.Millisecond {
		t.Fatalf("histogram count/sum = %d/%v, want 20/100ms", d.Count(), d.Sum())
	}
	// Every observation is exactly on the 5ms bound, so both quantiles
	// read that bucket.
	if p50, p99 := d.Quantile(0.50), d.Quantile(0.99); p50 != 5*time.Millisecond || p99 != 5*time.Millisecond {
		t.Errorf("p50/p99 = %v/%v, want 5ms/5ms", p50, p99)
	}
}
