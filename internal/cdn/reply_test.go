package cdn

import (
	"bytes"
	"context"
	"encoding/binary"
	"net/netip"
	"testing"

	"github.com/meccdn/meccdn/internal/dnsserver"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/geoip"
	"github.com/meccdn/meccdn/internal/lpm"
	"github.com/meccdn/meccdn/internal/racecheck"
	"github.com/meccdn/meccdn/internal/simnet"
)

// poolOutstanding is dnswire.PoolOutstanding under -tags pooldebug
// (pooldebug_test.go) and always 0 otherwise.
var poolOutstanding = func() int { return 0 }

// oracleReply is the reply Router.reply writes, built as a Message: the
// A record, the OPT a query carrying one gets back, and the scoped ECS
// echo. The bytes path is held to this Message's Pack.
func oracleReply(r *dnsserver.Request, rcode dnswire.Rcode, addr netip.Addr, scope int, ttl uint32) *dnswire.Message {
	if ttl == 0 {
		ttl = 30
	}
	m := new(dnswire.Message)
	m.SetReply(r.Msg)
	m.Rcode = rcode
	m.Authoritative = rcode == dnswire.RcodeSuccess
	if addr.IsValid() {
		m.Answers = []dnswire.RR{&dnswire.A{
			Hdr:  dnswire.RRHeader{Name: r.Name(), Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: ttl},
			Addr: addr,
		}}
	}
	if _, ok := r.Msg.OPT(); ok {
		opt := m.SetEDNS(dnswire.DefaultEDNSSize)
		if ecs, ok := r.Msg.ECS(); ok && addr.IsValid() {
			scoped := *ecs
			scoped.ScopePrefix = ecs.SourcePrefix
			if scope >= 0 {
				scoped.ScopePrefix = uint8(scope)
			}
			opt.Options = append(opt.Options, &scoped)
		}
	}
	return m
}

// oracleReferral is the delegation writeReferralTo writes, built as a
// Message: the NS in authority, its glue A record in additional, and the
// OPT a query carrying one gets back.
func oracleReferral(r *dnsserver.Request, domain string, next netip.Addr) *dnswire.Message {
	nsName := ReferralNS + "." + domain
	m := new(dnswire.Message)
	m.SetReply(r.Msg)
	m.Authorities = []dnswire.RR{&dnswire.NS{
		Hdr: dnswire.RRHeader{Name: domain, Type: dnswire.TypeNS, Class: dnswire.ClassINET, TTL: 30},
		NS:  nsName,
	}}
	m.Additionals = []dnswire.RR{&dnswire.A{
		Hdr:  dnswire.RRHeader{Name: nsName, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 30},
		Addr: next,
	}}
	if _, ok := r.Msg.OPT(); ok {
		m.SetEDNS(dnswire.DefaultEDNSSize)
	}
	return m
}

// imageWriter is the ingresses' kind of writer: it takes the reply's
// pooled buffer, which the test hands back with release.
type imageWriter struct {
	buf []byte
	n   int
}

func (w *imageWriter) WriteMsg(*dnswire.Message) error {
	panic("imageWriter: reply not written as bytes")
}
func (w *imageWriter) Written() bool { return w.buf != nil }
func (w *imageWriter) WriteWireOwned(buf []byte, n int) error {
	w.buf, w.n = buf, n
	return nil
}
func (w *imageWriter) release() {
	dnswire.PutBuffer(w.buf)
	*w = imageWriter{}
}

// fuzzQuery packs a query for <label>.cdn.test. of type qtype with the
// given header bits and, by edns: 0 no OPT, 1 an OPT alone, 2 and 3 an
// OPT with an ECS option of family 1 or 2 disclosing source bits of addr.
func fuzzQuery(label []byte, qtype uint16, opcode uint8, id uint16, rd, cd bool, edns, source uint8, addr []byte) []byte {
	if len(label) == 0 {
		label = []byte{'x'}
	}
	label = label[:min(len(label), 63)]
	flags := uint16(opcode&0xF) << 11
	if rd {
		flags |= 1 << 8
	}
	if cd {
		flags |= 1 << 4
	}
	b := binary.BigEndian.AppendUint16(nil, id)
	b = binary.BigEndian.AppendUint16(b, flags)
	b = append(b, 0, 1, 0, 0, 0, 0, 0, min(edns, 1))
	b = append(append(append(b, byte(len(label))), label...), "\x03cdn\x04test\x00"...)
	b = binary.BigEndian.AppendUint16(b, qtype)
	b = append(b, 0, 1)
	if edns == 0 {
		return b
	}
	b = append(b, 0, 0, 41, 1232>>8, 1232&0xFF, 0, 0, 0, 0)
	if edns == 1 {
		return append(b, 0, 0)
	}
	family, bits := uint16(1), 32
	if edns == 3 {
		family, bits = 2, 128
	}
	source %= uint8(bits + 1)
	var a [16]byte
	copy(a[:], addr)
	n := (int(source) + 7) / 8
	b = binary.BigEndian.AppendUint16(b, uint16(8+n))
	b = append(b, 0, 8)
	b = binary.BigEndian.AppendUint16(b, uint16(4+n))
	b = binary.BigEndian.AppendUint16(b, family)
	return append(append(b, source, 0), a[:n]...)
}

// FuzzRouterReply holds the router's bytes path to its oracles: for an
// arbitrary query — any label octets (case, dots, backslashes,
// unprintables), type, opcode, ID, RD/CD — parsed into a scratch message
// another query used before, any TTL, each outcome (A, NODATA, SERVFAIL,
// a referral to any address) and ECS none, OPT-only, v4 or v6 at any
// source and scope, the reply the router writes is the oracle's Pack
// byte for byte, and it leaves no pooled buffer behind (checked under
// -tags pooldebug).
func FuzzRouterReply(f *testing.F) {
	f.Add([]byte("obj-1-42"), uint16(1), uint8(0), uint16(0x1234), true, false, uint32(300), uint8(0), uint8(2), uint8(24), int16(24), []byte{10, 3, 7, 0}, []byte{203, 0, 113, 7})
	f.Add([]byte("Obj.\\x\x00\xff"), uint16(1), uint8(0), uint16(1), false, true, uint32(0), uint8(0), uint8(3), uint8(56), int16(-1), []byte{0x20, 1, 0xd, 0xb8, 1, 2, 3, 4}, []byte{192, 0, 2, 1})
	f.Add([]byte("v6"), uint16(28), uint8(0), uint16(7), true, false, uint32(30), uint8(1), uint8(1), uint8(0), int16(0), []byte{}, []byte{})
	f.Add([]byte("down"), uint16(1), uint8(2), uint16(9), true, true, uint32(60), uint8(2), uint8(0), uint8(0), int16(0), []byte{}, []byte{})
	f.Add([]byte("Peer"), uint16(1), uint8(0), uint16(11), true, false, uint32(30), uint8(3), uint8(2), uint8(24), int16(24), []byte{10, 9, 8}, []byte{198, 51, 100, 2})
	f.Fuzz(func(t *testing.T, label []byte, qtype uint16, opcode uint8, id uint16, rd, cd bool, ttl uint32, outcome, edns, source uint8, scope int16, ecsAddr, answer []byte) {
		var msg dnswire.Message
		intern := dnswire.NewNameIntern(0)
		// The scratch first holds another query's OPT and ECS option.
		before := fuzzQuery([]byte("before"), 1, 0, 1, true, false, 3, 64, []byte{0x20, 1, 0xd, 0xb8, 9, 9, 9, 9})
		if err := msg.UnpackQuery(before, intern); err != nil {
			t.Fatal(err)
		}
		if err := msg.UnpackQuery(fuzzQuery(label, qtype, opcode, id, rd, cd, edns%4, source, ecsAddr), intern); err != nil {
			t.Fatal(err)
		}
		r := &dnsserver.Request{Msg: &msg, Transport: "udp"}
		rcode, addr := dnswire.RcodeSuccess, netip.Addr{}
		var a4 [4]byte
		copy(a4[:], answer)
		sc := max(int(scope), -1) % 129
		rt := &Router{TTL: ttl, Domain: "cdn.test."}
		var oracle *dnswire.Message
		var write func(w *imageWriter) (dnswire.Rcode, error)
		switch outcome % 4 {
		case 0:
			addr = netip.AddrFrom4(a4)
		case 2:
			rcode = dnswire.RcodeServerFailure
		case 3:
			oracle = oracleReferral(r, rt.Domain, netip.AddrFrom4(a4))
			write = func(w *imageWriter) (dnswire.Rcode, error) { return rt.writeReferralTo(w, r, netip.AddrFrom4(a4)) }
		}
		if oracle == nil {
			oracle = oracleReply(r, rcode, addr, sc, ttl)
			write = func(w *imageWriter) (dnswire.Rcode, error) { return rt.reply(w, r, rcode, addr, sc) }
		}
		want, err := oracle.Pack()
		if err != nil {
			t.Fatal(err)
		}

		base := poolOutstanding()
		var w imageWriter
		got, err := write(&w)
		if err != nil || got != rcode {
			t.Fatalf("reply: %v, %v", got, err)
		}
		if !bytes.Equal(w.buf[:w.n], want) {
			t.Fatalf("bytes path\n% x\noracle\n% x", w.buf[:w.n], want)
		}
		w.release()
		if out := poolOutstanding(); out != base {
			t.Fatalf("%d pooled buffers outstanding, want %d", out, base)
		}
	})
}

// TestRouterRepliesCarryOPT: RFC 6891 §7 — a reply to a query that
// carried an OPT carries one — for every kind of reply the router makes:
// an A answer to an OPT-only query, NODATA, SERVFAIL and a referral. An
// OPT-less query still gets none, and only an A answer echoes ECS.
func TestRouterRepliesCarryOPT(t *testing.T) {
	fx := buildRouterFixture(t, 70)
	empty := NewRouter("mycdn.ciab.test.") // no servers, no parent: SERVFAIL
	referring := NewRouter("mycdn.ciab.test.")
	referring.Parent = netip.MustParseAddr("203.0.113.200")
	ask := func(rt *Router, qtype dnswire.Type, edns, ecs bool) *dnswire.Message {
		q := new(dnswire.Message)
		q.SetQuestion("video.opt.mycdn.ciab.test.", qtype)
		if edns {
			opt := q.SetEDNS(1232)
			if ecs {
				opt.Options = append(opt.Options, dnswire.NewECSOption(netip.MustParsePrefix("198.51.100.0/24")))
			}
		}
		return dnsserver.Resolve(context.Background(), dnsserver.Chain(rt), &dnsserver.Request{Msg: q})
	}
	for _, c := range []struct {
		name       string
		rt         *Router
		qtype      dnswire.Type
		edns, ecs  bool
		rcode      dnswire.Rcode
		answers    int
		opt, scope bool
	}{
		{"A, OPT-less", fx.router, dnswire.TypeA, false, false, dnswire.RcodeSuccess, 1, false, false},
		{"A, OPT-only", fx.router, dnswire.TypeA, true, false, dnswire.RcodeSuccess, 1, true, false},
		{"A, ECS", fx.router, dnswire.TypeA, true, true, dnswire.RcodeSuccess, 1, true, true},
		{"NODATA", fx.router, dnswire.TypeAAAA, true, true, dnswire.RcodeSuccess, 0, true, false},
		{"SERVFAIL", empty, dnswire.TypeA, true, true, dnswire.RcodeServerFailure, 0, true, false},
		{"referral", referring, dnswire.TypeA, true, false, dnswire.RcodeSuccess, 0, true, false},
	} {
		resp := ask(c.rt, c.qtype, c.edns, c.ecs)
		if resp.Rcode != c.rcode || len(resp.Answers) != c.answers {
			t.Errorf("%s: rcode %v, %d answers; want %v, %d", c.name, resp.Rcode, len(resp.Answers), c.rcode, c.answers)
		}
		opt, hasOPT := resp.OPT()
		if hasOPT != c.opt || hasOPT && opt.UDPSize() != dnswire.DefaultEDNSSize {
			t.Errorf("%s: OPT %v, want one: %v", c.name, opt, c.opt)
		}
		if _, hasECS := resp.ECS(); hasECS != c.scope {
			t.Errorf("%s: ECS echoed %v, want %v", c.name, hasECS, c.scope)
		}
		if _, ok := Referral(resp); ok != (c.rt == referring) {
			t.Errorf("%s: referral %v", c.name, ok)
		}
	}
}

// TestRouterAnswerAllocs: the router answers a table-routed query — ECS
// or not, under a short CDN domain or an operator's long one — a
// ring-routed one and a NODATA into an OwnedWireWriter without
// allocating. Under the race detector sync.Pool drops buffers on
// purpose, so there the counts are logged.
func TestRouterAnswerAllocs(t *testing.T) {
	rt := NewRouter("cdn.test.")
	rt.SetRoutes(routeTable(t, map[string]lpm.PoP{"10.0.0.0/8": 1, "198.51.100.0/24": 1}))
	rt.MapPoP(1, netip.MustParseAddr("203.0.113.1"))
	const longDomain = "cdn.operator.mec.mnc001.mcc001.3gppnetwork.org."
	long := NewRouter(longDomain)
	long.SetRoutes(routeTable(t, map[string]lpm.PoP{"10.0.0.0/8": 1}))
	long.MapPoP(1, netip.MustParseAddr("203.0.113.1"))
	lq := new(dnswire.Message)
	lq.SetQuestion("obj."+longDomain, dnswire.TypeA)
	lq.SetEDNS(1232).Options = []dnswire.EDNSOption{dnswire.NewECSOption(netip.MustParsePrefix("10.1.2.0/24"))}
	longQuery, err := lq.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// A subnet no route covers is routed over the ring of these two.
	n := simnet.New(1)
	for _, name := range []string{"cache-0", "cache-1"} {
		n.AddNode(name)
		rt.AddServer(NewCacheServer(n.Node(name), CacheServerConfig{
			Name: name, Site: "mec-1", Tier: TierEdge, CapacityBytes: 1 << 20,
			Domains: []string{"cdn.test."},
		}), geoip.Location{Name: name})
	}
	chain, longChain := dnsserver.Chain(rt), dnsserver.Chain(long)
	var msg dnswire.Message // the scratch an ingress parses into
	var req dnsserver.Request
	intern := dnswire.NewNameIntern(0)
	client := netip.MustParseAddrPort("198.51.100.7:4242")
	for _, c := range []struct {
		name    string
		chain   dnsserver.Handler
		pkt     []byte
		answers int
	}{
		{"A, ECS", chain, fuzzQuery([]byte("obj"), 1, 0, 1, true, false, 2, 24, []byte{10, 1, 2}), 1},
		{"A, OPT-less", chain, fuzzQuery([]byte("obj"), 1, 0, 1, true, false, 0, 0, nil), 1},
		{"A, ring-routed", chain, fuzzQuery([]byte("obj"), 1, 0, 1, true, false, 2, 24, []byte{192, 0, 2}), 1},
		{"NODATA", chain, fuzzQuery([]byte("obj"), 28, 0, 1, true, false, 1, 0, nil), 0},
		{"A, ECS, long domain", longChain, longQuery, 1},
	} {
		var w imageWriter
		serve := func() {
			if err := msg.UnpackQuery(c.pkt, intern); err != nil {
				t.Fatal(err)
			}
			req = dnsserver.Request{Msg: &msg, Client: client, Transport: "udp"}
			if rcode := dnsserver.ResolveTo(context.Background(), c.chain, &w, &req); rcode != dnswire.RcodeSuccess {
				t.Fatalf("%s: rcode %v", c.name, rcode)
			}
			if an := int(binary.BigEndian.Uint16(w.buf[6:])); an != c.answers {
				t.Fatalf("%s: %d answers, want %d", c.name, an, c.answers)
			}
			w.release()
		}
		serve()
		got := testing.AllocsPerRun(200, serve)
		switch {
		case racecheck.Enabled:
			t.Logf("%s: %v allocs per query under the race detector", c.name, got)
		case got != 0:
			t.Errorf("%s: %v allocs per query, want 0", c.name, got)
		}
	}
}
