package dnsserver

// The zone's reply is written with dnswire.AppendReply from records its
// view shares. These tests hold it to the Message the zone used to
// build from cloned records and pack (the oracle below), byte for byte
// at every transport limit, and pin what it allocates.

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"net/netip"
	"strings"
	"testing"

	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/racecheck"
	"github.com/meccdn/meccdn/internal/telemetry"
	"github.com/meccdn/meccdn/internal/vclock"
)

// oracleLookup is ZoneView.Lookup as it was when every answer was a
// clone: a seen map against CNAME loops, wildcard records cloned and
// renamed to the query name, the SOA cloned for negative answers.
func oracleLookup(v *ZoneView, qname string, qtype dnswire.Type) (LookupResult, []dnswire.RR, []dnswire.RR) {
	clone := func(rrs []dnswire.RR, owner string) []dnswire.RR {
		out := make([]dnswire.RR, len(rrs))
		for i, rr := range rrs {
			out[i] = rr.Clone()
			if owner != "" && strings.HasPrefix(rr.Header().Name, "*.") {
				out[i].Header().Name = owner
			}
		}
		return out
	}
	negative := func() []dnswire.RR { return []dnswire.RR{v.soa.Clone()} }
	qname = dnswire.CanonicalName(qname)
	var answers []dnswire.RR
	seen := map[string]bool{}
	for !seen[qname] {
		seen[qname] = true
		if deleg := oracleDelegation(v, qname); deleg != "" {
			nsSet := clone(v.rrs[deleg][dnswire.TypeNS], "")
			var glue []dnswire.RR
			for _, ns := range nsSet {
				if byType, ok := v.rrs[dnswire.CanonicalName(ns.(*dnswire.NS).NS)]; ok {
					glue = append(glue, clone(byType[dnswire.TypeA], "")...)
					glue = append(glue, clone(byType[dnswire.TypeAAAA], "")...)
				}
			}
			return LookupDelegation, answers, append(nsSet, glue...)
		}
		byType, ok := v.rrs[qname]
		if !ok {
			if byType = oracleWildcard(v, qname); byType == nil {
				if len(answers) > 0 {
					return LookupSuccess, answers, nil
				}
				return LookupNXDomain, nil, negative()
			}
		}
		if rrs, ok := byType[qtype]; ok && len(rrs) > 0 {
			return LookupSuccess, append(answers, clone(rrs, qname)...), nil
		}
		if cn, ok := byType[dnswire.TypeCNAME]; ok && len(cn) > 0 && qtype != dnswire.TypeCNAME {
			rec := clone(cn[:1], qname)[0].(*dnswire.CNAME)
			answers = append(answers, rec)
			target := dnswire.CanonicalName(rec.Target)
			if !dnswire.IsSubdomain(v.Origin, target) {
				return LookupSuccess, answers, nil
			}
			qname = target
			continue
		}
		if len(answers) > 0 {
			return LookupSuccess, answers, nil
		}
		return LookupNoData, nil, negative()
	}
	return LookupSuccess, answers, nil
}

func oracleDelegation(v *ZoneView, qname string) string {
	for name := qname; name != "." && dnswire.IsSubdomain(v.Origin, name); name = dnswire.Parent(name) {
		if name == v.Origin {
			break
		}
		if _, hasNS := v.rrs[name][dnswire.TypeNS]; hasNS {
			return name
		}
	}
	return ""
}

func oracleWildcard(v *ZoneView, qname string) map[dnswire.Type][]dnswire.RR {
	for name := dnswire.Parent(qname); dnswire.IsSubdomain(v.Origin, name); name = dnswire.Parent(name) {
		if byType, ok := v.rrs["*."+strings.TrimPrefix(name, ".")]; ok {
			return byType
		}
		if name == v.Origin || name == "." {
			break
		}
	}
	return nil
}

// oracleZoneReply is the Message ZonePlugin.ServeDNS built and packed
// before it wrote its replies as bytes.
func oracleZoneReply(z *Zone, r *Request) *dnswire.Message {
	result, answers, authority := oracleLookup(z.View(), r.Name(), r.Type())
	m := new(dnswire.Message)
	m.SetReply(r.Msg)
	m.Authoritative = true
	switch result {
	case LookupSuccess:
		m.Answers = answers
	case LookupNoData:
		m.Authorities = authority
	case LookupNXDomain:
		m.Rcode = dnswire.RcodeNameError
		m.Authorities = authority
	case LookupDelegation:
		m.Authoritative = false
		m.Answers = answers
		for _, rr := range authority {
			if rr.Header().Type == dnswire.TypeNS {
				m.Authorities = append(m.Authorities, rr)
			} else {
				m.Additionals = append(m.Additionals, rr)
			}
		}
	}
	if _, ok := r.Msg.OPT(); ok {
		opt := m.SetEDNS(dnswire.DefaultEDNSSize)
		if ecs, ok := r.Msg.ECS(); ok {
			echo := ecs.Echo(0)
			opt.Options = append(opt.Options, &echo)
		}
	}
	return m
}

// fuzzZoneNames are the owners, CNAME targets and NS targets a fuzzed
// zone is built from, relative to its origin ("@" is the origin itself):
// a wildcard at the apex and one below it, a delegation point d with a
// server inside it and one outside the zone.
var fuzzZoneNames = []string{"@", "a", "b", "c.a", "*", "*.w", "d", "ns.d", "x.d", "e", "deep.b", "ns.elsewhere.example."}

const fuzzOrigin = "z.test."

func fuzzZoneName(i byte) string {
	switch n := fuzzZoneNames[int(i)%len(fuzzZoneNames)]; {
	case n == "@":
		return fuzzOrigin
	case strings.HasSuffix(n, "."):
		return n
	default:
		return n + "." + fuzzOrigin
	}
}

// fuzzZone builds a zone from spec, three bytes a record: its owner, its
// type — A, AAAA, an in-zone or an out-of-zone CNAME, NS, MX, TXT or
// SOA — and a byte of its data. Records the zone refuses are skipped.
func fuzzZone(spec []byte) *Zone {
	z := NewZone(fuzzOrigin)
	_ = z.Update(func(b *ZoneBuilder) error {
		for i := 0; i+3 <= len(spec) && i < 3*64; i += 3 {
			owner, arg := fuzzZoneName(spec[i]), spec[i+2]
			hdr := dnswire.RRHeader{Name: owner, Class: dnswire.ClassINET, TTL: uint32(arg) * 7}
			var rr dnswire.RR
			switch spec[i+1] % 8 {
			case 0:
				hdr.Type = dnswire.TypeA
				rr = &dnswire.A{Hdr: hdr, Addr: netip.AddrFrom4([4]byte{10, 0, arg, spec[i]})}
			case 1:
				hdr.Type = dnswire.TypeAAAA
				rr = &dnswire.AAAA{Hdr: hdr, Addr: netip.AddrFrom16([16]byte{0x20, 1, 0xd, 0xb8, 15: arg})}
			case 2:
				hdr.Type = dnswire.TypeCNAME
				rr = &dnswire.CNAME{Hdr: hdr, Target: fuzzZoneName(arg)}
			case 3:
				hdr.Type = dnswire.TypeCNAME
				rr = &dnswire.CNAME{Hdr: hdr, Target: "t" + string(rune('a'+arg%26)) + ".elsewhere.example."}
			case 4:
				hdr.Type = dnswire.TypeNS
				rr = &dnswire.NS{Hdr: hdr, NS: fuzzZoneName(arg)}
			case 5:
				hdr.Type = dnswire.TypeMX
				rr = &dnswire.MX{Hdr: hdr, Preference: uint16(arg), MX: fuzzZoneName(arg)}
			case 6:
				hdr.Type = dnswire.TypeTXT
				rr = &dnswire.TXT{Hdr: hdr, Txt: []string{strings.Repeat("t", int(arg)), "x"}}
			case 7:
				hdr.Type, hdr.Name = dnswire.TypeSOA, fuzzOrigin
				rr = &dnswire.SOA{Hdr: hdr, NS: fuzzZoneName(arg), Mbox: "hostmaster." + fuzzOrigin, Serial: uint32(arg), MinTTL: 30}
			}
			_ = b.Add(rr)
		}
		return nil
	})
	return z
}

// zoneQuery packs a query for label (left out when empty) under the
// fuzzZoneNames entry name, its letters' case flipped by the bits of
// flip, of type qtype with the given header bits and, by edns: 0 no OPT,
// 1 an OPT alone, 2 and 3 an OPT with an ECS option of family 1 or 2
// disclosing source bits of addr.
func zoneQuery(label []byte, name byte, flip uint64, qtype uint16, opcode uint8, id uint16, rd, cd bool, edns, source uint8, addr []byte) []byte {
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
	qname := len(b)
	if label = label[:min(len(label), 63)]; len(label) > 0 {
		b = append(append(b, byte(len(label))), label...)
	}
	// Every name but the last, the one outside the zone.
	for _, l := range strings.Split(strings.TrimSuffix(fuzzZoneName(name%byte(len(fuzzZoneNames)-1)), "."), ".") {
		b = append(append(b, byte(len(l))), l...)
	}
	b = append(b, 0)
	for i := qname; i < len(b) && i-qname < 64; i++ {
		if c := b[i] | 0x20; flip>>(i-qname)&1 == 1 && c >= 'a' && c <= 'z' {
			b[i] ^= 0x20
		}
	}
	b = binary.BigEndian.AppendUint16(b, qtype)
	b = append(b, 0, 1)
	if edns == 0 {
		return b
	}
	b = append(b, 0, 0, 41, 1232>>8, 1232&0xFF, 0, 0, 0, 0)
	if edns == 1 {
		return append(b, 0, 0)
	}
	family, source, octets := zoneQueryECS(edns, source, addr)
	b = binary.BigEndian.AppendUint16(b, uint16(8+len(octets)))
	b = append(b, 0, 8)
	b = binary.BigEndian.AppendUint16(b, uint16(4+len(octets)))
	b = binary.BigEndian.AppendUint16(b, family)
	return append(append(b, source, 0), octets...)
}

// zoneQueryECS is the ECS option zoneQuery sends for edns 2 (IPv4) or 3
// (IPv6): the family, source cut to the family's length, and the
// address octets that source needs, taken from addr as they are. So an
// octet may set bits past the source prefix, and accept must refuse
// the query with FORMERR (RFC 7871 §6); strayBits reports it.
func zoneQueryECS(edns, source uint8, addr []byte) (family uint16, src uint8, octets []byte) {
	family, bits := uint16(1), 32
	if edns == 3 {
		family, bits = 2, 128
	}
	src = source % uint8(bits+1)
	var a [16]byte
	copy(a[:], addr)
	return family, src, a[:(int(src)+7)/8]
}

// strayBits reports whether the address octets set a bit past source.
func strayBits(source uint8, octets []byte) bool {
	rem := source % 8
	return rem != 0 && octets[len(octets)-1]<<rem != 0
}

// FuzzZoneReply holds the zone's bytes-written reply to its oracle: for
// an arbitrary small zone (A, AAAA, in- and out-of-zone CNAME chains and
// loops, wildcards, delegations with and without glue, MX, TXT, SOA) and
// an arbitrary query — label octets and case, type, opcode, ID, RD/CD,
// no EDNS, OPT only, ECS v4 or v6 — parsed into a scratch message an
// earlier query used, the reply serveQuery hands back at 512 bytes, at
// the advertised limit and at MaxMessageSize is what the oracle's
// Message gives through the same writer: its Pack, truncated with TC
// when it does not fit; for an opcode other than QUERY it is accept's
// NOTIMP, and for an ECS address with bits set past its source prefix
// accept's FORMERR. No pooled buffer is left behind (checked under -tags
// pooldebug).
func FuzzZoneReply(f *testing.F) {
	seed := []byte{
		1, 0, 1, 1, 0, 2, 2, 2, 1, 4, 0, 9, // a: two A; b → a
		4, 0, 3, 5, 0, 4, 3, 1, 4, // *, *.w; c.a AAAA
		6, 4, 7, 7, 0, 8, 7, 1, 9, // d NS ns.d, glue A and AAAA
		8, 4, 11, 9, 3, 1, 10, 2, 10, // x.d NS outside; e → outside; deep.b loops
		0, 5, 1, 0, 6, 200, 0, 6, 250, 0, 7, 42, // MX, two big TXT, SOA
	}
	f.Add(seed, []byte{}, uint8(1), uint64(0), uint16(1), uint8(0), uint16(0x1234), true, false, uint8(0), uint8(0), []byte{})
	f.Add(seed, []byte("Any"), uint8(4), uint64(0x5555), uint16(1), uint8(0), uint16(7), false, true, uint8(2), uint8(24), []byte{10, 1, 2})
	f.Add(seed, []byte{}, uint8(2), uint64(0), uint16(1), uint8(0), uint16(9), true, false, uint8(3), uint8(56), []byte{0x20, 1, 0xd, 0xb8, 1})
	f.Add(seed, []byte("q"), uint8(6), uint64(0), uint16(1), uint8(0), uint16(3), true, false, uint8(1), uint8(0), []byte{})
	f.Add(seed, []byte{}, uint8(0), uint64(0), uint16(16), uint8(0), uint16(5), true, false, uint8(0), uint8(0), []byte{})
	f.Add(seed, []byte{}, uint8(10), uint64(1), uint16(1), uint8(2), uint16(8), true, true, uint8(1), uint8(0), []byte{})
	f.Add(seed, []byte("nope"), uint8(0), uint64(0), uint16(28), uint8(0), uint16(2), false, false, uint8(2), uint8(32), []byte{192, 0, 2, 1})
	f.Fuzz(func(t *testing.T, spec, label []byte, name uint8, flip uint64, qtype uint16, opcode uint8, id uint16, rd, cd bool, edns, source uint8, ecsAddr []byte) {
		z := fuzzZone(spec)
		chain := Chain(NewZonePlugin(z))
		client := netip.MustParseAddrPort("198.51.100.9:5300")
		st := &serveScratch{intern: dnswire.NewNameIntern(0)}
		// The scratch first holds another query's OPT and ECS option.
		before := zoneQuery([]byte("before"), 1, 0, 1, 0, 1, true, false, 3, 64, []byte{0x20, 1, 0xd, 0xb8, 9, 9, 9, 9})
		base := poolOutstanding()
		if buf, _ := serveQuery(context.Background(), chain, nil, st, before, client, "fuzz", dnswire.MaxMessageSize); buf != nil {
			dnswire.PutBuffer(buf)
		}
		pkt := zoneQuery(label, name, flip, qtype, opcode, id, rd, cd, edns%4, source, ecsAddr)
		for _, limit := range []int{dnswire.MaxUDPSize, maxUDPPayload, dnswire.MaxMessageSize} {
			buf, n := serveQuery(context.Background(), chain, nil, st, pkt, client, "fuzz", limit)
			if buf == nil {
				t.Fatalf("limit %d: no reply", limit)
			}
			got := append([]byte(nil), buf[:n]...)
			dnswire.PutBuffer(buf)

			msg := oracleZoneReply(z, &st.req)
			if st.req.Msg.Opcode != dnswire.OpcodeQuery {
				msg = oracleRefusal(&st.req, dnswire.RcodeNotImplemented)
			} else if _, src, octets := zoneQueryECS(edns%4, source, ecsAddr); edns%4 >= 2 && strayBits(src, octets) {
				msg = oracleRefusal(&st.req, dnswire.RcodeFormatError)
			}
			oracle := replyImage{limit: st.reply.limit}
			if err := oracle.WriteMsg(msg); err != nil {
				t.Fatalf("limit %d: the oracle's reply does not pack: %v", limit, err)
			}
			want := oracle.buf[:oracle.n]
			if !bytes.Equal(got, want) {
				t.Fatalf("limit %d, query % x\nwritten\n% x\noracle\n% x", limit, pkt, got, want)
			}
			dnswire.PutBuffer(oracle.buf)
		}
		if out := poolOutstanding(); out != base {
			t.Fatalf("%d pooled buffers outstanding after serving", out-base)
		}
	})
}

// TestZoneAnswerAllocs: a zone answer costs nothing through serveQuery,
// with telemetry on — one A record, a multi-record RRset, AAAA, an
// in-zone CNAME chain, a wildcard, NODATA, NXDOMAIN and a referral with
// glue, each without OPT, with an OPT alone and with OPT+ECS — and a
// 0x20-cased question costs only the Request's one lower-cased copy of
// its name. Under the race detector sync.Pool drops buffers on purpose,
// so there the counts are logged.
func TestZoneAnswerAllocs(t *testing.T) {
	z := NewZone("alloc.test.")
	for _, err := range []error{
		z.AddA("one.alloc.test.", 60, netip.MustParseAddr("192.0.2.1")),
		z.AddA("multi.alloc.test.", 60, netip.MustParseAddr("192.0.2.2")),
		z.AddA("multi.alloc.test.", 60, netip.MustParseAddr("192.0.2.3")),
		z.AddA("multi.alloc.test.", 60, netip.MustParseAddr("192.0.2.4")),
		z.Add(&dnswire.AAAA{Hdr: dnswire.RRHeader{Name: "v6.alloc.test.", Type: dnswire.TypeAAAA, Class: dnswire.ClassINET, TTL: 60}, Addr: netip.MustParseAddr("2001:db8::1")}),
		z.AddCNAME("alias.alloc.test.", 60, "chain.alloc.test."),
		z.AddCNAME("chain.alloc.test.", 60, "one.alloc.test."),
		z.AddA("*.wild.alloc.test.", 60, netip.MustParseAddr("192.0.2.5")),
		z.Add(&dnswire.NS{Hdr: dnswire.RRHeader{Name: "child.alloc.test.", Type: dnswire.TypeNS, Class: dnswire.ClassINET, TTL: 60}, NS: "ns.child.alloc.test."}),
		z.AddA("ns.child.alloc.test.", 60, netip.MustParseAddr("192.0.2.53")),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	hub := telemetry.NewHub(vclock.NewReal())
	hub.SampleEvery = math.MaxInt
	chain := Chain(NewZonePlugin(z))
	st := &serveScratch{intern: dnswire.NewNameIntern(0)}
	client := netip.MustParseAddrPort("198.51.100.7:4242")
	query := func(name string, qtype dnswire.Type, edns int) []byte {
		q := new(dnswire.Message)
		q.Questions = []dnswire.Question{{Name: name, Type: qtype, Class: dnswire.ClassINET}}
		if edns > 0 {
			opt := q.SetEDNS(1232)
			if edns > 1 {
				opt.Options = append(opt.Options, dnswire.NewECSOption(netip.MustParsePrefix("10.1.2.0/24")))
			}
		}
		wire, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	for _, c := range []struct {
		name            string
		qname           string
		qtype           dnswire.Type
		rcode           dnswire.Rcode
		an, ns, ar, max int
	}{
		{"A", "one.alloc.test.", dnswire.TypeA, dnswire.RcodeSuccess, 1, 0, 0, 0},
		{"RRset", "multi.alloc.test.", dnswire.TypeA, dnswire.RcodeSuccess, 3, 0, 0, 0},
		{"AAAA", "v6.alloc.test.", dnswire.TypeAAAA, dnswire.RcodeSuccess, 1, 0, 0, 0},
		{"CNAME chain", "alias.alloc.test.", dnswire.TypeA, dnswire.RcodeSuccess, 3, 0, 0, 0},
		{"wildcard", "any.wild.alloc.test.", dnswire.TypeA, dnswire.RcodeSuccess, 1, 0, 0, 0},
		{"NODATA", "one.alloc.test.", dnswire.TypeTXT, dnswire.RcodeSuccess, 0, 1, 0, 0},
		{"NXDOMAIN", "nope.alloc.test.", dnswire.TypeA, dnswire.RcodeNameError, 0, 1, 0, 0},
		{"referral", "x.child.alloc.test.", dnswire.TypeA, dnswire.RcodeSuccess, 0, 1, 1, 0},
		{"0x20 A", "oNe.AlLoC.tEsT.", dnswire.TypeA, dnswire.RcodeSuccess, 1, 0, 0, 1},
	} {
		for edns, with := range []string{"no OPT", "OPT", "OPT+ECS"} {
			pkt := query(c.qname, c.qtype, edns)
			serve := func() {
				buf, n := serveQuery(context.Background(), chain, hub, st, pkt, client, "udp", maxUDPPayload)
				if buf == nil {
					t.Fatalf("%s, %s: no reply", c.name, with)
				}
				counts := [3]int{int(binary.BigEndian.Uint16(buf[6:])), int(binary.BigEndian.Uint16(buf[8:])), int(binary.BigEndian.Uint16(buf[10:]))}
				rcode := dnswire.Rcode(buf[3] & 0xF)
				dnswire.PutBuffer(buf)
				if want := [3]int{c.an, c.ns, c.ar + min(edns, 1)}; counts != want || rcode != c.rcode || n == 0 {
					t.Fatalf("%s, %s: %v, sections %v; want %v, %v", c.name, with, rcode, counts, c.rcode, want)
				}
			}
			serve()
			got := testing.AllocsPerRun(200, serve)
			switch {
			case racecheck.Enabled:
				t.Logf("%s, %s: %v allocs per query under the race detector", c.name, with, got)
			case got > float64(c.max):
				t.Errorf("%s, %s: %v allocs per query, want <= %d", c.name, with, got, c.max)
			}
		}
	}
}

// TestTruncatedReplyAllocs: a reply too large for a plain UDP client is
// cut down in its own buffer, so it costs no more than the same reply
// whole at MaxMessageSize — a 40- and a 200-record RRset, answered by
// the zone and as a cache hit — and the cut itself allocates nothing.
// Under the race detector sync.Pool drops buffers on purpose, so there
// the counts are logged.
func TestTruncatedReplyAllocs(t *testing.T) {
	z := NewZone("trunc.test.")
	for i := range 200 {
		addr := netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})
		if i < 40 {
			if err := z.AddA("forty.trunc.test.", 60, addr); err != nil {
				t.Fatal(err)
			}
		}
		if err := z.AddA("twohundred.trunc.test.", 60, addr); err != nil {
			t.Fatal(err)
		}
	}
	st := &serveScratch{intern: dnswire.NewNameIntern(0)}
	client := netip.MustParseAddrPort("198.51.100.7:4242")
	for _, c := range []struct {
		qname   string
		records int
	}{{"forty.trunc.test.", 40}, {"twohundred.trunc.test.", 200}} {
		pkt, err := queryFor(c.qname).Msg.Pack()
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []struct {
			name string
			h    Handler
		}{
			{"zone answer", Chain(NewZonePlugin(z))},
			{"cache hit", Chain(NewCache(vclock.NewReal()), NewZonePlugin(z))},
		} {
			var allocs [2]float64
			for i, limit := range []int{maxUDPPayload, dnswire.MaxMessageSize} {
				serve := func() {
					buf, n := serveQuery(context.Background(), b.h, nil, st, pkt, client, "udp", limit)
					if buf == nil {
						t.Fatalf("%s, %s: no reply", c.qname, b.name)
					}
					an, tc := int(binary.BigEndian.Uint16(buf[6:])), buf[2]&0x02 != 0
					dnswire.PutBuffer(buf)
					if whole := limit == dnswire.MaxMessageSize; whole == tc || whole != (an == c.records) || !whole && n > dnswire.MaxUDPSize {
						t.Fatalf("%s, %s at %d: %d bytes, %d answers, TC %v", c.qname, b.name, limit, n, an, tc)
					}
				}
				serve() // the miss that fills the cache
				allocs[i] = testing.AllocsPerRun(100, serve)
			}
			switch {
			case racecheck.Enabled:
				t.Logf("%s, %s: %v allocs per query cut to 512 bytes, %v whole, under the race detector", c.qname, b.name, allocs[0], allocs[1])
			case allocs[0] > allocs[1]:
				t.Errorf("%s, %s: %v allocs per query cut to 512 bytes, want no more than the %v of the whole reply", c.qname, b.name, allocs[0], allocs[1])
			}
		}
	}

	image, err := Resolve(context.Background(), Chain(NewZonePlugin(z)), queryFor("twohundred.trunc.test.")).Pack()
	if err != nil {
		t.Fatal(err)
	}
	buf := dnswire.GetBuffer()
	defer dnswire.PutBuffer(buf)
	if got := testing.AllocsPerRun(100, func() {
		if n, err := dnswire.Truncate(buf, copy(buf, image), dnswire.MaxUDPSize); err != nil || n > dnswire.MaxUDPSize {
			t.Fatalf("Truncate: %d bytes, %v", n, err)
		}
	}); got != 0 {
		t.Errorf("Truncate: %v allocs per cut, want 0", got)
	}
}
