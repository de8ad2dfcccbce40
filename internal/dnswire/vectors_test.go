package dnswire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"strings"
	"testing"
)

// updateVectors rewrites testdata/pack_vectors.txt from what Pack emits
// now. The file was captured at the commit before the one-pass name
// codec (PR 17) and is the proof that the rewrite changed no byte for
// any input outside the two compressor collisions it fixes.
var updateVectors = flag.Bool("update-vectors", false, "rewrite testdata/pack_vectors.txt")

type packVector struct {
	name string
	msg  *Message
}

// packVectors is the corpus the captured bytes cover: every name the
// name tests pack, the messages msg_test.go builds, the fuzz seeds, the
// C-DNS router's reply shape, and a transfer-sized message with many
// distinct owners.
func packVectors() []packVector {
	hdr := func(name string, t Type, ttl uint32) RRHeader {
		return RRHeader{Name: name, Type: t, Class: ClassINET, TTL: ttl}
	}
	var vs []packVector
	add := func(name string, m *Message) { vs = append(vs, packVector{name, m}) }

	names := []string{
		".", "com.", "example.com.", "a0.muscache.com.", "q-cf.bstatic.com.", "static.tacdn.com.",
		"cdn0.agoda.net.", "a.cdn.intentmedia.net.", "video.demo1.mycdn.ciab.test.",
		"_sip._tcp.example.org.", strings.Repeat("a", 63) + ".example.",
		"example.com", `foo\.bar.example.`, `\000\255.example.`, "EXAMPLE.com.", `a\\b.example.`,
	}
	for i, name := range names {
		under := strings.TrimPrefix(name, ".") // "alias." + "." is not a name
		m := new(Message)
		m.ID = uint16(i)
		m.Questions = []Question{{Name: name, Type: TypeA, Class: ClassINET}}
		m.Response = true
		m.Answers = []RR{
			&CNAME{Hdr: hdr(name, TypeCNAME, 300), Target: "alias." + under},
			&A{Hdr: hdr("alias."+under, TypeA, 60), Addr: netip.MustParseAddr("192.0.2.1")},
		}
		m.Authorities = []RR{&NS{Hdr: hdr(Parent(name), TypeNS, 3600), NS: "NS1." + strings.ToUpper(under)}}
		add(fmt.Sprintf("name-%d", i), m)
	}

	sample := new(Message)
	sample.SetQuestion("video.demo1.mycdn.ciab.test.", TypeA)
	sample.ID = 0xBEEF
	sample.Response, sample.Authoritative, sample.RecursionAvailable = true, true, true
	sample.Answers = []RR{
		&CNAME{Hdr: hdr("video.demo1.mycdn.ciab.test.", TypeCNAME, 300), Target: "edge.mycdn.ciab.test."},
		&A{Hdr: hdr("edge.mycdn.ciab.test.", TypeA, 60), Addr: netip.MustParseAddr("10.96.0.10")},
	}
	sample.Authorities = []RR{&NS{Hdr: hdr("mycdn.ciab.test.", TypeNS, 3600), NS: "cdns.mycdn.ciab.test."}}
	sample.Additionals = []RR{&AAAA{Hdr: hdr("cdns.mycdn.ciab.test.", TypeAAAA, 3600), Addr: netip.MustParseAddr("fd00::10")}}
	add("sample", sample)

	rrs := []RR{
		&A{Hdr: hdr("a.test.", TypeA, 1), Addr: netip.MustParseAddr("192.0.2.1")},
		&AAAA{Hdr: hdr("aaaa.test.", TypeAAAA, 2), Addr: netip.MustParseAddr("2001:db8::1")},
		&CNAME{Hdr: hdr("c.test.", TypeCNAME, 3), Target: "t.test."},
		&NS{Hdr: hdr("ns.test.", TypeNS, 4), NS: "ns1.test."},
		&SOA{Hdr: hdr("soa.test.", TypeSOA, 5), NS: "ns1.test.", Mbox: "admin.test.",
			Serial: 2020110401, Refresh: 7200, Retry: 3600, Expire: 1209600, MinTTL: 300},
		&PTR{Hdr: hdr("1.2.0.192.in-addr.arpa.", TypePTR, 6), PTR: "a.test."},
		&MX{Hdr: hdr("mx.test.", TypeMX, 7), Preference: 10, MX: "mail.test."},
		&TXT{Hdr: hdr("txt.test.", TypeTXT, 8), Txt: []string{"hello", "world"}},
		&SRV{Hdr: hdr("_dns._udp.test.", TypeSRV, 9), Priority: 1, Weight: 2, Port: 53, Target: "srv.test."},
		&Generic{Hdr: hdr("gen.test.", Type(4242), 10), Data: []byte{1, 2, 3, 4}},
	}
	all := new(Message)
	all.SetQuestion("all.test.", TypeANY)
	all.Response = true
	for _, rr := range rrs {
		m := new(Message)
		m.SetQuestion(rr.Header().Name, rr.Header().Type)
		m.Response = true
		m.Answers = []RR{rr}
		add("rr-"+rr.Header().Type.String(), m)
		all.Answers = append(all.Answers, rr)
	}
	add("rr-all", all)

	big := new(Message)
	big.SetQuestion("big.test.", TypeA)
	big.Response = true
	for i := 0; i < 100; i++ {
		big.Answers = append(big.Answers, &A{Hdr: hdr("big.test.", TypeA, 60), Addr: netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})})
	}
	big.SetEDNS(1232)
	add("big", big)
	cut := big.Clone()
	cut.Truncated, cut.Answers = true, cut.Answers[:29] // as many as fit 512 bytes with the OPT
	add("big-truncated", cut)

	badvers := new(Message)
	badvers.SetQuestion("x.test.", TypeA)
	badvers.Response = true
	badvers.Rcode = RcodeBadVers
	badvers.SetEDNS(1232)
	add("badvers", badvers)

	seedQ := new(Message)
	seedQ.SetQuestion("video.demo1.mycdn.ciab.test.", TypeA)
	add("fuzz-seed-query", seedQ)
	seedR := new(Message)
	seedR.SetQuestion("edge.mycdn.ciab.test.", TypeA)
	seedR.Response = true
	seedR.Answers = []RR{&CNAME{Hdr: hdr("edge.mycdn.ciab.test.", TypeCNAME, 30), Target: "pop.other.example."}}
	seedR.SetEDNS(1232)
	add("fuzz-seed-response", seedR)

	add("router-reply", routerReply())

	// 40 distinct owners under one origin, two records each, and an
	// SOA at both ends: under the compressor's table bound.
	xfr := new(Message)
	xfr.SetQuestion("zone.test.", TypeAXFR)
	xfr.Response = true
	soa := &SOA{Hdr: hdr("zone.test.", TypeSOA, 60), NS: "ns.zone.test.", Mbox: "admin.zone.test.", Serial: 7, MinTTL: 60}
	xfr.Answers = append(xfr.Answers, soa)
	for i := 0; i < 40; i++ {
		owner := fmt.Sprintf("Host-%d.zone.test.", i)
		xfr.Answers = append(xfr.Answers,
			&A{Hdr: hdr(owner, TypeA, 60), Addr: netip.AddrFrom4([4]byte{10, 1, 0, byte(i)})},
			&MX{Hdr: hdr(strings.ToLower(owner), TypeMX, 60), Preference: 5, MX: "mail." + owner})
	}
	xfr.Answers = append(xfr.Answers, soa)
	add("transfer", xfr)
	return vs
}

// routerReply is the shape cdn.Router answers an ECS query with: one A
// record and an OPT echoing the subnet with a scope.
func routerReply() *Message {
	m := new(Message)
	m.SetQuestion("obj-1-42.cdn.test.", TypeA)
	m.ID = 0x1234
	m.Response, m.Authoritative = true, true
	m.Answers = []RR{&A{Hdr: RRHeader{Name: "obj-1-42.cdn.test.", Type: TypeA, Class: ClassINET, TTL: 300}, Addr: netip.MustParseAddr("203.0.113.7")}}
	opt := m.SetEDNS(DefaultEDNSSize)
	opt.Options = append(opt.Options, &ECSOption{Family: 1, SourcePrefix: 24, ScopePrefix: 24, Address: netip.MustParseAddr("10.3.7.0")})
	return m
}

const vectorsPath = "testdata/pack_vectors.txt"

// loadVectors reads the captured vectors: name → hex of the wire.
func loadVectors(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(vectorsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, hexWire, _ := strings.Cut(sc.Text(), " ")
		want[name] = hexWire
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestPackVectors holds Pack to the bytes captured before the name
// codec was rewritten.
func TestPackVectors(t *testing.T) {
	if *updateVectors {
		var sb strings.Builder
		for _, v := range packVectors() {
			wire, err := v.msg.Pack()
			if err != nil {
				t.Fatalf("%s: %v", v.name, err)
			}
			fmt.Fprintf(&sb, "%s %s\n", v.name, hex.EncodeToString(wire))
		}
		if err := os.WriteFile(vectorsPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := loadVectors(t)
	vs := packVectors()
	if len(want) != len(vs) {
		t.Fatalf("%d captured vectors, %d in the corpus", len(want), len(vs))
	}
	for _, v := range vs {
		wire, err := v.msg.Pack()
		if err != nil {
			t.Errorf("%s: %v", v.name, err)
			continue
		}
		if got := hex.EncodeToString(wire); got != want[v.name] {
			t.Errorf("%s: Pack changed\n got %s\nwant %s", v.name, got, want[v.name])
		}
	}
}

// TestAppendReplyIsRouterVector: AppendReply writes the captured bytes
// of the router-reply vector from its query, into a buffer with room
// and with the answer on the stack, without allocating.
func TestAppendReplyIsRouterVector(t *testing.T) {
	want := routerReply()
	q := new(Message)
	q.SetQuestion(want.Questions[0].Name, TypeA)
	q.ID = want.ID
	echo, _ := want.ECS()
	q.SetEDNS(1232).Options = []EDNSOption{&ECSOption{Family: 1, SourcePrefix: 24, Address: echo.Address}}
	wantA := want.Answers[0].(*A)
	buf := make([]byte, 0, 512)
	reply := func() []byte {
		a := A{Hdr: RRHeader{Type: TypeA, Class: ClassINET, TTL: wantA.Hdr.TTL}, Addr: wantA.Addr}
		answer := [1]ReplyRR{{RR: &a, Owner: q.Questions[0].Name}}
		wire, err := AppendReply(buf, q, &Reply{Authoritative: true, Answers: answer[:], Echo: echo})
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	if got := hex.EncodeToString(reply()); got != loadVectors(t)["router-reply"] {
		t.Errorf("AppendReply differs from the captured router reply\n got %s\nwant %s", got, loadVectors(t)["router-reply"])
	}
	if allocs := testing.AllocsPerRun(100, func() { reply() }); allocs != 0 {
		t.Errorf("AppendReply allocates %v times, want 0", allocs)
	}
}

// TestAppendReplyMatchesPack: AppendReply's bytes are Pack's for the
// message it describes, across the shapes that choose its layout —
// question or none, root or not, records in each section or none, owners
// overridden or not, OPT or none, an echo in it or none, an extended
// rcode — and Pack's errors are its errors.
func TestAppendReplyMatchesPack(t *testing.T) {
	v4, v6 := netip.MustParseAddr("203.0.113.7"), netip.MustParseAddr("2001:db8::7")
	echo4 := &ECSOption{Family: 1, SourcePrefix: 22, ScopePrefix: 16, Address: netip.MustParseAddr("10.3.4.0")}
	echo6 := &ECSOption{Family: 2, SourcePrefix: 56, ScopePrefix: 64, Address: netip.MustParseAddr("2001:db8:1:200::")}
	query := func(name string, edns bool) *Message {
		q := new(Message)
		q.ID, q.Opcode, q.RecursionDesired, q.CheckingDisabled = 0xBEEF, OpcodeQuery, true, true
		if name != "" {
			q.Questions = []Question{{Name: name, Type: TypeA, Class: ClassINET}}
		}
		if edns {
			q.SetEDNS(4096)
		}
		return q
	}
	hdr := func(name string, t Type) RRHeader { return RRHeader{Name: name, Type: t, Class: ClassINET, TTL: 300} }
	a := func(owner string, addr netip.Addr) []ReplyRR {
		return []ReplyRR{{RR: &A{Hdr: hdr("", TypeA), Addr: addr}, Owner: owner}}
	}
	chain := []ReplyRR{
		{RR: &CNAME{Hdr: hdr("*.cdn.test.", TypeCNAME), Target: "edge.cdn.test."}, Owner: "obj.cdn.test."},
		{RR: &A{Hdr: hdr("edge.cdn.test.", TypeA), Addr: v4}},
		{RR: &A{Hdr: hdr("EDGE.cdn.test.", TypeA), Addr: netip.MustParseAddr("203.0.113.8")}},
	}
	soa := []ReplyRR{{RR: &SOA{Hdr: hdr("cdn.test.", TypeSOA), NS: "ns.cdn.test.", Mbox: "hostmaster.cdn.test.", Serial: 7, MinTTL: 60}}}
	ns := []ReplyRR{{RR: &NS{Hdr: hdr("child.cdn.test.", TypeNS), NS: "ns.child.cdn.test."}}}
	glue := []ReplyRR{
		{RR: &A{Hdr: hdr("ns.child.cdn.test.", TypeA), Addr: v4}},
		{RR: &AAAA{Hdr: hdr("ns.child.cdn.test.", TypeAAAA), Addr: v6}},
	}
	for _, c := range []struct {
		name  string
		q     *Message
		reply Reply
	}{
		{"A", query("obj.cdn.test.", false), Reply{Authoritative: true, Answers: a("obj.cdn.test.", v4)}},
		{"A, mixed case", query(`Obj.CDN\.x.test`, true), Reply{Authoritative: true, Answers: a(`obj.cdn\.x.test.`, v4)}},
		{"A + ECS v4", query("obj.cdn.test.", true), Reply{Authoritative: true, Answers: a("obj.cdn.test.", v4), Echo: echo4}},
		{"A + ECS v6", query("obj.cdn.test.", true), Reply{Authoritative: true, Answers: a("obj.cdn.test.", v4), Echo: echo6}},
		{"NODATA + OPT", query("obj.cdn.test.", true), Reply{Authoritative: true}},
		{"SERVFAIL", query("obj.cdn.test.", false), Reply{Rcode: RcodeServerFailure}},
		{"BADVERS", query("obj.cdn.test.", true), Reply{Rcode: RcodeBadVers}},
		{"BADVERS without OPT", query("obj.cdn.test.", false), Reply{Rcode: RcodeBadVers}},
		{"root question", query(".", true), Reply{Authoritative: true, Answers: a(".", v4), Echo: echo4}},
		{"no question", query("", false), Reply{Authoritative: true, Answers: a("", v4)}},
		{"AAAA address", query("obj.cdn.test.", false), Reply{Authoritative: true, Answers: a("obj.cdn.test.", v6)}},
		{"bad name", query("a..b.", false), Reply{Authoritative: true, Answers: a("a..b.", v4)}},
		{"bad owner", query("obj.cdn.test.", false), Reply{Authoritative: true, Answers: a("x..y.", v4)}},
		{"bad echo", query("obj.cdn.test.", true), Reply{Authoritative: true, Answers: a("obj.cdn.test.", v4), Echo: &ECSOption{Family: 3}}},
		{"wildcard CNAME chain", query("OBJ.cdn.test.", true), Reply{Authoritative: true, Answers: chain, Echo: echo4}},
		{"NXDOMAIN", query("nope.cdn.test.", true), Reply{Authoritative: true, Rcode: RcodeNameError, Authorities: soa}},
		{"referral with glue", query("x.child.cdn.test.", true), Reply{Authorities: ns, Additionals: glue}},
		{"answer, authority and additional", query("obj.cdn.test.", false), Reply{Answers: chain, Authorities: ns, Additionals: glue}},
	} {
		m := new(Message).SetReply(c.q)
		m.Rcode = c.reply.Rcode
		m.Authoritative = c.reply.Authoritative
		for _, s := range []struct {
			to   *[]RR
			from []ReplyRR
		}{{&m.Answers, c.reply.Answers}, {&m.Authorities, c.reply.Authorities}, {&m.Additionals, c.reply.Additionals}} {
			for _, rr := range s.from {
				cp := rr.RR.Clone()
				cp.Header().Name = rr.Name()
				*s.to = append(*s.to, cp)
			}
		}
		if _, ok := c.q.OPT(); ok {
			if opt := m.SetEDNS(DefaultEDNSSize); c.reply.Echo != nil {
				opt.Options = []EDNSOption{c.reply.Echo}
			}
		}
		want, wantErr := m.Pack()
		got, gotErr := AppendReply(nil, c.q, &c.reply)
		if (wantErr == nil) != (gotErr == nil) {
			t.Errorf("%s: Pack err %v, AppendReply err %v", c.name, wantErr, gotErr)
		} else if !bytes.Equal(got, want) {
			t.Errorf("%s: AppendReply\n% x\nPack\n% x", c.name, got, want)
		}
	}
}
