package dnswire

import (
	"bufio"
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
	cut.TruncateTo(MaxUDPSize)
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

// TestPackVectors holds Pack to the bytes captured before the name
// codec was rewritten.
func TestPackVectors(t *testing.T) {
	const path = "testdata/pack_vectors.txt"
	if *updateVectors {
		var sb strings.Builder
		for _, v := range packVectors() {
			wire, err := v.msg.Pack()
			if err != nil {
				t.Fatalf("%s: %v", v.name, err)
			}
			fmt.Fprintf(&sb, "%s %s\n", v.name, hex.EncodeToString(wire))
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(path)
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
