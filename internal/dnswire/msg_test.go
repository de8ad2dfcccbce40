package dnswire

import (
	"bytes"
	"errors"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"github.com/meccdn/meccdn/internal/racecheck"
)

func mustAddr(t *testing.T, s string) netip.Addr {
	t.Helper()
	a, err := netip.ParseAddr(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func sampleMessage(t *testing.T) *Message {
	m := new(Message)
	m.ID = 0xBEEF
	m.SetQuestion("video.demo1.mycdn.ciab.test.", TypeA)
	m.ID = 0xBEEF
	m.Response = true
	m.Authoritative = true
	m.RecursionAvailable = true
	m.Answers = []RR{
		&CNAME{
			Hdr:    RRHeader{Name: "video.demo1.mycdn.ciab.test.", Type: TypeCNAME, Class: ClassINET, TTL: 300},
			Target: "edge.mycdn.ciab.test.",
		},
		&A{
			Hdr:  RRHeader{Name: "edge.mycdn.ciab.test.", Type: TypeA, Class: ClassINET, TTL: 60},
			Addr: mustAddr(t, "10.96.0.10"),
		},
	}
	m.Authorities = []RR{
		&NS{
			Hdr: RRHeader{Name: "mycdn.ciab.test.", Type: TypeNS, Class: ClassINET, TTL: 3600},
			NS:  "cdns.mycdn.ciab.test.",
		},
	}
	m.Additionals = []RR{
		&AAAA{
			Hdr:  RRHeader{Name: "cdns.mycdn.ciab.test.", Type: TypeAAAA, Class: ClassINET, TTL: 3600},
			Addr: mustAddr(t, "fd00::10"),
		},
	}
	return m
}

func TestMessageRoundTrip(t *testing.T) {
	m := sampleMessage(t)
	wire, err := m.Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	var got Message
	if err := got.Unpack(wire); err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if !reflect.DeepEqual(&got, m) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", &got, m)
	}
}

func TestMessageCompressionShrinksWire(t *testing.T) {
	m := sampleMessage(t)
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// Rough uncompressed size: sum of all names fully expanded.
	uncompressed := 12
	addName := func(n string) { uncompressed += len(n) + 1 }
	addName(m.Questions[0].Name)
	uncompressed += 4
	for _, rr := range append(append(append([]RR{}, m.Answers...), m.Authorities...), m.Additionals...) {
		addName(rr.Header().Name)
		uncompressed += 10 + 20 // header + generous rdata estimate
	}
	if len(wire) >= uncompressed {
		t.Errorf("compressed message %d bytes, uncompressed estimate %d", len(wire), uncompressed)
	}
}

func TestSetQuestionAndReply(t *testing.T) {
	q := new(Message)
	q.ID = 42
	q.SetQuestion("a0.muscache.com", TypeA)
	if q.ID != 42 {
		t.Error("SetQuestion must preserve ID")
	}
	if !q.RecursionDesired {
		t.Error("SetQuestion must set RD")
	}
	if q.Question().Name != "a0.muscache.com." {
		t.Errorf("question name = %q", q.Question().Name)
	}
	r := new(Message)
	r.SetReply(q)
	if r.ID != 42 || !r.Response || !r.RecursionDesired {
		t.Errorf("SetReply header = %+v", r)
	}
	if r.Question() != q.Question() {
		t.Error("SetReply must copy the question")
	}
}

func TestUnpackErrors(t *testing.T) {
	var m Message
	if err := m.Unpack([]byte{1, 2, 3}); !errors.Is(err, ErrShortMessage) {
		t.Errorf("short message error = %v", err)
	}
	good, err := sampleMessage(t).Pack()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Unpack(append(good, 0x00)); !errors.Is(err, ErrTrailingGarbage) {
		t.Errorf("trailing garbage error = %v", err)
	}
	// Header claiming absurd record counts must fail fast, not OOM.
	evil := make([]byte, 12)
	evil[4], evil[5] = 0xFF, 0xFF
	if err := m.Unpack(evil); !errors.Is(err, ErrTooManyRecords) {
		t.Errorf("huge count error = %v", err)
	}
}

func TestUnpackNeverPanicsProperty(t *testing.T) {
	f := func(data []byte) bool {
		var m Message
		_ = m.Unpack(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestPackUnpackRoundTripProperty(t *testing.T) {
	// Construct semi-random but well-formed messages and verify the
	// pack→unpack→pack fixed point on the wire bytes.
	f := func(id uint16, ttl uint32, nA, nC uint8, v4 [4]byte) bool {
		m := new(Message)
		m.ID = id
		m.SetQuestion("stress.example.org.", TypeA)
		m.ID = id
		m.Response = true
		for i := 0; i < int(nA%8); i++ {
			m.Answers = append(m.Answers, &A{
				Hdr:  RRHeader{Name: "stress.example.org.", Type: TypeA, Class: ClassINET, TTL: ttl},
				Addr: netip.AddrFrom4(v4),
			})
		}
		for i := 0; i < int(nC%4); i++ {
			m.Answers = append(m.Answers, &CNAME{
				Hdr:    RRHeader{Name: "stress.example.org.", Type: TypeCNAME, Class: ClassINET, TTL: ttl},
				Target: "target.example.org.",
			})
		}
		w1, err := m.Pack()
		if err != nil {
			return false
		}
		var u Message
		if err := u.Unpack(w1); err != nil {
			return false
		}
		w2, err := u.Pack()
		if err != nil {
			return false
		}
		return bytes.Equal(w1, w2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAllRRTypesRoundTrip(t *testing.T) {
	rrs := []RR{
		&A{Hdr: RRHeader{Name: "a.test.", Type: TypeA, Class: ClassINET, TTL: 1}, Addr: mustAddr(t, "192.0.2.1")},
		&AAAA{Hdr: RRHeader{Name: "aaaa.test.", Type: TypeAAAA, Class: ClassINET, TTL: 2}, Addr: mustAddr(t, "2001:db8::1")},
		&CNAME{Hdr: RRHeader{Name: "c.test.", Type: TypeCNAME, Class: ClassINET, TTL: 3}, Target: "t.test."},
		&NS{Hdr: RRHeader{Name: "ns.test.", Type: TypeNS, Class: ClassINET, TTL: 4}, NS: "ns1.test."},
		&SOA{
			Hdr: RRHeader{Name: "soa.test.", Type: TypeSOA, Class: ClassINET, TTL: 5},
			NS:  "ns1.test.", Mbox: "admin.test.",
			Serial: 2020110401, Refresh: 7200, Retry: 3600, Expire: 1209600, MinTTL: 300,
		},
		&PTR{Hdr: RRHeader{Name: "1.2.0.192.in-addr.arpa.", Type: TypePTR, Class: ClassINET, TTL: 6}, PTR: "a.test."},
		&MX{Hdr: RRHeader{Name: "mx.test.", Type: TypeMX, Class: ClassINET, TTL: 7}, Preference: 10, MX: "mail.test."},
		&TXT{Hdr: RRHeader{Name: "txt.test.", Type: TypeTXT, Class: ClassINET, TTL: 8}, Txt: []string{"hello", "world"}},
		&SRV{Hdr: RRHeader{Name: "_dns._udp.test.", Type: TypeSRV, Class: ClassINET, TTL: 9}, Priority: 1, Weight: 2, Port: 53, Target: "srv.test."},
		&Generic{Hdr: RRHeader{Name: "gen.test.", Type: Type(4242), Class: ClassINET, TTL: 10}, Data: []byte{1, 2, 3, 4}},
	}
	for _, want := range rrs {
		m := new(Message)
		m.SetQuestion(want.Header().Name, want.Header().Type)
		m.Response = true
		m.Answers = []RR{want}
		wire, err := m.Pack()
		if err != nil {
			t.Fatalf("%T Pack: %v", want, err)
		}
		var got Message
		if err := got.Unpack(wire); err != nil {
			t.Fatalf("%T Unpack: %v", want, err)
		}
		if len(got.Answers) != 1 || !reflect.DeepEqual(got.Answers[0], want) {
			t.Errorf("%T round trip:\ngot  %#v\nwant %#v", want, got.Answers[0], want)
		}
	}
}

func TestRRClone(t *testing.T) {
	orig := &TXT{Hdr: RRHeader{Name: "t.test.", Type: TypeTXT, Class: ClassINET, TTL: 10}, Txt: []string{"a"}}
	c := orig.Clone().(*TXT)
	c.Txt[0] = "mutated"
	c.Hdr.TTL = 99
	if orig.Txt[0] != "a" || orig.Hdr.TTL != 10 {
		t.Error("Clone shares state with original")
	}
}

func TestMessageClone(t *testing.T) {
	m := sampleMessage(t)
	c := m.Clone()
	c.Answers[1].(*A).Addr = netip.MustParseAddr("203.0.113.9")
	if m.Answers[1].(*A).Addr.String() != "10.96.0.10" {
		t.Error("Message.Clone shares answer records")
	}
}

func TestExtendedRcode(t *testing.T) {
	m := new(Message)
	m.SetQuestion("x.test.", TypeA)
	m.Response = true
	m.Rcode = RcodeBadVers // 16: needs extended rcode
	m.SetEDNS(1232)
	wire, err := m.Pack()
	if err != nil {
		t.Fatalf("Pack with extended rcode: %v", err)
	}
	var got Message
	if err := got.Unpack(wire); err != nil {
		t.Fatal(err)
	}
	if got.Rcode != RcodeBadVers {
		t.Errorf("extended rcode round trip = %v, want BADVERS", got.Rcode)
	}
}

func TestExtendedRcodeWithoutOPTFails(t *testing.T) {
	m := new(Message)
	m.SetQuestion("x.test.", TypeA)
	m.Rcode = RcodeBadVers
	if _, err := m.Pack(); err == nil {
		t.Error("Pack succeeded with extended rcode but no OPT")
	}
}

func TestStringRendering(t *testing.T) {
	s := sampleMessage(t).String()
	for _, want := range []string{"NOERROR", "QUESTION SECTION", "ANSWER SECTION", "edge.mycdn.ciab.test.", "10.96.0.10"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestTypeClassRcodeStrings(t *testing.T) {
	if TypeA.String() != "A" || TypeOPT.String() != "OPT" {
		t.Error("Type.String known types")
	}
	if Type(9999).String() != "TYPE9999" {
		t.Errorf("Type.String unknown = %q", Type(9999).String())
	}
	if ClassINET.String() != "IN" || Class(77).String() != "CLASS77" {
		t.Error("Class.String")
	}
	if RcodeNameError.String() != "NXDOMAIN" || Rcode(200).String() != "RCODE200" {
		t.Error("Rcode.String")
	}
	if OpcodeQuery.String() != "QUERY" || Opcode(7).String() != "OPCODE7" {
		t.Error("Opcode.String")
	}
}

func TestAppendPackRequiresEmptyBuffer(t *testing.T) {
	m := new(Message)
	m.SetQuestion("x.test.", TypeA)
	if _, err := m.AppendPack([]byte{1}); err == nil {
		t.Error("AppendPack accepted a non-empty buffer")
	}
	buf := make([]byte, 0, 512)
	out, err := m.AppendPack(buf)
	if err != nil {
		t.Fatal(err)
	}
	if cap(out) != cap(buf) {
		t.Log("note: buffer grew; acceptable but unexpected for a small query")
	}
}

// TestAppendPackAllocs: packing a question + OPT/ECS query, the shape
// of every query a stub sends upstream, into a pooled buffer allocates
// nothing: the compressor table AppendPack needs is on its stack.
// Under the race detector sync.Pool drops objects on purpose, so there
// the count is only logged.
func TestAppendPackAllocs(t *testing.T) {
	q := new(Message).SetQuestion("obj-1.cdn.bench.test.", TypeA)
	q.SetEDNS(1232).Options = []EDNSOption{NewECSOption(netip.MustParsePrefix("10.1.2.0/24"))}
	pack := func() {
		buf := GetBuffer()
		if _, err := q.AppendPack(buf[:0]); err != nil {
			t.Fatal(err)
		}
		PutBuffer(buf)
	}
	pack()
	switch allocs := testing.AllocsPerRun(1000, pack); {
	case racecheck.Enabled:
		t.Logf("AppendPack allocates %v times under the race detector", allocs)
	case allocs != 0:
		t.Errorf("AppendPack allocates %v times, want 0", allocs)
	}
}
