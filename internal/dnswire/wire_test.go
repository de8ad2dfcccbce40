package dnswire

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"
)

// testResponse builds a response with answers in every section, an
// OPT record, and compressed names — the shape the wire cache stores.
func testResponse(t testing.TB) *Message {
	t.Helper()
	m := new(Message)
	m.SetQuestion("video.demo1.mycdn.ciab.test.", TypeA)
	m.Response = true
	m.RecursionDesired = true
	m.Answers = []RR{
		&CNAME{Hdr: RRHeader{Name: "video.demo1.mycdn.ciab.test.", Type: TypeCNAME, Class: ClassINET, TTL: 300}, Target: "edge.site.mycdn.ciab.test."},
		&A{Hdr: RRHeader{Name: "edge.site.mycdn.ciab.test.", Type: TypeA, Class: ClassINET, TTL: 60}, Addr: netip.MustParseAddr("192.0.2.7")},
	}
	m.Authorities = []RR{
		&NS{Hdr: RRHeader{Name: "mycdn.ciab.test.", Type: TypeNS, Class: ClassINET, TTL: 3600}, NS: "ns1.mycdn.ciab.test."},
	}
	m.SetEDNS(1232)
	return m
}

func TestPatchOffsetsTTLs(t *testing.T) {
	m := testResponse(t)
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	img, err := PatchOffsets(wire, nil)
	if err != nil {
		t.Fatal(err)
	}
	offs := img.TTLs
	// Three non-OPT records; the OPT TTL (extended rcode) is excluded.
	if len(offs) != 3 {
		t.Fatalf("got %d TTL offsets, want 3: %v", len(offs), offs)
	}
	want := []uint32{300, 60, 3600}
	for i, off := range offs {
		ttl := uint32(wire[off])<<24 | uint32(wire[off+1])<<16 | uint32(wire[off+2])<<8 | uint32(wire[off+3])
		if ttl != want[i] {
			t.Errorf("offset %d reads TTL %d, want %d", off, ttl, want[i])
		}
	}
}

func TestAgeTTLsMatchesDecodePath(t *testing.T) {
	m := testResponse(t)
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	img, err := PatchOffsets(wire, nil)
	if err != nil {
		t.Fatal(err)
	}
	offs := img.TTLs
	for _, age := range []uint32{0, 1, 59, 60, 61, 299, 1 << 30} {
		patched := append([]byte(nil), wire...)
		AgeTTLs(patched, offs, age)

		// Reference: decode, age, re-encode.
		var ref Message
		if err := ref.Unpack(wire); err != nil {
			t.Fatal(err)
		}
		for _, section := range [][]RR{ref.Answers, ref.Authorities, ref.Additionals} {
			for _, rr := range section {
				if rr.Header().Type == TypeOPT {
					continue
				}
				if rr.Header().TTL > age {
					rr.Header().TTL -= age
				} else {
					rr.Header().TTL = 0
				}
			}
		}
		refWire, err := ref.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(patched, refWire) {
			t.Errorf("age %d: patched wire differs from decode-age-repack:\n% x\n% x", age, patched, refWire)
		}
	}
}

func TestPatchID(t *testing.T) {
	m := testResponse(t)
	m.ID = 0x1234
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	PatchID(wire, 0xBEEF)
	var got Message
	if err := got.Unpack(wire); err != nil {
		t.Fatal(err)
	}
	if got.ID != 0xBEEF {
		t.Fatalf("patched ID = %#x, want 0xBEEF", got.ID)
	}
}

func TestPatchReplyBits(t *testing.T) {
	for _, tc := range []struct{ rd, cd bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		m := testResponse(t)
		m.RecursionDesired = !tc.rd // stored with the opposite bits
		m.CheckingDisabled = !tc.cd
		wire, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		PatchReplyBits(wire, tc.rd, tc.cd)
		var got Message
		if err := got.Unpack(wire); err != nil {
			t.Fatal(err)
		}
		if got.RecursionDesired != tc.rd || got.CheckingDisabled != tc.cd {
			t.Errorf("rd/cd = %v/%v, want %v/%v", got.RecursionDesired, got.CheckingDisabled, tc.rd, tc.cd)
		}
		if !got.Response || got.Rcode != m.Rcode || !got.AuthenticatedData == m.AuthenticatedData && m.AuthenticatedData {
			t.Errorf("unrelated flags disturbed: %v", &got)
		}
	}
}

// hostileReplies are the router's reply bent into shapes Unpack refuses;
// the walk that lets a reply be relayed undecoded must refuse them too.
func hostileReplies() [][]byte {
	reply, err := routerReply().Pack()
	if err != nil {
		panic(err)
	}
	// 12 header octets, a 19-octet question name and its type and
	// class, then the answer: a two-octet pointer as owner, type,
	// class, TTL, RDLENGTH.
	const owner, rdlen = 12 + 19 + 4, 12 + 19 + 4 + 2 + 8
	bend := func(at int, v byte) []byte {
		b := append([]byte(nil), reply...)
		b[at] = v
		return b
	}
	return [][]byte{
		bend(rdlen+1, 5),       // an A record of five octets, the fifth borrowed from the OPT
		bend(owner+1, owner+2), // a forward pointer
		bend(owner+1, owner),   // a pointer at itself
		append(bend(0, 0), 0),  // a trailing octet
		bend(len(reply)-6, 3),  // ECS family 3
		bend(len(reply)-5, 25), // ECS source /25 with three address octets
		bend(len(reply)-8, 99), // an ECS option running past the OPT's RDATA
		bend(5, 2),             // QDCOUNT 2
		bend(11, 2),            // ARCOUNT 2
	}
}

func TestPatchOffsetsMalformed(t *testing.T) {
	m := testResponse(t)
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range append(hostileReplies(),
		nil,
		wire[:8],
		wire[:len(wire)-3], // truncated mid-record
	) {
		if _, err := PatchOffsets(bad, nil); err == nil {
			t.Errorf("PatchOffsets accepted malformed input % x", bad)
		}
		if err := new(Message).Unpack(bad); err == nil {
			t.Errorf("Unpack accepts % x: not a malformed input", bad)
		}
	}
}

// TestPatchOffsetsRefusesNamesOverPatchedBytes: Unpack decodes a name
// whose pointer lands in the header, in a TTL field or ahead of itself,
// but a relay restamps those bytes, so the walk must not let it through.
func TestPatchOffsetsRefusesNamesOverPatchedBytes(t *testing.T) {
	head := []byte{0, 0, 0x84, 0, 0, 1, 0, 2, 0, 0, 0, 0,
		1, 'q', 0, 0, 1, 0, 1, // the question, q. A IN, at 12
		0xC0, 12, 0, 1, 0, 1, 1, 'x', 0, 0, 0, 4, 192, 0, 2, 3} // q. A, TTL 0x01780000 at 25: "\x01x" then the root
	second := func(owner ...byte) []byte {
		rr := append(append([]byte(nil), head...), owner...)
		return append(rr, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 192, 0, 2, 2)
	}
	for what, wire := range map[string][]byte{
		"into the header":  second(0xC0, 5),  // QDCOUNT's low octet, 1, then ANCOUNT's 0, 2, ...
		"into a TTL field": second(0xC0, 25), // reads the label "x" out of the first answer's TTL
		"past the pointer": second(0xC0, 34), // the address's 3 as a length octet: a label over the pointer itself
	} {
		if err := new(Message).Unpack(wire); err != nil {
			t.Errorf("%s: Unpack refuses it (%v), so the case proves nothing", what, err)
		}
		if _, err := PatchOffsets(wire, nil); !errors.Is(err, ErrBadPointer) {
			t.Errorf("%s: PatchOffsets err = %v, want ErrBadPointer", what, err)
		}
	}
	if _, err := PatchOffsets(second(0xC0, 12), nil); err != nil {
		t.Errorf("a pointer at the question name: %v", err)
	}
}

// TestPatchOffsetsImage: what the walk reads off a response besides the
// patch positions — the facts a cache used to decode the message for.
func TestPatchOffsetsImage(t *testing.T) {
	reply, err := routerReply().Pack()
	if err != nil {
		t.Fatal(err)
	}
	var scratch [4]int
	img, err := PatchOffsets(reply, scratch[:0])
	if err != nil {
		t.Fatal(err)
	}
	if img.Rcode != RcodeSuccess || img.Answers != 1 || img.TTL != 300 || img.Scope != 24 || len(img.TTLs) != 1 {
		t.Errorf("router reply: %+v", img)
	}
	if &img.TTLs[0] != &scratch[0] {
		t.Error("TTL offsets were not appended to the caller's slice")
	}

	neg := new(Message)
	neg.SetQuestion("nx.zone.test.", TypeA)
	neg.Response = true
	neg.Rcode = RcodeBadVers | RcodeNameError // 19: header bits 3, extended bits 1
	neg.Authorities = []RR{
		&NS{Hdr: RRHeader{Name: "zone.test.", Type: TypeNS, Class: ClassINET, TTL: 5}, NS: "ns.zone.test."},
		&SOA{Hdr: RRHeader{Name: "zone.test.", Type: TypeSOA, Class: ClassINET, TTL: 900}, NS: "ns.zone.test.", Mbox: "admin.zone.test.", MinTTL: 120},
		&SOA{Hdr: RRHeader{Name: "zone.test.", Type: TypeSOA, Class: ClassINET, TTL: 7}, NS: "ns.zone.test.", Mbox: "admin.zone.test.", MinTTL: 7},
	}
	neg.SetEDNS(1232)
	wire, err := neg.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if img, err = PatchOffsets(wire, nil); err != nil {
		t.Fatal(err)
	}
	if img.Rcode != 19 || img.Answers != 0 || img.TTL != 120 || img.Scope != 0 || img.ECS != (ECSAt{}) {
		t.Errorf("negative reply: %+v, want rcode 19, the first SOA's min(900, 120), no ECS", img)
	}
}

func TestBufferPool(t *testing.T) {
	b := GetBuffer()
	if len(b) != MaxMessageSize {
		t.Fatalf("pooled buffer length = %d, want %d", len(b), MaxMessageSize)
	}
	PutBuffer(b[:17]) // short views of pooled buffers are restored to full size
	PutBuffer(make([]byte, 16))
	c := GetBuffer()
	if len(c) != MaxMessageSize {
		t.Fatalf("recycled buffer length = %d, want %d", len(c), MaxMessageSize)
	}
	PutBuffer(c)
}

func TestClampTTLs(t *testing.T) {
	m := testResponse(t) // TTLs 300 (CNAME), 60 (A), 3600 (NS), plus OPT
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	img, err := PatchOffsets(wire, nil)
	if err != nil {
		t.Fatal(err)
	}
	offs := img.TTLs
	ClampTTLs(wire, offs, 100)
	var got Message
	if err := got.Unpack(wire); err != nil {
		t.Fatal(err)
	}
	// TTLs above the clamp come down to it; those at or below keep
	// their value — the stale clamp never grants lifetime or zeroes.
	if ttl := got.Answers[0].Header().TTL; ttl != 100 {
		t.Errorf("CNAME TTL = %d, want clamped to 100", ttl)
	}
	if ttl := got.Answers[1].Header().TTL; ttl != 60 {
		t.Errorf("A TTL = %d, want untouched 60", ttl)
	}
	if ttl := got.Authorities[0].Header().TTL; ttl != 100 {
		t.Errorf("NS TTL = %d, want clamped to 100", ttl)
	}
	// The OPT TTL carries flags, not a lifetime; its offset was never
	// recorded, so the EDNS payload survives clamping.
	opt, ok := got.OPT()
	if !ok || opt.UDPSize() != 1232 {
		t.Errorf("OPT record disturbed by clamp: ok=%v", ok)
	}
}

// TestEchoECS splices query echoes shorter than, as long as and longer
// than the stored option — between two other options, so the tail of
// the OPT record has to move — and checks each result decodes to the
// stored message with only the echo replaced.
func TestEchoECS(t *testing.T) {
	m := testResponse(t)
	opt, _ := m.OPT()
	opt.Options = []EDNSOption{
		&GenericOption{OptCode: OptionCodeCookie, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		&ECSOption{Family: 1, SourcePrefix: 24, ScopePrefix: 16, Address: netip.MustParseAddr("10.1.1.0")},
		&GenericOption{OptCode: OptionCodePadding, Data: []byte{0, 0, 0}},
	}
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	img, err := PatchOffsets(wire, nil)
	if err != nil {
		t.Fatal(err)
	}
	at := img.ECS
	if at == (ECSAt{}) {
		t.Fatal("PatchOffsets did not locate the ECS option")
	}
	for _, prefix := range []string{"0.0.0.0/0", "10.1.0.0/17", "10.1.2.0/24", "10.1.2.128/27", "2001:db8:7:1::/64"} {
		q := NewECSOption(netip.MustParsePrefix(prefix))
		buf := GetBuffer()
		n, err := EchoECS(buf, copy(buf, wire), at, q)
		if err != nil {
			t.Fatalf("%s: %v", prefix, err)
		}
		var got Message
		if err := got.Unpack(buf[:n]); err != nil {
			t.Fatalf("%s: spliced image does not unpack: %v", prefix, err)
		}
		PutBuffer(buf)
		ecs, _ := got.ECS()
		if ecs.Prefix() != netip.MustParsePrefix(prefix) || ecs.Family != q.Family || ecs.ScopePrefix != 16 {
			t.Errorf("%s: echo = family %d %s scope %d, want the query's subnet at the stored scope 16",
				prefix, ecs.Family, ecs.Prefix(), ecs.ScopePrefix)
		}
		want := m.Clone()
		wantECS, _ := want.ECS()
		wantECS.Family, wantECS.SourcePrefix, wantECS.Address = q.Family, q.SourcePrefix, q.Address
		wantWire, err := want.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if gotWire, _ := got.Pack(); !bytes.Equal(gotWire, wantWire) {
			t.Errorf("%s: spliced image differs from repacking the edited message:\n% x\n% x", prefix, gotWire, wantWire)
		}
	}

	// An ECS-bearing OPT that is not the last record is rejected: the
	// splice could not fix up compression pointers behind it.
	m.Additionals = append(m.Additionals,
		&A{Hdr: RRHeader{Name: "ns1.mycdn.ciab.test.", Type: TypeA, Class: ClassINET, TTL: 60}, Addr: netip.MustParseAddr("192.0.2.53")})
	wire, err = m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PatchOffsets(wire, nil); !errors.Is(err, ErrOPTNotLast) {
		t.Errorf("PatchOffsets with records after an ECS-bearing OPT: err = %v, want ErrOPTNotLast", err)
	}
}
