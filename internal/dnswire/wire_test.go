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
	offs, _, err := PatchOffsets(wire)
	if err != nil {
		t.Fatal(err)
	}
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
	offs, _, err := PatchOffsets(wire)
	if err != nil {
		t.Fatal(err)
	}
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

func TestWireRcode(t *testing.T) {
	m := new(Message)
	m.SetQuestion("x.test.", TypeA)
	m.Response = true
	m.Rcode = RcodeNameError
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if rc := WireRcode(wire); rc != RcodeNameError {
		t.Fatalf("WireRcode = %v, want NXDOMAIN", rc)
	}
	if rc := WireRcode(nil); rc != RcodeServerFailure {
		t.Fatalf("WireRcode(nil) = %v, want SERVFAIL", rc)
	}
}

func TestPatchOffsetsMalformed(t *testing.T) {
	m := testResponse(t)
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{
		nil,
		wire[:8],
		wire[:len(wire)-3], // truncated mid-record
	} {
		if _, _, err := PatchOffsets(bad); err == nil {
			t.Errorf("PatchOffsets(%d bytes) accepted malformed input", len(bad))
		}
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
	offs, _, err := PatchOffsets(wire)
	if err != nil {
		t.Fatal(err)
	}
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
	_, at, err := PatchOffsets(wire)
	if err != nil {
		t.Fatal(err)
	}
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
	if _, _, err := PatchOffsets(wire); !errors.Is(err, ErrOPTNotLast) {
		t.Errorf("PatchOffsets with records after an ECS-bearing OPT: err = %v, want ErrOPTNotLast", err)
	}
}
