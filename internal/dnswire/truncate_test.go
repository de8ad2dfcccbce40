package dnswire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net/netip"
	"strings"
	"testing"
)

// truncateTo is the decoded form of Truncate, the oracle FuzzTruncate
// holds it to: a message that does not pack within size bytes loses its
// answers, its authorities and its non-OPT additionals, and gains TC.
func truncateTo(m *Message, size int) {
	if b, err := m.Pack(); err == nil && len(b) <= size {
		return
	}
	m.Truncated = true
	m.Answers, m.Authorities = nil, nil
	var opts []RR
	for _, rr := range m.Additionals {
		if rr.Header().Type == TypeOPT {
			opts = append(opts, rr)
		}
	}
	m.Additionals = opts
}

// truncateInput builds the response a FuzzTruncate input describes: a
// question for qname (a label of its octets under test., or test. alone)
// with the header bits of flags and the low four bits of rcode, then
// one record per three octets [k x y] of recs, at most 200 of them
// (enough to overflow 4096 octets). k's low two bits pick
// the section (3 is the answer section again), the next three the type
// (A, AAAA, CNAME, NS, MX, TXT, SOA, A), the top three the owner; x and
// y are the RDATA. opt picks the OPT record — none, bare, with an IPv4
// or an IPv6 ECS option — and, by its upper bits, where among the
// additionals it goes; with an OPT, rcode's bits 4 to 11 are the
// extended rcode, and its top bit adds a second, bare OPT at the end.
func truncateInput(qname []byte, flags, rcode uint16, recs []byte, opt uint8) *Message {
	name := "test."
	if len(qname) > 0 {
		var b strings.Builder
		for _, c := range qname[:min(len(qname), 63)] {
			if c == '.' || c == '\\' || c < '!' || c > '~' {
				c = 'a' + c%26
			}
			b.WriteByte(c)
		}
		name = b.String() + ".test."
	}
	owners := [8]string{name, "www." + name, "test.", "other.example.", "a.b.other.example.", name, "x." + name, "ns.test."}
	m := &Message{
		ID:                 flags ^ 0x5a5a,
		Response:           flags&flagQR != 0,
		Opcode:             Opcode(flags >> 11 & 0xF),
		Authoritative:      flags&flagAA != 0,
		Truncated:          flags&flagTC != 0,
		RecursionDesired:   flags&flagRD != 0,
		RecursionAvailable: flags&flagRA != 0,
		AuthenticatedData:  flags&flagAD != 0,
		CheckingDisabled:   flags&flagCD != 0,
		Rcode:              Rcode(rcode & 0xF),
		Questions:          []Question{{Name: name, Type: TypeA, Class: ClassINET}},
	}
	for i := 0; i+3 <= min(len(recs), 3*200); i += 3 {
		k, x, y := recs[i], recs[i+1], recs[i+2]
		h := RRHeader{Name: owners[k>>5], Class: ClassINET, TTL: uint32(x)<<8 | uint32(y)}
		var rr RR
		switch k >> 2 & 7 {
		case 1:
			h.Type = TypeAAAA
			rr = &AAAA{Hdr: h, Addr: netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 14: x, 15: y})}
		case 2:
			h.Type = TypeCNAME
			rr = &CNAME{Hdr: h, Target: owners[x&7]}
		case 3:
			h.Type = TypeNS
			rr = &NS{Hdr: h, NS: owners[y&7]}
		case 4:
			h.Type = TypeMX
			rr = &MX{Hdr: h, Preference: uint16(x), MX: owners[y&7]}
		case 5:
			h.Type = TypeTXT
			rr = &TXT{Hdr: h, Txt: []string{strings.Repeat(string(rune('a'+y%26)), int(x%64))}}
		case 6:
			h.Type = TypeSOA
			rr = &SOA{Hdr: h, NS: owners[x&7], Mbox: owners[y&7], Serial: uint32(x), MinTTL: uint32(y)}
		default:
			h.Type = TypeA
			rr = &A{Hdr: h, Addr: netip.AddrFrom4([4]byte{10, 0, x, y})}
		}
		switch k & 3 {
		case 1:
			m.Authorities = append(m.Authorities, rr)
		case 2:
			m.Additionals = append(m.Additionals, rr)
		default:
			m.Answers = append(m.Answers, rr)
		}
	}
	if opt&3 == 0 {
		return m
	}
	o := NewOPT(DefaultEDNSSize)
	switch opt & 3 {
	case 2:
		o.Options = append(o.Options, NewECSOption(netip.MustParsePrefix("198.51.100.0/24")))
	case 3:
		o.Options = append(o.Options, NewECSOption(netip.MustParsePrefix("2001:db8:7::/56")))
	}
	at := int(opt>>2) % (len(m.Additionals) + 1)
	m.Additionals = append(m.Additionals[:at], append([]RR{o}, m.Additionals[at:]...)...)
	if rcode&0x8000 != 0 {
		m.Additionals = append(m.Additionals, NewOPT(MaxUDPSize))
	}
	m.Rcode = Rcode(rcode % 4096)
	return m
}

// packRelayed packs m the way another server might: every name spelled
// in upper case and written out in full, without compression, and the
// OPT record, when ownedOPT, under the question name instead of the
// root.
func packRelayed(t *testing.T, m *Message, ownedOPT bool) []byte {
	t.Helper()
	b := binary.BigEndian.AppendUint16(nil, m.ID)
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, wire[2:12]...) // flags and counts
	up := strings.ToUpper
	q := m.Question()
	if b, err = packName(b, up(q.Name), nil); err != nil {
		t.Fatal(err)
	}
	b = binary.BigEndian.AppendUint16(b, uint16(q.Type))
	b = binary.BigEndian.AppendUint16(b, uint16(q.Class))
	for _, section := range [][]RR{m.Answers, m.Authorities, m.Additionals} {
		for _, rr := range section {
			owner := up(rr.Header().Name)
			if rr.Header().Type == TypeOPT && ownedOPT {
				owner = up(q.Name)
			}
			if b, err = packRR(b, rr, owner, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b
}

func TestTruncateTo(t *testing.T) {
	m := new(Message)
	m.SetQuestion("big.test.", TypeA)
	m.Response = true
	for i := 0; i < 100; i++ {
		m.Answers = append(m.Answers, &A{
			Hdr:  RRHeader{Name: "big.test.", Type: TypeA, Class: ClassINET, TTL: 60},
			Addr: netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}),
		})
	}
	m.SetEDNS(1232)
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, MaxMessageSize)
	n, err := Truncate(buf, copy(buf, wire), MaxUDPSize)
	if err != nil {
		t.Fatal(err)
	}
	if n > MaxUDPSize {
		t.Errorf("truncated message is %d bytes", n)
	}
	var got Message
	if err := got.Unpack(buf[:n]); err != nil {
		t.Fatal(err)
	}
	if !got.Truncated {
		t.Error("TC bit not set")
	}
	if len(got.Answers) != 0 {
		t.Errorf("kept %d of %d answers, want none", len(got.Answers), len(m.Answers))
	}
	if _, ok := got.OPT(); !ok {
		t.Error("OPT record dropped during truncation")
	}
}

func TestTruncateToNoOpWhenSmall(t *testing.T) {
	m := new(Message)
	m.SetQuestion("small.test.", TypeA)
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, MaxMessageSize)
	n, err := Truncate(buf, copy(buf, wire), MaxUDPSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:n], wire) {
		t.Error("Truncate changed a small message")
	}
	var got Message
	if err := got.Unpack(buf[:n]); err != nil {
		t.Fatal(err)
	}
	if got.Truncated {
		t.Error("TC bit set on small message")
	}
}

// FuzzTruncate holds the in-place cut to the decoded one. For any
// response Pack wrote — answers, authorities, non-OPT additionals, an
// OPT with or without ECS anywhere among them, an extended rcode — and
// any limit from 512 to 4096, Truncate gives exactly the bytes Pack gives
// for the message truncateTo cut, within the limit, and leaves a
// response that fits untouched. For the same response as another server
// might have packed it (upper case, uncompressed, the OPT perhaps not
// under the root), the result is a TC=1 reply within the limit that
// decodes and may be relayed, with no answers or authorities left and
// the original's OPT records under the root as its only additionals.
func FuzzTruncate(f *testing.F) {
	big := make([]byte, 0, 300)
	for i := range 100 {
		big = append(big, 0, byte(i>>8), byte(i)) // 100 answers, A 10.0.0.i
	}
	f.Add([]byte("big"), uint16(flagQR|flagRD), uint16(0), big, uint8(1), uint16(0), false)
	f.Add([]byte("small"), uint16(flagRD), uint16(0), []byte{}, uint8(0), uint16(0), false)
	mixed := []byte{0, 1, 2, 4, 3, 4, 8, 5, 6, 0x21, 7, 8, 1, 9, 9, 13, 2, 3, 2, 8, 9, 0x42, 1, 1, 22, 40, 4, 26, 1, 2, 18, 60, 3}
	mixed = bytes.Repeat(mixed, 12)
	f.Add([]byte("mixed"), uint16(flagQR|flagAA), uint16(0x23), mixed, uint8(2|3<<2), uint16(700), true)
	f.Add([]byte("MiXeD"), uint16(flagQR), uint16(0x8010), mixed, uint8(3|40<<2), uint16(3000), true)
	f.Fuzz(func(t *testing.T, qname []byte, flags, rcode uint16, recs []byte, opt uint8, limit uint16, ownedOPT bool) {
		m := truncateInput(qname, flags, rcode, recs, opt)
		size := 512 + int(limit)%(4096-512+1)
		wire, err := m.Pack()
		if err != nil {
			return
		}
		cut := m.Clone()
		truncateTo(cut, size)
		want, err := cut.Pack()
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, MaxMessageSize)
		n, err := Truncate(buf, copy(buf, wire), size)
		switch {
		case err != nil:
			t.Fatalf("Truncate(%d) of a packed message: %v", size, err)
		case !bytes.Equal(buf[:n], want):
			t.Fatalf("Truncate(%d) != Pack(truncateTo):\n% x\n% x", size, buf[:n], want)
		case n > size:
			t.Fatalf("Truncate(%d) left %d bytes", size, n)
		case len(wire) <= size && !bytes.Equal(buf[:n], wire):
			t.Fatal("Truncate changed a message that fits")
		}

		relayed := packRelayed(t, m, ownedOPT)
		if len(relayed) > MaxMessageSize {
			return
		}
		n, err = Truncate(buf, copy(buf, relayed), size)
		if err != nil {
			t.Fatalf("Truncate(%d) of a relayed image: %v", size, err)
		}
		if len(relayed) <= size {
			if !bytes.Equal(buf[:n], relayed) {
				t.Fatal("Truncate changed a relayed image that fits")
			}
			return
		}
		var orig, got Message
		if err := orig.Unpack(relayed); err != nil {
			t.Fatal(err)
		}
		if err := got.Unpack(buf[:n]); err != nil {
			t.Fatalf("the cut relayed image does not unpack: %v\n% x", err, buf[:n])
		}
		if _, err := PatchOffsets(buf[:n], nil); err != nil && !errors.Is(err, ErrOPTNotLast) {
			t.Fatalf("the cut relayed image may not be relayed: %v", err)
		}
		if n > size || !got.Truncated || got.Question() != orig.Question() || got.Rcode != orig.Rcode {
			t.Fatalf("cut relayed image: %d bytes of %d, TC %v, question %v, rcode %v", n, size, got.Truncated, got.Question(), got.Rcode)
		}
		if len(got.Answers) != 0 || len(got.Authorities) != 0 {
			t.Fatalf("kept %d answers and %d authorities", len(got.Answers), len(got.Authorities))
		}
		var opts []string
		for _, rr := range orig.Additionals {
			if o, ok := rr.(*OPT); ok {
				o.Hdr.Name = "."
				opts = append(opts, o.String())
			}
		}
		if len(got.Additionals) != len(opts) {
			t.Fatalf("additionals %v, want the OPT records only", got.Additionals)
		}
		for i, rr := range got.Additionals {
			if rr.Header().Name != "." || rr.String() != opts[i] {
				t.Fatalf("additional %d is %v, want %s under the root", i, rr, opts[i])
			}
		}
	})
}
