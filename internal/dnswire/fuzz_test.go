//go:build go1.18

package dnswire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net/netip"
	"strings"
	"testing"
)

// Seed corpus: packed forms of representative messages, so the fuzzer
// starts from structurally valid inputs.
func fuzzSeeds(f *testing.F) {
	f.Helper()
	m := new(Message)
	m.SetQuestion("video.demo1.mycdn.ciab.test.", TypeA)
	if wire, err := m.Pack(); err == nil {
		f.Add(wire)
	}
	resp := new(Message)
	resp.SetQuestion("edge.mycdn.ciab.test.", TypeA)
	resp.Response = true
	resp.Answers = []RR{
		&CNAME{Hdr: RRHeader{Name: "edge.mycdn.ciab.test.", Type: TypeCNAME, Class: ClassINET, TTL: 30}, Target: "pop.other.example."},
	}
	resp.SetEDNS(1232)
	if wire, err := resp.Pack(); err == nil {
		f.Add(wire)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0xC0}, 64)) // pointer storm
}

// FuzzMessageUnpack: Unpack must never panic, and anything it accepts
// must re-pack and re-unpack to an equivalent wire form (canonical
// fixed point).
func FuzzMessageUnpack(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		if err := m.Unpack(data); err != nil {
			return
		}
		repacked, err := m.Pack()
		if err != nil {
			// Some accepted messages cannot repack (e.g. extended
			// rcode reconstructed without OPT after section drops);
			// that is allowed, only panics are not.
			return
		}
		var m2 Message
		if err := m2.Unpack(repacked); err != nil {
			t.Fatalf("repacked message does not unpack: %v", err)
		}
		again, err := m2.Pack()
		if err != nil {
			t.Fatalf("second pack failed: %v", err)
		}
		if !bytes.Equal(repacked, again) {
			t.Fatalf("pack not a fixed point:\n% x\n% x", repacked, again)
		}
	})
}

// FuzzTTLPatch: the in-place wire patch helpers (PatchOffsets + AgeTTLs
// + PatchID) must produce bytes identical to the reference path that
// decodes the message, ages each RR TTL, and re-packs. This is the
// invariant the wire-level response cache rests on; FuzzHitPatch in
// internal/dnsserver holds the cache's whole reply routine — flag bits,
// stale clamp and ECS echo included — to the same standard.
func FuzzTTLPatch(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		if err := m.Unpack(data); err != nil {
			return
		}
		wire, err := m.Pack()
		if err != nil {
			return
		}
		img, err := PatchOffsets(wire, nil)
		if errors.Is(err, ErrOPTNotLast) {
			return // well-formed, but not an image a cache may patch
		}
		offsets := img.TTLs
		if err != nil {
			// Pack output must always be walkable; anything Pack
			// emits that PatchOffsets rejects is a bug in one of them.
			t.Fatalf("PatchOffsets rejects packed message: %v\n% x", err, wire)
		}
		for _, age := range []uint32{0, 1, 30, 1 << 20} {
			patched := append([]byte(nil), wire...)
			AgeTTLs(patched, offsets, age)
			PatchID(patched, m.ID^0x5aa5)

			var ref Message
			if err := ref.Unpack(wire); err != nil {
				t.Fatalf("canonical wire does not unpack: %v", err)
			}
			ref.ID = m.ID ^ 0x5aa5
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
				t.Fatalf("reference repack failed: %v", err)
			}
			if !bytes.Equal(patched, refWire) {
				t.Fatalf("age %d: in-place patch != decode-age-repack:\n% x\n% x", age, patched, refWire)
			}
		}
	})
}

// FuzzNameUnpack: name decompression must never panic or over-read, and
// the presentation form it builds is exact: packing it again, without
// compression, gives back the name's wire labels octet for octet.
func FuzzNameUnpack(f *testing.F) {
	f.Add([]byte{3, 'c', 'o', 'm', 0}, 0)
	f.Add([]byte{0xC0, 0x00}, 0)
	f.Add([]byte{1, '*', 0xC0, 0x00}, 2)
	f.Add([]byte{3, 'a', '.', 'b', 2, '\\', 0xFF, 1, ' ', 0, 1, 'x', 0xC0, 0x04}, 10)
	f.Fuzz(func(t *testing.T, data []byte, off int) {
		if off < 0 {
			off = -off
		}
		if len(data) > 0 {
			off %= len(data)
		} else {
			off = 0
		}
		name, end, err := unpackName(data, off)
		if err != nil {
			return
		}
		if end < 0 || end > len(data) {
			t.Fatalf("end %d out of bounds (len %d)", end, len(data))
		}
		var flat []byte // the labels with every pointer followed
		for data[off] != 0 {
			if c := data[off]; c >= 0xC0 {
				off = int(c&0x3F)<<8 | int(data[off+1])
				continue
			}
			flat = append(flat, data[off:off+1+int(data[off])]...)
			off += 1 + int(data[off])
		}
		flat = append(flat, 0)
		repacked, err := packName(nil, name, nil)
		if err != nil {
			t.Fatalf("decoded name %q does not re-pack: %v", name, err)
		}
		if !bytes.Equal(repacked, flat) {
			t.Fatalf("name %q re-packs to % x, was % x", name, repacked, flat)
		}
	})
}

// FuzzNameIntern: a NameIntern never takes back what it handed out.
// data is read as a stream of question names, each a run of labels (a
// length octet, its low six bits, then that many octets) ended by a
// zero length; a length octet with both high bits set instead asks
// again for the name the next octet picks among those asked so far.
// Each query is parsed through one small table, so it is cleared and
// changes chunks often, and through no table at all: the name must be
// what the table-less parse renders, and every string the table ever
// returned must still read as it did when returned.
func FuzzNameIntern(f *testing.F) {
	f.Add([]byte{3, 'w', 'w', 'w', 4, 't', 'e', 's', 't', 0, 0xC0, 0})
	f.Add([]byte{3, 'W', 'w', 'W', 4, 'T', 'e', 'S', 't', 0, 3, 'a', '.', 'b', 0, 0xC0, 0, 0xC0, 1})
	f.Add([]byte{2, '\\', 0xFF, 1, ' ', 0, 1, 'Z', 0, 0, 0xC0, 2, 63})
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl := NewNameIntern(3)
		var asked [][]byte
		type returned struct{ s, was string }
		var given []returned
		var m, ref Message
		for len(data) > 0 {
			var qname []byte
			if data[0]&0xC0 == 0xC0 && len(data) > 1 && len(asked) > 0 {
				qname = asked[int(data[1])%len(asked)]
				data = data[2:]
			} else {
				for len(data) > 0 {
					n := int(data[0] & 0x3F)
					data = data[1:]
					if n == 0 {
						break
					}
					n = min(n, len(data))
					qname = append(append(qname, byte(n)), data[:n]...)
					data = data[n:]
				}
				qname = append(qname, 0)
				asked = append(asked, qname)
			}
			pkt := append([]byte{0x12, 0x34, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}, qname...)
			pkt = append(pkt, 0, 1, 0, 1)
			err, refErr := m.UnpackQuery(pkt, tbl), ref.Unpack(pkt)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("% x: through the table err = %v, without err = %v", qname, err, refErr)
			}
			if err == nil {
				name := m.Questions[0].Name
				if want := ref.Questions[0].Name; name != want {
					t.Fatalf("% x: table gives %q; the parse renders %q", qname, name, want)
				}
				given = append(given, returned{name, strings.Clone(name)})
			}
			for _, g := range given {
				if g.s != g.was {
					t.Fatalf("a string the table returned as %q now reads %q", g.was, g.s)
				}
			}
		}
	})
}

// referenceLifetime is Image.TTL read off the decoded message instead.
func referenceLifetime(m *Message) uint32 {
	if len(m.Answers) > 0 {
		ttl := uint32(1<<32 - 1)
		for _, rr := range m.Answers {
			if rr.Header().Type != TypeOPT {
				ttl = min(ttl, rr.Header().TTL)
			}
		}
		return ttl
	}
	for _, rr := range m.Authorities {
		if soa, ok := rr.(*SOA); ok {
			return min(soa.Hdr.TTL, soa.MinTTL)
		}
	}
	return 0
}

// FuzzResponseWalk: a response PatchOffsets accepts is relayed to
// clients and stored without being decoded, so the walk's accept set
// must lie inside Unpack's, and what it reads off the bytes must be
// what Unpack would have said: header, question, rcode, lifetime, ECS
// scope, and a TTL offset for exactly the non-OPT records. (A response
// it reports ErrOPTNotLast for is relayed too, only never stored.)
func FuzzResponseWalk(f *testing.F) {
	fuzzSeeds(f)
	for _, v := range packVectors() {
		if wire, err := v.msg.Pack(); err == nil && len(wire) < 600 {
			f.Add(wire)
		}
	}
	for _, bad := range hostileReplies() {
		f.Add(bad)
	}
	notLast := routerReply()
	notLast.Additionals = append(notLast.Additionals, notLast.Answers[0])
	if wire, err := notLast.Pack(); err == nil {
		f.Add(wire)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := PatchOffsets(data, nil)
		if err != nil && !errors.Is(err, ErrOPTNotLast) {
			return
		}
		var m Message
		if uerr := m.Unpack(data); uerr != nil {
			t.Fatalf("walk accepts (%v) what Unpack refuses: %v\n% x", err, uerr, data)
		}
		flags := binary.BigEndian.Uint16(data[2:])
		if m.ID != binary.BigEndian.Uint16(data) || m.Response != (flags&flagQR != 0) || m.Truncated != (flags&flagTC != 0) {
			t.Fatalf("header bytes % x decode to id %d qr %v tc %v", data[:4], m.ID, m.Response, m.Truncated)
		}
		if len(m.Questions) > 0 {
			name, end, err := unpackName(data, 12)
			if q := m.Questions[0]; err != nil || name != q.Name ||
				Type(binary.BigEndian.Uint16(data[end:])) != q.Type || Class(binary.BigEndian.Uint16(data[end+2:])) != q.Class {
				t.Fatalf("question at offset 12 is %q (%v), Unpack says %v", name, err, q)
			}
		}
		if img.Rcode != m.Rcode || img.Answers != len(m.Answers) {
			t.Fatalf("walk: rcode %v, %d answers; Unpack: %v, %d", img.Rcode, img.Answers, m.Rcode, len(m.Answers))
		}
		if want := referenceLifetime(&m); img.TTL != want {
			t.Fatalf("walk: lifetime %d; from the message: %d\n% x", img.TTL, want, data)
		}
		ecs, hasECS := m.ECS()
		var scope uint8
		if hasECS {
			scope = ecs.ScopePrefix
		}
		if img.Scope != scope || (img.ECS != ECSAt{}) != hasECS {
			t.Fatalf("walk: scope %d at %+v; Unpack: ECS %v, scope %d", img.Scope, img.ECS, hasECS, scope)
		}
		if _, hasOPT := m.OPT(); (img.OPT != 0) != hasOPT {
			t.Fatalf("walk: OPT at %d; Unpack: OPT %v", img.OPT, hasOPT)
		} else if hasOPT {
			if end, err := scanName(data, img.OPT); err != nil || Type(binary.BigEndian.Uint16(data[end:])) != TypeOPT {
				t.Fatalf("walk: no OPT record at %d (%v)", img.OPT, err)
			}
			if last := err == nil; last && len(m.Additionals) > 0 && m.Additionals[len(m.Additionals)-1].Header().Type != TypeOPT {
				t.Fatalf("walk: records follow the OPT, yet no ErrOPTNotLast")
			}
		}
		i := 0
		for _, section := range [][]RR{m.Answers, m.Authorities, m.Additionals} {
			for _, rr := range section {
				if rr.Header().Type == TypeOPT {
					continue
				}
				if i >= len(img.TTLs) || binary.BigEndian.Uint32(data[img.TTLs[i]:]) != rr.Header().TTL {
					t.Fatalf("TTL offset %d of %v does not read %v's TTL", i, img.TTLs, rr)
				}
				i++
			}
		}
		if i != len(img.TTLs) {
			t.Fatalf("%d TTL offsets for %d non-OPT records", len(img.TTLs), i)
		}
	})
}

// FuzzEchoECS is the differential test of EchoECS on arbitrary stored
// images: for any response whose ECS-bearing OPT PatchOffsets locates
// (the image a cache keeps) and any query option — either family, any
// source length, clamped by ClampSource or not — the bytes EchoECS
// makes of the packed response are those Pack makes of the decoded one
// with its option replaced by what the client sent, the response's
// scope kept; and where that edit does not pack, EchoECS fails too. On
// the image as it arrived, whose compression is the sender's, the
// result decodes and repacks to those same bytes.
func FuzzEchoECS(f *testing.F) {
	seed := func(m *Message) []byte {
		wire, err := m.Pack()
		if err != nil {
			f.Fatal(err)
		}
		return wire
	}
	padded := routerReply()
	opt, _ := padded.OPT()
	opt.Options = append([]EDNSOption{&GenericOption{OptCode: OptionCodeCookie, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}},
		append(opt.Options, &GenericOption{OptCode: OptionCodePadding, Data: make([]byte, 7)})...)
	v6 := routerReply()
	ecs, _ := v6.ECS()
	*ecs = ECSOption{Family: 2, SourcePrefix: 56, ScopePrefix: 48, Address: netip.MustParseAddr("2001:db8:7::")}
	addr := []byte{10, 1, 2, 255, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5, 6, 7, 8}
	for _, wire := range [][]byte{seed(routerReply()), seed(padded), seed(v6)} {
		for _, src := range []uint8{0, 7, 24, 32, 56, 128} {
			f.Add(wire, false, src, false, addr)
			f.Add(wire, true, src, true, addr)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, v6 bool, source uint8, clamp bool, addr []byte) {
		var arrived Message
		if err := arrived.Unpack(data); err != nil {
			return
		}
		// The option as the client sent it, normalized, and the query's.
		var a16 [16]byte
		copy(a16[:], addr)
		sent := ECSOption{Family: 1, SourcePrefix: source % 33, Address: netip.AddrFrom4([4]byte(a16[:4]))}
		if v6 {
			sent = ECSOption{Family: 2, SourcePrefix: source % 129, Address: netip.AddrFrom16(a16)}
		}
		sent.NormalizeQuery()
		q := sent
		if clamp {
			q.ClampSource(24, 56)
		}
		// oracle replaces the decoded response's option with sent, scope
		// kept, and packs it.
		oracle := func(image []byte) ([]byte, error) {
			var m Message
			if err := m.Unpack(image); err != nil {
				t.Fatalf("an image that unpacked once does not: %v", err)
			}
			recs, ok := m.ECS()
			if !ok {
				t.Fatal("the walk located an ECS option Unpack does not see")
			}
			scope := recs.ScopePrefix
			*recs = sent
			recs.ScopePrefix = scope
			return m.Pack()
		}
		echo := func(image []byte) ([]byte, error) {
			img, err := PatchOffsets(image, nil)
			if err != nil || img.ECS == (ECSAt{}) {
				return nil, errNoECS
			}
			buf := make([]byte, MaxMessageSize)
			n, err := EchoECS(buf, copy(buf, image), img.ECS, &q)
			return buf[:n], err
		}
		packed, err := arrived.Pack()
		if err != nil {
			return
		}
		got, err := echo(packed)
		if errors.Is(err, errNoECS) {
			return
		}
		want, oerr := oracle(packed)
		switch {
		case oerr != nil && err == nil:
			t.Fatalf("EchoECS succeeds where the edited message does not pack (%v):\n% x", oerr, got)
		case oerr != nil:
			return
		case err != nil:
			t.Fatalf("EchoECS fails (%v) where the edited message packs:\n% x", err, want)
		case !bytes.Equal(got, want):
			t.Fatalf("EchoECS != decode → edit → Pack:\n% x\n% x", got, want)
		}
		if got, err = echo(data); errors.Is(err, errNoECS) {
			return
		} else if err != nil {
			t.Fatalf("EchoECS fails on the arrived image (%v) but not on its repack", err)
		}
		var m Message
		if err := m.Unpack(got); err != nil {
			t.Fatalf("the arrived image, echoed, does not unpack: %v\n% x", err, got)
		}
		if repacked, err := m.Pack(); err != nil || !bytes.Equal(repacked, want) {
			t.Fatalf("the arrived image echoes differently from its repack (%v):\n% x\n% x", err, repacked, want)
		}
	})
}

// errNoECS marks a FuzzEchoECS input without an image EchoECS patches.
var errNoECS = errors.New("no ECS option to echo")
