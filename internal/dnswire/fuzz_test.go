//go:build go1.18

package dnswire

import (
	"bytes"
	"encoding/binary"
	"errors"
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
