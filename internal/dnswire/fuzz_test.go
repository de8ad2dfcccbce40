//go:build go1.18

package dnswire

import (
	"bytes"
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
		offsets, _, err := PatchOffsets(wire)
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

// FuzzNameUnpack: name decompression must never panic or over-read.
func FuzzNameUnpack(f *testing.F) {
	f.Add([]byte{3, 'c', 'o', 'm', 0}, 0)
	f.Add([]byte{0xC0, 0x00}, 0)
	f.Add([]byte{1, '*', 0xC0, 0x00}, 2)
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
		// Decoded names must re-encode.
		if _, err := packName(nil, name, nil); err != nil {
			t.Fatalf("decoded name %q does not re-pack: %v", name, err)
		}
	})
}
