package mesh

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func testBitmap(names ...string) ([]byte, int) {
	d := NewDigest(512, 4)
	for _, n := range names {
		d.Add(n)
	}
	return d.Bitmap(), d.Hashes()
}

func TestAnnounceRoundTrip(t *testing.T) {
	bitmap, k := testBitmap("seg-0001", "seg-0002")
	payload, err := EncodeAnnounce("mec-east", "10.1.0.5", 7, 2, 0.42, k, bitmap)
	if err != nil {
		t.Fatal(err)
	}
	ann, err := DecodeAnnounce(payload)
	if err != nil {
		t.Fatal(err)
	}
	if ann.Site != "mec-east" || ann.Addr != "10.1.0.5" || ann.Gen != 7 || ann.Entries != 2 {
		t.Fatalf("decoded %+v", ann)
	}
	if ann.Load < 0.41 || ann.Load > 0.43 {
		t.Fatalf("load %v, want ~0.42", ann.Load)
	}
	if !ann.Filter.Contains("seg-0001") || !ann.Filter.Contains("seg-0002") {
		t.Fatal("decoded filter lost entries")
	}
	if ann.Filter.Bits() != 512 {
		t.Fatalf("filter bits %d, want 512", ann.Filter.Bits())
	}
}

func TestEncodeAnnounceRejects(t *testing.T) {
	bitmap, k := testBitmap()
	long := string(bytes.Repeat([]byte("x"), MaxNameLen+1))
	cases := []struct {
		name string
		err  func() error
	}{
		{"empty site", func() error { _, e := EncodeAnnounce("", "", 1, 0, 0, k, bitmap); return e }},
		{"long site", func() error { _, e := EncodeAnnounce(long, "", 1, 0, 0, k, bitmap); return e }},
		{"long addr", func() error { _, e := EncodeAnnounce("s", long, 1, 0, 0, k, bitmap); return e }},
		{"neg entries", func() error { _, e := EncodeAnnounce("s", "", 1, -1, 0, k, bitmap); return e }},
		{"huge entries", func() error { _, e := EncodeAnnounce("s", "", 1, MaxEntries+1, 0, k, bitmap); return e }},
		{"tiny bitmap", func() error { _, e := EncodeAnnounce("s", "", 1, 0, 0, k, make([]byte, 4)); return e }},
		{"bad k", func() error { _, e := EncodeAnnounce("s", "", 1, 0, 0, 0, bitmap); return e }},
	}
	for _, c := range cases {
		if c.err() == nil {
			t.Errorf("%s: encode accepted", c.name)
		}
	}
}

// TestDecodeAnnounceMalformed drives the decoder with truncations at
// every length plus targeted field corruptions; none may panic and all
// must error.
func TestDecodeAnnounceMalformed(t *testing.T) {
	bitmap, k := testBitmap("seg-0001")
	good, err := EncodeAnnounce("mec-east", "10.1.0.5", 3, 1, 0.5, k, bitmap)
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix of a valid datagram must be rejected.
	for i := 0; i < len(good); i++ {
		if _, err := DecodeAnnounce(good[:i]); err == nil {
			t.Fatalf("decoder accepted %d-byte truncation", i)
		}
	}
	// Trailing garbage breaks the exact-length bitmap contract.
	if _, err := DecodeAnnounce(append(append([]byte{}, good...), 0xff)); err == nil {
		t.Fatal("decoder accepted trailing garbage")
	}
	corrupt := func(mut func(b []byte)) []byte {
		b := append([]byte{}, good...)
		mut(b)
		return b
	}
	base := len(AnnouncePrefix)
	cases := []struct {
		name string
		b    []byte
	}{
		{"bad verb", []byte("BOGUS " + string(good))},
		{"bad version", corrupt(func(b []byte) { b[base] = 99 })},
		{"zero site len", corrupt(func(b []byte) { b[base+5] = 0 })},
		{"site len overruns", corrupt(func(b []byte) { b[base+5] = 255 })},
		{"addr len overruns", corrupt(func(b []byte) { b[base+5+1+8] = 255 })},
	}
	for _, c := range cases {
		if _, err := DecodeAnnounce(c.b); err == nil {
			t.Errorf("%s: decoder accepted", c.name)
		}
	}
	// Random flips must never panic (errors are fine; some flips land
	// in the bitmap and still decode).
	for i := range good {
		for _, bit := range []byte{0x01, 0x80} {
			b := append([]byte{}, good...)
			b[i] ^= bit
			DecodeAnnounce(b)
		}
	}
}

func TestDigestAckRoundTrip(t *testing.T) {
	gen, ok := DecodeDigestAck(EncodeDigestAck(4294967295))
	if !ok || gen != 4294967295 {
		t.Fatalf("ack round trip: gen=%d ok=%v", gen, ok)
	}
	if _, ok := DecodeDigestAck([]byte("PONG")); ok {
		t.Fatal("accepted non-ack")
	}
	if _, ok := DecodeDigestAck([]byte("DIGEST banana")); ok {
		t.Fatal("accepted non-numeric ack")
	}
}

func TestGenNewer(t *testing.T) {
	cases := []struct {
		a, b uint32
		want bool
	}{
		{2, 1, true},
		{1, 2, false},
		{1, 1, false},
		{0, 4294967295, true}, // wrap
		{4294967295, 0, false},
	}
	for _, c := range cases {
		if got := genNewer(c.a, c.b); got != c.want {
			t.Errorf("genNewer(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// bitmapOf is the wire bitmap f was built from.
func bitmapOf(f Filter) []byte {
	b := make([]byte, 0, len(f.words)*8)
	for _, w := range f.words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// FuzzAnnounceRoundTrip holds the ANNOUNCE codec to being one format
// read two ways. Every payload DecodeAnnounce accepts re-encodes to
// itself, byte for byte: nothing is accepted that the encoder would not
// have written, and nothing read is lost. And every field set
// EncodeAnnounce accepts decodes back to itself, the load included at
// its wire precision of one permille.
func FuzzAnnounceRoundTrip(f *testing.F) {
	bitmap, k := testBitmap("seg-0001", "seg-0002")
	good, err := EncodeAnnounce("mec-east", "10.1.0.5", 7, 2, 0.42, k, bitmap)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good, "mec-east", "10.1.0.5", uint32(7), uint32(2), uint16(420), uint8(k), bitmap)
	f.Add(good[:len(good)-1], "s", "", uint32(1<<31), uint32(MaxEntries), uint16(1000), uint8(MaxDigestHashes), make([]byte, 8))
	f.Add([]byte(AnnouncePrefix), "", "x", uint32(0), uint32(MaxEntries+1), uint16(1001), uint8(0), []byte{1})
	f.Fuzz(func(t *testing.T, payload []byte, site, addr string, gen, entries uint32, permille uint16, k uint8, bitmap []byte) {
		if a, err := DecodeAnnounce(payload); err == nil {
			again, err := EncodeAnnounce(a.Site, a.Addr, a.Gen, a.Entries, a.Load, a.Filter.k, bitmapOf(a.Filter))
			if err != nil || !bytes.Equal(again, payload) {
				t.Fatalf("accepted % x, which re-encodes to % x (%v)", payload, again, err)
			}
		}
		load := float64(permille%1001) / 1000
		wire, err := EncodeAnnounce(site, addr, gen, int(entries), load, int(k), bitmap)
		if err != nil {
			return
		}
		a, err := DecodeAnnounce(wire)
		if err != nil {
			t.Fatalf("EncodeAnnounce wrote % x, which does not decode: %v", wire, err)
		}
		if a.Site != site || a.Addr != addr || a.Gen != gen || a.Entries != int(entries) || a.Load != load ||
			a.Filter.k != int(k) || !bytes.Equal(bitmapOf(a.Filter), bitmap) {
			t.Fatalf("decoded %+v from the encoding of (%q, %q, %d, %d, %v, %d, % x)", a, site, addr, gen, entries, load, k, bitmap)
		}
	})
}
