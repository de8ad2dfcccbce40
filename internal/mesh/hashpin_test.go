package mesh

import (
	"encoding/hex"
	"testing"
)

// TestDigestHashPinned pins the Kirsch–Mitzenmacher pair and a packed
// digest bitmap to vectors captured before the hash moved into
// internal/keyhash. Mesh peers test names against each other's
// bitmaps, so every site must keep deriving the same bits.
func TestDigestHashPinned(t *testing.T) {
	for _, tc := range []struct {
		name   string
		h1, h2 uint64
	}{
		{"", 0xefd01f60ba992926, 0xe08b237d90792b43},
		{"a", 0x82a2a958a9bece5b, 0x3b0707c4ad760417},
		{"video.mycdn.ciab.test.", 0x53df83871d1f1524, 0x8c1f19b0612aec93},
		{"seg-0042-3.cdn.test.", 0x9e5c3dc3ce63fe15, 0x9c50fdb8f3ad341d},
	} {
		if h1, h2 := digestHash(tc.name); h1 != tc.h1 || h2 != tc.h2 {
			t.Errorf("digestHash(%q) = %#x, %#x, want %#x, %#x", tc.name, h1, h2, tc.h1, tc.h2)
		}
	}
	d := NewDigest(MinDigestBits, 4)
	for _, name := range []string{"a", "video.mycdn.ciab.test.", "seg-0042-3.cdn.test."} {
		d.Add(name)
	}
	if got := hex.EncodeToString(d.Bitmap()); got != "0086202811108400" {
		t.Errorf("bitmap = %s, want 0086202811108400", got)
	}
}
