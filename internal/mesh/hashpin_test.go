package mesh

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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

// digestPin1000 is the SHA-256 of the default-size bitmap for
// seg-0000 … seg-0999.video.cdn.test. Peers decode each other's
// bitmaps, so the bytes a given name set produces must never change.
const digestPin1000 = "60ffa1c97cad8f122680af8c3a329f441ccae2a47f4a0603d2ccf5b51f2d57f5"

func TestDigestBitmapPinned(t *testing.T) {
	d := NewDigest(DefaultDigestBits, DefaultDigestHashes)
	for i := 0; i < 1000; i++ {
		d.Add(fmt.Sprintf("seg-%04d.video.cdn.test.", i))
	}
	bitmap := d.Bitmap()
	if len(bitmap) != DefaultDigestBits/8 {
		t.Fatalf("bitmap is %d bytes, want %d", len(bitmap), DefaultDigestBits/8)
	}
	if sum := sha256.Sum256(bitmap); hex.EncodeToString(sum[:]) != digestPin1000 {
		t.Errorf("bitmap sha256 = %x, want %s", sum, digestPin1000)
	}
}
