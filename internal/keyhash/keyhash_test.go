package keyhash

import "testing"

// The vectors were captured from the ring's and the digest's own
// hand-rolled loops before they were folded into this package.
func TestSum64Pinned(t *testing.T) {
	for key, want := range map[string]uint64{
		"":                       0xefd01f60ba992926,
		"a":                      0x82a2a958a9bece5b,
		"video.mycdn.ciab.test.": 0x53df83871d1f1524,
		"seg-0042-3.cdn.test.":   0x9e5c3dc3ce63fe15,
		"cache-a#0":              0x9cac826d434bbb11,
	} {
		if got := Sum64(key); got != want {
			t.Errorf("Sum64(%q) = %#x, want %#x", key, got, want)
		}
		if got := Sum64([]byte(key)); got != want {
			t.Errorf("Sum64([]byte(%q)) = %#x, want %#x", key, got, want)
		}
	}
}

func TestSum64DoesNotAllocate(t *testing.T) {
	key := []byte("video.mycdn.ciab.test.")
	var sink uint64
	if n := testing.AllocsPerRun(100, func() { sink += Sum64(key) + Sum64("video.mycdn.ciab.test.") }); n != 0 {
		t.Errorf("Sum64 allocates %v times per call pair", n)
	}
	_ = sink
}
