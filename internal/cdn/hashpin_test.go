package cdn

import (
	"fmt"
	"reflect"
	"testing"
)

// TestRingHashPinned pins ring placement to vectors captured before
// the ring's hash moved into internal/keyhash: the sorted virtual-node
// points of a two-member ring and the modulo baseline's pick. A moved
// point silently remaps content between caches, so these must stay
// bit-identical across any refactor of the hash.
func TestRingHashPinned(t *testing.T) {
	r := NewHashRing()
	r.Replicas = 4
	r.Add("cache-a")
	r.Add("cache-b")
	var got []string
	for _, p := range r.snapshot().ring {
		got = append(got, fmt.Sprintf("%016x:%d", p.hash, p.idx))
	}
	want := []string{
		"0b87c7cf88ef56cc:0", "27b7ed26f13b9a6a:0", "8331d4420830c943:1", "83d56f71e1ec6885:1",
		"9cac826d434bbb11:0", "c56d6fc7c4f5a593:1", "d340cfbcf4fd6650:1", "d7d3440bc272c933:0",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ring points moved:\n got %q\nwant %q", got, want)
	}
	for key, owner := range map[string]string{"": "cache-a", "a": "cache-b", "video.mycdn.ciab.test.": "cache-b"} {
		if got := r.Owner(key); got != owner {
			t.Errorf("Owner(%q) = %s, want %s", key, got, owner)
		}
	}
	mp := &ModuloPlacement{}
	mp.Add("cache-a")
	mp.Add("cache-b")
	mp.Add("cache-c")
	if got := mp.Owner("video.mycdn.ciab.test."); got != "cache-c" {
		t.Errorf("modulo owner = %s, want cache-c", got)
	}
}
