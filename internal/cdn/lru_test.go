package cdn

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestLRUBasicHitMiss(t *testing.T) {
	l := NewLRU(100)
	if _, ok := l.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	l.Put(Content{Name: "a", Size: 10})
	if obj, ok := l.Get("a"); !ok || obj.Size != 10 {
		t.Fatalf("get a = %v %v", obj, ok)
	}
	s := l.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Objects != 1 || s.UsedBytes != 10 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	l := NewLRU(30)
	l.Put(Content{Name: "a", Size: 10})
	l.Put(Content{Name: "b", Size: 10})
	l.Put(Content{Name: "c", Size: 10})
	l.Get("a") // a becomes most recent
	l.Put(Content{Name: "d", Size: 10})
	if l.Contains("b") {
		t.Error("b should be evicted (least recent)")
	}
	if !l.Contains("a") || !l.Contains("c") || !l.Contains("d") {
		t.Error("wrong eviction victim")
	}
	if s := l.Stats(); s.Evictions != 1 {
		t.Errorf("evictions = %d", s.Evictions)
	}
}

func TestLRUUpdateSize(t *testing.T) {
	l := NewLRU(100)
	l.Put(Content{Name: "a", Size: 10})
	l.Put(Content{Name: "a", Size: 50})
	if s := l.Stats(); s.UsedBytes != 50 || s.Objects != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUOversizedObjectRejected(t *testing.T) {
	l := NewLRU(100)
	l.Put(Content{Name: "huge", Size: 200})
	if l.Contains("huge") {
		t.Error("oversized object stored")
	}
	if s := l.Stats(); s.UsedBytes != 0 {
		t.Errorf("used = %d", s.UsedBytes)
	}
}

func TestLRUContainsDoesNotTouchStats(t *testing.T) {
	l := NewLRU(100)
	l.Put(Content{Name: "a", Size: 1})
	l.Contains("a")
	l.Contains("b")
	if s := l.Stats(); s.Hits != 0 || s.Misses != 0 {
		t.Errorf("Contains affected stats: %+v", s)
	}
}

func TestLRUCapacityInvariantProperty(t *testing.T) {
	f := func(ops []struct {
		Name byte
		Size uint16
	}) bool {
		l := NewLRU(1000)
		for _, op := range ops {
			l.Put(Content{Name: fmt.Sprintf("obj-%d", op.Name), Size: int64(op.Size)})
			if s := l.Stats(); s.UsedBytes > 1000 {
				return false
			}
		}
		// UsedBytes must equal the sum of resident object sizes.
		s := l.Stats()
		var sum int64
		for i := 0; i < 256; i++ {
			if obj, ok := l.Get(fmt.Sprintf("obj-%d", i)); ok {
				sum += obj.Size
			}
		}
		return sum == s.UsedBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHashRingOwnership(t *testing.T) {
	r := NewHashRing()
	if r.Owner("x") != "" {
		t.Error("empty ring returned owner")
	}
	for i := 0; i < 5; i++ {
		r.Add(fmt.Sprintf("server-%d", i))
	}
	r.Add("server-0") // idempotent
	if got := len(r.Members()); got != 5 {
		t.Fatalf("members = %d", got)
	}
	owner := r.Owner("video-0001")
	if owner == "" {
		t.Fatal("no owner")
	}
	// Stable across calls.
	for i := 0; i < 10; i++ {
		if r.Owner("video-0001") != owner {
			t.Fatal("owner not stable")
		}
	}
	owners := r.OwnersAppend(nil, "video-0001", 3)
	if len(owners) != 3 || owners[0] != owner {
		t.Errorf("owners = %v", owners)
	}
	seen := map[string]bool{}
	for _, o := range owners {
		if seen[o] {
			t.Error("duplicate owner")
		}
		seen[o] = true
	}
	if got := r.OwnersAppend(nil, "video-0001", 10); len(got) != 5 {
		t.Errorf("owners capped at member count: %v", got)
	}
}

func TestHashRingBalance(t *testing.T) {
	r := NewHashRing()
	const servers = 8
	for i := 0; i < servers; i++ {
		r.Add(fmt.Sprintf("server-%d", i))
	}
	counts := make(map[string]int)
	const keys = 8000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("key-%d", i))]++
	}
	want := keys / servers
	for s, c := range counts {
		if c < want/3 || c > want*3 {
			t.Errorf("%s owns %d keys, want ≈%d", s, c, want)
		}
	}
}

func TestHashRingMinimalDisruption(t *testing.T) {
	r := NewHashRing()
	for i := 0; i < 10; i++ {
		r.Add(fmt.Sprintf("server-%d", i))
	}
	const keys = 2000
	before := make(map[string]string, keys)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%d", i)
		before[k] = r.Owner(k)
	}
	r.Remove("server-3")
	moved := 0
	for k, owner := range before {
		if owner != "server-3" && r.Owner(k) != owner {
			moved++
		}
	}
	// Consistent hashing: removing one of ten servers must not move
	// keys between surviving servers.
	if moved != 0 {
		t.Errorf("%d keys moved between surviving servers", moved)
	}
}
