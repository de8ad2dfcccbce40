package cdn

import (
	"fmt"
	"testing"
)

func TestHashRingOwnersExceedingMembers(t *testing.T) {
	r := NewHashRing()
	if got := r.OwnersAppend(nil, "key", 3); got != nil {
		t.Fatalf("empty ring OwnersAppend = %v, want nil", got)
	}
	r.Add("a")
	r.Add("b")
	for _, n := range []int{2, 3, 100} {
		got := r.OwnersAppend(nil, "key", n)
		if len(got) != 2 {
			t.Fatalf("OwnersAppend(key, %d) with 2 members = %v, want both members", n, got)
		}
		if got[0] == got[1] {
			t.Fatalf("OwnersAppend(key, %d) duplicated a member: %v", n, got)
		}
	}
	if got := r.OwnersAppend(nil, "key", 0); got != nil {
		t.Fatalf("OwnersAppend(key, 0) = %v, want nil", got)
	}
}

func TestHashRingRemoveAbsentMember(t *testing.T) {
	r := NewHashRing()
	for i := 0; i < 4; i++ {
		r.Add(fmt.Sprintf("server-%d", i))
	}
	before := make(map[string]string)
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key-%d", i)
		before[k] = r.Owner(k)
	}
	r.Remove("never-added")
	r.Remove("never-added") // twice: still a no-op
	if got := len(r.Members()); got != 4 {
		t.Fatalf("members after absent Remove = %d, want 4", got)
	}
	for k, owner := range before {
		if r.Owner(k) != owner {
			t.Fatalf("removing an absent member moved key %s: %s -> %s", k, owner, r.Owner(k))
		}
	}
	// Remove on an empty ring is equally harmless.
	e := NewHashRing()
	e.Remove("ghost")
	if e.Owner("x") != "" {
		t.Fatal("empty ring returned an owner after absent Remove")
	}
}
