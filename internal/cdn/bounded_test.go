package cdn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestBoundedLoadInvariant is the property test for consistent
// hashing with bounded loads: under randomized add/remove/lookup
// churn, no member's load counter ever exceeds ⌈c·(total+1)/members⌉
// at the instant its assignment lands.
func TestBoundedLoadInvariant(t *testing.T) {
	for _, c := range []float64{1.1, 1.25, 2.0} {
		c := c
		t.Run(fmt.Sprintf("c=%v", c), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(c * 1000)))
			ring := NewHashRing()
			ring.replicas = 64
			ring.Bounded = true
			ring.loadFactor = c
			live := map[string]bool{}
			for i := 0; i < 4; i++ {
				m := fmt.Sprintf("m-%02d", i)
				ring.Add(m)
				live[m] = true
			}
			nextID := 4
			for step := 0; step < 20000; step++ {
				switch r := rng.Float64(); {
				case r < 0.005 && len(live) < 24:
					m := fmt.Sprintf("m-%02d", nextID)
					nextID++
					ring.Add(m)
					live[m] = true
				case r < 0.01 && len(live) > 2:
					for m := range live {
						ring.Remove(m)
						delete(live, m)
						break
					}
				case r < 0.02:
					ring.DecayLoads(rng.Float64())
				default:
					owner := ring.Owner(fmt.Sprintf("key-%d", rng.Intn(512)))
					if owner == "" {
						t.Fatal("empty owner on non-empty ring")
					}
					if !live[owner] {
						t.Fatalf("owner %s not a live member", owner)
					}
					// Cap as of before this assignment lands.
					capLoad := int64(math.Ceil(c * float64(ring.totalForTest()+1) / float64(len(live))))
					ring.RecordLoad(owner)
					if got := ring.Load(owner); got > capLoad {
						t.Fatalf("step %d: member %s load %d exceeds cap %d (c=%v, members=%d)",
							step, owner, got, capLoad, c, len(live))
					}
				}
			}
			// The aggregate invariant: max/mean ≤ c + one-assignment
			// slack (the +1 in the cap formula).
			max, mean := ring.LoadStats()
			if mean > 0 && float64(max) > c*mean+c {
				t.Errorf("final spread %0.2f/%0.2f exceeds c=%v", float64(max), mean, c)
			}
		})
	}
}

// totalForTest exposes the total-load mirror to the property test.
func (r *HashRing) totalForTest() int64 { return r.total.Load() }

// TestBoundedSpillDeterminism: with the snapshot and the load cells
// frozen, the bounded owner is a pure function of the key.
func TestBoundedSpillDeterminism(t *testing.T) {
	ring := NewHashRing()
	ring.Bounded = true
	for i := 0; i < 8; i++ {
		ring.Add(fmt.Sprintf("m-%d", i))
	}
	// Saturate a few members so lookups actually spill.
	for i := 0; i < 200; i++ {
		ring.RecordLoad(fmt.Sprintf("m-%d", i%3))
	}
	if ring.Spills() != 0 {
		t.Fatal("RecordLoad alone must not spill")
	}
	first := make(map[string]string)
	for round := 0; round < 5; round++ {
		for k := 0; k < 256; k++ {
			key := fmt.Sprintf("key-%d", k)
			owner := ring.Owner(key)
			if round == 0 {
				first[key] = owner
			} else if first[key] != owner {
				t.Fatalf("key %s: owner %s on round %d, was %s (loads unchanged)",
					key, owner, round, first[key])
			}
		}
	}
	if ring.Spills() == 0 {
		t.Error("no lookup spilled off the saturated members")
	}
}

// TestBoundedCapRelaxesOnMemberLoss: removing members raises the
// per-member cap (mean load is over current members only), so a
// previously saturated member can become an owner again without any
// decay.
func TestBoundedCapRelaxesOnMemberLoss(t *testing.T) {
	ring := NewHashRing()
	ring.Bounded = true
	members := []string{"a", "b", "c", "d"}
	for _, m := range members {
		ring.Add(m)
	}
	// Load "a" to exactly the 4-member cap so it rejects new keys.
	for i := 0; i < 100; i++ {
		for _, m := range members {
			ring.RecordLoad(m)
		}
	}
	sat := func() bool {
		s := ring.state.Load()
		return ring.Load("a") >= s.capacity(ring.factor(), ring.total.Load())
	}
	// Push "a" past the 4-member cap (the cap grows with total, so
	// this converges once a's share beats c/members of the stream).
	for i := 0; i < 10000 && !sat(); i++ {
		ring.RecordLoad("a")
	}
	if !sat() {
		t.Fatalf("setup: a not saturated (load %d)", ring.Load("a"))
	}
	before := ring.Load("a")
	ring.Remove("b")
	ring.Remove("c")
	// Cap over 2 members: ceil(1.25*(total+1)/2) — far above a's load.
	if sat() {
		s := ring.state.Load()
		t.Fatalf("cap did not relax: a load %d, cap %d after member loss",
			ring.Load("a"), s.capacity(ring.factor(), ring.total.Load()))
	}
	// And a's counter survived the rebuilds.
	if ring.Load("a") != before {
		t.Fatalf("a's load cell changed across rebuild: %d, want %d", ring.Load("a"), before)
	}
}

// TestBoundedChurnRace hammers the ring from concurrent lookup,
// record, decay, and membership goroutines; run with -race this is
// the data-race certification for the shared load cells.
func TestBoundedChurnRace(t *testing.T) {
	ring := NewHashRing()
	ring.replicas = 32
	ring.Bounded = true
	for i := 0; i < 8; i++ {
		ring.Add(fmt.Sprintf("m-%d", i))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var buf [4]string
			for i := 0; i < 5000; i++ {
				owners := ring.OwnersAppend(buf[:0], fmt.Sprintf("key-%d-%d", id, i%64), 2)
				if len(owners) > 0 {
					ring.RecordLoad(owners[0])
				}
				ring.LoadStats()
				ring.LoadSpread()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			ring.Remove(fmt.Sprintf("m-%d", i%4))
			ring.Add(fmt.Sprintf("m-%d", i%4))
			if i%10 == 0 {
				ring.DecayLoads(0.5)
			}
		}
	}()
	wg.Wait()
	if n := ring.NumMembers(); n != 8 {
		t.Fatalf("members after churn: %d", n)
	}
}

// TestOwnersAppendParity: OwnersAppend returns the same candidates
// into a caller's array as into a fresh slice, with no member twice,
// in plain and bounded mode.
func TestOwnersAppendParity(t *testing.T) {
	for _, bounded := range []bool{false, true} {
		ring := NewHashRing()
		ring.Bounded = bounded
		for i := 0; i < 12; i++ {
			ring.Add(fmt.Sprintf("m-%02d", i))
		}
		for i := 0; i < 50; i++ {
			ring.RecordLoad(fmt.Sprintf("m-%02d", i%3))
		}
		var buf [8]string
		for k := 0; k < 200; k++ {
			key := fmt.Sprintf("key-%d", k)
			for _, n := range []int{1, 2, 3, 12, 20} {
				a := ring.OwnersAppend(nil, key, n)
				b := ring.OwnersAppend(buf[:0], key, n)
				if len(a) != len(b) {
					t.Fatalf("bounded=%v key=%s n=%d: len %d vs %d", bounded, key, n, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("bounded=%v key=%s n=%d: %v vs %v", bounded, key, n, a, b)
					}
				}
				seen := map[string]bool{}
				for _, m := range b {
					if seen[m] {
						t.Fatalf("bounded=%v key=%s n=%d: duplicate member %s in %v", bounded, key, n, m, b)
					}
					seen[m] = true
				}
			}
		}
	}
}
