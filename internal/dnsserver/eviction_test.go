package dnsserver

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/vclock"
)

// TestCacheMaxEntriesIsABound: when MaxEntries does not divide by the
// shard count, the shards' capacities still sum to exactly MaxEntries.
func TestCacheMaxEntriesIsABound(t *testing.T) {
	image := upstreamImage(t, answerHandler("192.0.2.9"), queryFor("bound.test."))
	cache := NewCache(&vclock.Fixed{})
	cache.MaxEntries = 1001 // 8 shards of 125, one left over
	for i := 0; i < 20000; i++ {
		if !storeImage(cache, queryFor(fmt.Sprintf("n%d.bound.test.", i)), image) {
			t.Fatal("store refused the image")
		}
	}
	if st := cache.Stats(); st.Entries != cache.MaxEntries {
		t.Errorf("%d entries after 20000 distinct names, MaxEntries %d", st.Entries, cache.MaxEntries)
	}
}

// TestCacheScanResistance: a Zipf-1.1 hot set of 200 names shares a
// 256-entry cache with a scan, one never-repeated name after every hot
// query. The hot set must keep at least 95 % of the hit ratio it has
// without the scan: eviction passes over visited entries, so the scan's
// one-hit wonders evict each other.
func TestCacheScanResistance(t *testing.T) {
	const hot, warm, measured = 200, 5000, 20000
	hotRatio := func(scan bool) float64 {
		cache := NewCache(&vclock.Fixed{})
		cache.MaxEntries = 256
		h := Chain(cache, &countingPlugin{h: answerHandler("192.0.2.9")})
		zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, hot-1)
		var hits uint64
		for i := 0; i < warm+measured; i++ {
			if i == warm {
				hits = cache.Stats().Hits
			}
			ResolveTo(context.Background(), h, &wireSink{}, queryFor(fmt.Sprintf("h%d.hot.test.", zipf.Uint64())))
			if scan {
				ResolveTo(context.Background(), h, &wireSink{}, queryFor(fmt.Sprintf("s%d.scan.test.", i)))
			}
		}
		// The scan never repeats, so every hit is a hot one.
		return float64(cache.Stats().Hits-hits) / measured
	}
	alone, scanned := hotRatio(false), hotRatio(true)
	t.Logf("hot-set hit ratio %.3f alone, %.3f with the scan", alone, scanned)
	if scanned < 0.95*alone {
		t.Errorf("hot-set hit ratio %.3f with the scan, %.3f without: the scan evicted the hot set", scanned, alone)
	}
}

// sieveRef is the reference SIEVE over plain slices, newest first; hand
// indexes keys, -1 meaning the tail.
type sieveRef struct {
	keys      []string
	visited   []bool
	expires   []time.Duration
	hand, max int
	evictions uint64
}

func (r *sieveRef) remove(i int) {
	r.keys, r.visited, r.expires = slices.Delete(r.keys, i, i+1), slices.Delete(r.visited, i, i+1), slices.Delete(r.expires, i, i+1)
	if r.hand >= i {
		r.hand-- // onto the newer neighbour, or off the list's newer end
	}
}

func (r *sieveRef) hit(key string, now time.Duration) {
	if i := slices.Index(r.keys, key); i >= 0 && now >= r.expires[i] {
		r.remove(i)
	} else if i >= 0 {
		r.visited[i] = true
	}
}

func (r *sieveRef) store(key string, expires time.Duration) {
	if i := slices.Index(r.keys, key); i >= 0 {
		r.visited[i], r.expires[i] = true, expires
		return
	}
	for len(r.keys) >= r.max {
		i := r.hand
		if i < 0 {
			i = len(r.keys) - 1
		}
		for ; r.visited[i]; i-- {
			r.visited[i] = false
			if i == 0 {
				i = len(r.keys)
			}
		}
		r.hand = i
		r.remove(i)
		r.evictions++
	}
	r.keys, r.visited, r.expires = slices.Insert(r.keys, 0, key), slices.Insert(r.visited, 0, false), slices.Insert(r.expires, 0, expires)
	if r.hand >= 0 {
		r.hand++
	}
}

// sieveOrder walks sh's ring from the head and returns its keys, newest
// first, their visited bits and the key under the hand ("" for none). It
// fails t on a malformed slab: a broken link, a slot the index does not
// reach through its hash chain, a live-entry count that is off, or a
// slot that is not on exactly one of the ring and the free chain.
func sieveOrder(t *testing.T, sh *cacheShard) (keys []string, visited []bool, hand string) {
	t.Helper()
	seen := make([]bool, len(sh.slots))
	prev := int32(0)
	for i := sh.slots[0].next; i != 0; prev, i = i, sh.slots[i].next {
		s := &sh.slots[i]
		if seen[i] || s.prev != prev || s.klen == 0 {
			t.Fatalf("slot %d: revisited, prev %d (want %d) or empty", i, s.prev, prev)
		}
		if j := sh.find(s.hash, s.key()); j != i {
			t.Fatalf("slot %d holds %q, which the index finds at %d", i, s.key(), j)
		}
		seen[i] = true
		keys, visited = append(keys, string(s.key())), append(visited, s.visited)
	}
	if sh.slots[0].prev != prev || len(keys) != sh.n {
		t.Fatalf("tail %d, want %d; %d slots on the ring, %d entries", sh.slots[0].prev, prev, len(keys), sh.n)
	}
	for i := sh.free; i != 0; i = sh.slots[i].next {
		if seen[i] || sh.slots[i].klen != 0 {
			t.Fatalf("free slot %d is revisited or holds an entry", i)
		}
		seen[i] = true
	}
	if i := slices.Index(seen[1:], false); i >= 0 {
		t.Fatalf("slot %d is neither on the ring nor free", i+1)
	}
	if sh.hand != 0 {
		if int(sh.hand) >= len(sh.slots) || sh.slots[sh.hand].klen == 0 {
			t.Fatalf("hand %d is not on the ring", sh.hand)
		}
		hand = string(sh.slots[sh.hand].key())
	}
	return keys, visited, hand
}

// FuzzCacheEviction differentially tests the shard's slab against the
// reference SIEVE: the fuzzer's bytes are decoded into store / hit /
// expire / Flush operations over 32 names on a one-shard cache of 1–16
// entries, both implementations run them, and after every operation they
// must hold the same keys in the same order with the same visited bits,
// the hand on the same key and the same eviction count — so every
// eviction took the same victim — and the slab must be well-formed.
func FuzzCacheEviction(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 2, 0x60, 3, 0x61, 4, 5, 0x62, 6, 0xc5, 0x63, 7})
	f.Add(uint8(0), []byte{0, 0x60, 1, 0x61, 2, 0xff, 3, 0xe0, 4})
	f.Add(uint8(15), []byte{0, 1, 2, 3, 0x60, 0x61, 0xdf, 0x62, 4, 5, 6})
	f.Fuzz(func(t *testing.T, size uint8, ops []byte) {
		image := upstreamImage(t, answerHandler("192.0.2.9"), queryFor("fuzz.test."))
		clock := &vclock.Fixed{}
		cache := NewCache(clock)
		cache.MaxEntries = 1 + int(size%16)
		cache.init()
		ref := &sieveRef{hand: -1, max: cache.MaxEntries}
		if len(ops) > 512 {
			ops = ops[:512]
		}
		for n, op := range ops {
			req := queryFor(fmt.Sprintf("k%d.test.", op&31))
			key := appendBaseKey(nil, req)
			switch op >> 5 {
			case 0, 1, 2:
				if !storeImage(cache, req, image) {
					t.Fatal("store refused the image")
				}
				ref.store(string(key), clock.Now()+30*time.Second) // the image's TTL
			case 3, 4, 5:
				h, sh := cache.locate(key)
				cache.serveHit(sh, h, key, clock.Now(), &wireSink{}, req, true)
				ref.hit(string(key), clock.Now())
			case 6:
				clock.Time += time.Duration(op&31) * time.Second
			default:
				cache.Flush()
				ref.keys, ref.visited, ref.expires, ref.hand = nil, nil, nil, -1
			}
			keys, visited, hand := sieveOrder(t, cache.shards[0])
			want := ""
			if ref.hand >= 0 {
				want = ref.keys[ref.hand]
			}
			st := cache.Stats()
			if !slices.Equal(keys, ref.keys) || !slices.Equal(visited, ref.visited) || hand != want || st.Evictions != ref.evictions {
				t.Fatalf("after op %d (%#x): cache %q %v hand %q evictions %d; reference %q %v hand %q evictions %d",
					n, op, keys, visited, hand, st.Evictions, ref.keys, ref.visited, want, ref.evictions)
			}
			if st.Entries > cache.MaxEntries {
				t.Fatalf("%d entries, MaxEntries %d", st.Entries, cache.MaxEntries)
			}
		}
	})
}
