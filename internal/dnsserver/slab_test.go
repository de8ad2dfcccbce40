package dnsserver

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/keyhash"
	"github.com/meccdn/meccdn/internal/vclock"
)

// The response cache's slab owns its entries' bytes and hands a slot's
// buffers to the next entry the moment one is evicted. These tests hold
// every reader to copying under the shard lock: a hit, a flight's
// waiter and the serve-stale fallback answer with their own key's bytes
// or not at all, whatever the slot holds by then.

// addrFor is the address nameHandler answers name with, distinct per
// name.
func addrFor(name string) netip.Addr {
	h := keyhash.Sum64(name)
	return netip.AddrFrom4([4]byte{10, byte(h >> 16), byte(h >> 8), byte(h)})
}

// nameHandler answers every name with one A record for addrFor(name),
// TTL 30.
func nameHandler() Handler {
	return HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		return answerHandler(addrFor(r.Name()).String()).ServeDNS(ctx, w, r)
	})
}

// answeredWith reports whether resp answers name, and only name, with
// addrFor(name).
func answeredWith(resp *dnswire.Message, name string) bool {
	if resp == nil || resp.Question().Name != name || len(resp.Answers) != 1 {
		return false
	}
	a, ok := resp.Answers[0].(*dnswire.A)
	return ok && a.Hdr.Name == name && a.Addr == addrFor(name)
}

// TestSlabSlotReuseRace: hits on a hot set race a stream of
// never-repeated names whose stores evict hot entries and take over
// their slots. Every reply must answer its own name — a hit that read
// its slot after the shard lock was released would, now and then, carry
// another key's bytes, and the race detector would see the read. make ci
// runs it under -race 20 times at 1, 2 and 4 cores.
func TestSlabSlotReuseRace(t *testing.T) {
	cache := NewCache(&vclock.Fixed{})
	cache.MaxEntries = 8 // one shard, smaller than the hot set: hot entries evict each other
	h := Chain(cache, pluginize(nameHandler()))
	const hot, rounds = 12, 1500
	var wg sync.WaitGroup
	var wrong atomic.Int64
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("hot-%d.slab.test.", rng.Intn(hot))
				if !answeredWith(Resolve(context.Background(), h, queryFor(name)), name) {
					wrong.Add(1)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			name := fmt.Sprintf("scan-%d.slab.test.", i)
			if !answeredWith(Resolve(context.Background(), h, queryFor(name)), name) {
				wrong.Add(1)
			}
		}
	}()
	wg.Wait()
	if n := wrong.Load(); n != 0 {
		t.Errorf("%d replies answered another name", n)
	}
	if st := cache.Stats(); st.Hits < rounds/4 || st.Evictions < rounds/4 {
		t.Errorf("cache stats %+v: want hits racing evictions", st)
	}
}

// TestSlabHashCollision: keys whose hashes collide share one index
// entry and chain through their slots; each is stored, served and
// removed on its own bytes. The hash is forced, white-box — three names
// with one 64-bit keyhash are not to be found.
func TestSlabHashCollision(t *testing.T) {
	cache := NewCache(&vclock.Fixed{})
	cache.init()
	sh := cache.shards[0]
	const h = 42
	names := []string{"one.collide.test.", "two.collide.test.", "three.collide.test."}
	reqs := make([]*Request, len(names))
	keys := make([][]byte, len(names))
	for i, name := range names {
		reqs[i] = queryFor(name)
		keys[i] = appendBaseKey(nil, reqs[i])
		image := upstreamImage(t, nameHandler(), reqs[i])
		img, err := dnswire.PatchOffsets(image, nil)
		if err != nil {
			t.Fatal(err)
		}
		sh.mu.Lock()
		sh.put(h, h, keys[i], image, &img, 0, 30*time.Second)
		sh.mu.Unlock()
	}
	check := func(live ...bool) {
		t.Helper()
		sieveOrder(t, sh)
		n := 0
		for i, name := range names {
			sink := &wireSink{}
			res := cache.serveHit(sh, h, keys[i], 0, sink, reqs[i])
			if res.hit != live[i] {
				t.Fatalf("%s: hit %v, want %v", name, res.hit, live[i])
			}
			if !res.hit {
				continue
			}
			n++
			var resp dnswire.Message
			if err := resp.Unpack(sink.wire); err != nil || !answeredWith(&resp, name) {
				t.Fatalf("%s: served %v (%v)", name, resp.Answers, err)
			}
		}
		if sh.n != n || n > 0 && len(sh.index) != 1 || n == 0 && len(sh.index) != 0 {
			t.Fatalf("%d entries under %d index keys, want %d under one", sh.n, len(sh.index), n)
		}
	}
	check(true, true, true)
	drop := func(i int) {
		t.Helper()
		j := sh.find(h, keys[i])
		if j == 0 {
			t.Fatalf("%s is not in the index", names[i])
		}
		sh.remove(j)
	}
	drop(1) // mid-chain: the newest, three, heads it
	check(true, false, true)
	drop(2) // the chain's head
	check(true, false, false)
	drop(0) // the last: the index key goes
	check(false, false, false)
}

// ownerSink is a wireSink that runs then before taking the reply.
type ownerSink struct {
	wireSink
	then func()
}

func (s *ownerSink) WriteWireOwned(buf []byte, n int) error {
	s.then()
	return s.wireSink.WriteWireOwned(buf, n)
}

// TestFlightAnswerOutlivesEviction: a query that joined a flight is
// answered from the flight's copy of the leader's answer, not from the
// slot the leader stored it in. The leader's own writer evicts that
// entry — and every other — and refills the slab before the leader
// returns; on one core the waiter wakes only then, to a slot holding
// another key.
func TestFlightAnswerOutlivesEviction(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const name = "x.flight.test."
	entered, release := make(chan struct{}), make(chan struct{})
	backend := HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		if r.Name() == name {
			entered <- struct{}{}
			<-release
		}
		return nameHandler().ServeDNS(ctx, w, r)
	})
	cache := NewCache(&vclock.Fixed{})
	cache.MaxEntries = 64
	h := Chain(cache, pluginize(backend))
	key := appendBaseKey(nil, queryFor(name))
	kh, sh := cache.locate(key)
	var slot int32
	leader := &ownerSink{then: func() {
		slot = sh.find(kh, key)
		for i := 0; i < 2*cache.MaxEntries; i++ {
			ResolveTo(context.Background(), h, &wireSink{}, queryFor(fmt.Sprintf("s%d.flight.test.", i)))
		}
	}}
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		ResolveTo(context.Background(), h, leader, queryFor(name))
	}()
	<-entered
	waiter := make(chan *dnswire.Message, 1)
	go func() { waiter <- Resolve(context.Background(), h, queryFor(name)) }()
	for deadline := time.Now().Add(5 * time.Second); cache.Stats().Coalesced < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the waiter never joined the flight")
		}
	}
	close(release)
	<-leaderDone
	if slot == 0 || sh.find(kh, key) != 0 || sh.slots[slot].klen == 0 {
		t.Fatalf("slot %d: the leader's entry was not evicted and its slot reused", slot)
	}
	if resp := <-waiter; !answeredWith(resp, name) {
		t.Fatalf("the waiter got %v, not the leader's answer", resp)
	}
	var resp dnswire.Message
	if err := resp.Unpack(leader.wire); err != nil || !answeredWith(&resp, name) {
		t.Fatalf("the leader got %v (%v)", resp.Answers, err)
	}
}

// TestServeStaleOwnKeyOnly: when a refill fails, RFC 8767 serve-stale
// answers with the expired entry the lookup passed — looked up again by
// its key, so if the entry was evicted meanwhile, and its slot given to
// another key, the failure is relayed instead of that key's bytes.
func TestServeStaleOwnKeyOnly(t *testing.T) {
	const name = "x.stale.test."
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	cache.MaxEntries = 64
	cache.MaxStale = time.Hour
	var failing atomic.Bool
	var during func()
	var h Handler
	backend := HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		if r.Name() == name && failing.Load() {
			if during != nil {
				during()
			}
			return dnswire.RcodeServerFailure, nil
		}
		return nameHandler().ServeDNS(ctx, w, r)
	})
	h = Chain(cache, pluginize(backend))
	if resp := Resolve(context.Background(), h, queryFor(name)); !answeredWith(resp, name) {
		t.Fatalf("fill: %v", resp)
	}
	clock.Time += time.Minute // past the 30 s TTL, inside MaxStale
	failing.Store(true)

	resp := Resolve(context.Background(), h, queryFor(name))
	if !answeredWith(resp, name) || resp.Answers[0].Header().TTL > staleTTL {
		t.Fatalf("failed refill: %v, want the stale answer", resp)
	}
	if st := cache.Stats(); st.StaleServes != 1 {
		t.Fatalf("stale serves %d, want 1", st.StaleServes)
	}

	key := appendBaseKey(nil, queryFor(name))
	kh, sh := cache.locate(key)
	slot := sh.find(kh, key)
	during = func() {
		for i := 0; i < 2*cache.MaxEntries; i++ {
			ResolveTo(context.Background(), h, &wireSink{}, queryFor(fmt.Sprintf("s%d.stale.test.", i)))
		}
	}
	resp = Resolve(context.Background(), h, queryFor(name))
	if slot == 0 || sh.find(kh, key) != 0 || sh.slots[slot].klen == 0 {
		t.Fatalf("slot %d: the stale entry was not evicted and its slot reused", slot)
	}
	if resp == nil || resp.Rcode != dnswire.RcodeServerFailure || len(resp.Answers) != 0 {
		t.Fatalf("failed refill of an evicted entry: %v, want the SERVFAIL relayed", resp)
	}
	if st := cache.Stats(); st.StaleServes != 1 {
		t.Errorf("stale serves %d, want still 1", st.StaleServes)
	}
}

// TestSlabLargeImage: an entry whose key and image need more than
// slotRetain bytes is stored and served whole in a buffer of its own,
// which leaves the slab with it: once it expires no slot keeps more than
// slotRetain, and the freed slot serves the next store.
func TestSlabLargeImage(t *testing.T) {
	const big = "big.slab.test."
	backend := HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		if r.Name() != big {
			return nameHandler().ServeDNS(ctx, w, r)
		}
		m := new(dnswire.Message)
		m.SetReply(r.Msg)
		for i := 0; i < 40; i++ {
			m.Answers = append(m.Answers, &dnswire.A{
				Hdr:  dnswire.RRHeader{Name: big, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 30},
				Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)}),
			})
		}
		return m.Rcode, w.WriteMsg(m)
	})
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	cache.MaxEntries = 64
	h := Chain(cache, pluginize(backend))
	miss := Resolve(context.Background(), h, queryFor(big))
	hit := Resolve(context.Background(), h, queryFor(big))
	if miss == nil || hit == nil || len(hit.Answers) != 40 || fmt.Sprint(hit.Answers) != fmt.Sprint(miss.Answers) {
		t.Fatalf("the hit answers %v, the miss %v", hit, miss)
	}
	if st := cache.Stats(); st.Hits != 1 {
		t.Fatalf("cache stats %+v: want the second query to hit", st)
	}
	key := appendBaseKey(nil, queryFor(big))
	kh, sh := cache.locate(key)
	slot := sh.find(kh, key)
	if slot == 0 || cap(sh.slots[slot].buf) <= slotRetain {
		t.Fatalf("slot %d: the large entry is not stored whole", slot)
	}
	clock.Time += time.Minute
	if res := cache.serveHit(sh, kh, key, clock.Now(), &wireSink{}, queryFor(big)); res.hit || sh.find(kh, key) != 0 {
		t.Fatal("the expired large entry is still stored")
	}
	for i := range sh.slots {
		if c := cap(sh.slots[i].buf); c > slotRetain {
			t.Errorf("slot %d keeps %d bytes, more than %d", i, c, slotRetain)
		}
	}
	const small = "small.slab.test."
	if resp := Resolve(context.Background(), h, queryFor(small)); !answeredWith(resp, small) || sh.slots[slot].klen == 0 {
		t.Errorf("the freed slot %d does not take the next store: %v", slot, resp)
	}
}
