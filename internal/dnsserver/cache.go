package dnsserver

import (
	"bytes"
	"context"
	"fmt"
	mathbits "math/bits"
	"slices"
	"strconv"
	"sync"
	"time"

	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/keyhash"
	"github.com/meccdn/meccdn/internal/telemetry"
	"github.com/meccdn/meccdn/internal/vclock"
)

// CacheStats is a snapshot of cache effectiveness counters.
//
// Every lookup is counted exactly once: as a Hit, a Miss (key absent),
// or an Expired (key present but past its TTL), so
// Hits+Misses+Expired equals the number of lookups.
type CacheStats struct {
	Hits, Misses uint64
	NegativeHits uint64
	// Expired counts lookups that found an entry already past its
	// TTL; such lookups are answered upstream like misses but are not
	// double-counted in Misses.
	Expired   uint64
	Entries   int
	Evictions uint64
	// Coalesced counts queries that piggybacked on another query's
	// in-flight upstream exchange instead of issuing their own
	// (singleflight miss coalescing).
	Coalesced uint64
	// Shards is the number of independent cache shards in use.
	Shards int
	// PrefetchIssued counts refresh-ahead prefetches launched for
	// near-expiry hits; PrefetchCoalesced those skipped because a
	// refresh or resolve for the key was already in flight; and
	// PrefetchDropped those shed at the prefetch concurrency bound.
	PrefetchIssued, PrefetchCoalesced, PrefetchDropped uint64
	// StaleServes counts expired entries served with a clamped TTL
	// after an upstream failure (RFC 8767 serve-stale).
	StaleServes uint64
}

// Cache is a TTL-honouring response cache with RFC 2308 negative
// caching and SIEVE eviction. Responses are keyed by question and, for
// ECS queries, by the *answer's* scope-masked subnet (RFC 7871
// §7.3.1): an authority that tailors to /16 granularity costs one
// entry per /16, not one per disclosed /24 — so the
// cache-fragmentation cost of ECS the paper alludes to is bounded by
// how finely the authority actually discriminates, not by how much
// clients disclose.
//
// The cache is sharded by (name, type): every entry of one question,
// unscoped or at any ECS scope, lives in the shard the hash of its base
// key picks, so a lookup takes one shard lock however many scopes it
// probes, and a name's scoped entries are counted, and bounded by
// maxScopes, in one place. Each shard has its own mutex and SIEVE
// queue, so concurrent queries for different names never contend on
// one lock. A hit only sets its entry's visited bit, and eviction
// passes over visited entries, so a stream of never-repeated names
// evicts its own kind instead of the hot set. Concurrent misses for the
// *same* key are coalesced with a singleflight flight per key: one
// query becomes the leader and performs the upstream exchange, the rest
// wait and share its answer, so M concurrent misses cost one upstream
// query.
type Cache struct {
	// Clock supplies time; required. Use the simnet clock in
	// experiments and vclock.NewReal() on live servers.
	Clock vclock.Clock
	// MaxEntries bounds the cache across all shards; 0 means 4096.
	MaxEntries int
	// Shards is the number of independent shards; 0 means 16. The
	// count is reduced automatically so every shard holds at least 64
	// entries, which keeps per-shard eviction close to a global policy
	// for small caches.
	Shards int
	// PrefetchFrac enables refresh-ahead prefetch: a hit whose
	// remaining TTL is at or below this fraction of its stored
	// lifetime is served from cache as usual and re-resolved
	// asynchronously through the chain, so the hot set never pays the
	// upstream RTT at expiry. 0 disables; 0.1 refreshes hits landing
	// in the last 10% of the TTL.
	PrefetchFrac float64
	// MaxPrefetch bounds concurrently running prefetches; 0 means 8.
	// Attempts beyond the bound are dropped — the entry keeps serving
	// until it actually expires — and counted in PrefetchDropped.
	MaxPrefetch int
	// Background, when non-nil, has every prefetch goroutine register
	// with it so a graceful drain waits for in-flight refreshes
	// instead of leaking them; a started Server implements it.
	Background BackgroundTracker
	// MaxStale enables RFC 8767 serve-stale: when a refill fails
	// (upstream error, or a SERVFAIL/REFUSED verdict) and the expired
	// entry is no older than expiry+MaxStale, the stale answer is
	// served with its TTLs clamped to staleTTL instead of relaying
	// the failure. 0 disables.
	MaxStale time.Duration

	once        sync.Once
	shards      []*cacheShard
	ctr         cacheCounters
	prefetchSem chan struct{}
}

const (
	// maxTTL caps stored lifetimes.
	maxTTL = time.Hour
	// staleTTL is the clamp, in seconds, applied to the TTLs of stale
	// answers — the RFC 8767 recommendation: never the original TTL
	// (long expired) and never zero (which clients treat as uncacheable
	// and immediately re-ask).
	staleTTL = 30
	// maxScopes bounds the ECS-scoped entries one (name, type) holds.
	// The client writes the ECS bytes, so without a bound one name asked
	// from ever new subnets fills the cache, evicting every other name.
	// The hit-ecs benchmark workload stores 32 scoped entries per name
	// and X7's route table yields 24 distinct scopes for its one name.
	// A name at the bound has a new scoped answer served but not stored:
	// RFC 7871 §7.3.1 forbids storing it under a wider scope instead.
	maxScopes = 64
)

// cacheCounters are the cache's off-hot-path counters as telemetry
// instruments (shared atomics are fine for events this rare),
// registrable on a telemetry.Registry for live /metrics exposition.
// The per-lookup counters — hits, misses, and friends — live on the
// shards instead: every lookup already holds its shard's lock, so a
// plain field under that lock counts for free, where a shared atomic
// would bounce a cache line between every serving core.
type cacheCounters struct {
	coalesced                                                       *telemetry.Counter
	prefetchIssued, prefetchCoalesced, prefetchDropped, staleServes *telemetry.Counter
}

// cacheShard is one independently locked slice of the key space. Its
// entries live in a slab, slots[1:], linked in insertion order into a
// ring through the sentinel slots[0], whose next is the newest entry
// (the head) and prev the oldest (the tail); free slots chain through
// next from free. Index 0 means none for hand, free and chain.
//
// The shard holds every entry of the (name, type)s whose base key hashes
// to it (see Cache.locate). The index is keyed by keyhash.Sum64 of the
// key: for an unscoped key that is the base hash that picked the shard,
// for a scoped one the hash of the whole key. Keys sharing a hash chain
// through cacheSlot.chain and are told apart by their bytes. In-flight
// exchanges are indexed the same way, and finished flights wait on
// spare for the next miss.
type cacheShard struct {
	mu         sync.Mutex
	index      map[uint64]int32
	slots      []cacheSlot
	hand, free int32
	n, max     int
	ctr        *cacheCounters
	flights    map[uint64]*flight
	spare      *flight
	// scopes marks the ECS scope lengths some entry of the shard has been
	// keyed at since the last reset, IPv4 in [0] and IPv6 in [1], bit S
	// of word S/64. A scoped lookup probes only those, longest first, so
	// names with two distinct scopes cost two probes, not 33.
	scopes [2][3]uint64
	// scoped counts each (name, type)'s scoped entries by base hash;
	// store takes no new one for a name already at maxScopes.
	scoped map[uint64]int32
	// Per-lookup effectiveness counters, guarded by mu (see
	// cacheCounters). Summed across shards at scrape time.
	hits, misses, negHits, expired, evictions uint64
}

// slotRetain caps the capacity a free slot keeps for the next store:
// an entry whose key and image need more allocates a buffer of its own,
// which leaves with it, so the slab holds at most MaxEntries × slotRetain
// bytes beyond its live entries.
const slotRetain = 512

// cacheSlot is one slab slot. It holds its entry by value, in buffers it
// owns and hands on to the next entry stored in it — so nothing read
// from a slot outlives the shard lock: once that is released the slot
// may hold another key, and every reader copies what it needs first.
// prev is the newer neighbour, next the older one (or, on a free slot,
// the next free slot).
type cacheSlot struct {
	// buf is the key, buf[:klen], then the packed response, the only
	// stored form of an entry; ttls and at are the patch positions
	// recorded once at insert. A free slot has klen 0.
	buf  []byte
	ttls []int
	at   imageAt
	// hash indexes the key; base is the hash of its (name, type), which
	// picked the shard. They differ exactly for a scoped key (one that
	// hashes to its base, once in 2⁶⁴, goes uncounted in scoped).
	hash, base uint64
	klen       int32
	chain      int32 // the next slot whose key has the same hash
	prev       int32
	next       int32
	// stored and expires bound the entry's lifetime.
	stored, expires time.Duration
	visited         bool
	negative        bool // NXDOMAIN/NODATA, for the negative-hit counter
	// refreshing latches once a refresh-ahead prefetch has been spawned
	// for the entry; a store resets it.
	refreshing bool
}

func (s *cacheSlot) key() []byte   { return s.buf[:s.klen] }
func (s *cacheSlot) image() []byte { return s.buf[s.klen:] }

// stamp copies image into a pooled buffer with the TTLs at ttls aged by
// age seconds or, stale, clamped down to staleTTL.
func stamp(image []byte, ttls []int, age uint32, stale bool) ([]byte, int) {
	buf := dnswire.GetBuffer()
	n := copy(buf, image)
	if stale {
		dnswire.ClampTTLs(buf[:n], ttls, staleTTL)
	} else {
		dnswire.AgeTTLs(buf[:n], ttls, age)
	}
	return buf, n
}

// imageAt is what replying from a stored image takes besides its bytes
// and TTL offsets: where its OPT record and ECS option are, and its
// rcode.
type imageAt struct {
	ecs   dnswire.ECSAt
	opt   int
	rcode dnswire.Rcode
}

// reset empties the shard; the slab grows on demand up to max slots.
func (sh *cacheShard) reset() {
	sh.index, sh.slots = make(map[uint64]int32), make([]cacheSlot, 1)
	sh.hand, sh.free, sh.n = 0, 0, 0
	sh.scopes, sh.scoped = [2][3]uint64{}, make(map[uint64]int32)
}

// find returns the slot holding key, whose hash is h, or 0.
func (sh *cacheShard) find(h uint64, key []byte) int32 {
	i := sh.index[h]
	for i != 0 && !bytes.Equal(sh.slots[i].key(), key) {
		i = sh.slots[i].chain
	}
	return i
}

// insert takes a slot for a key whose hash is h, and whose (name, type)
// hashes to base — a free one, a new one, or, with the shard full, the
// SIEVE victim's — links it in at the head of the ring, unvisited, and
// indexes and counts it. The caller writes the key.
func (sh *cacheShard) insert(h, base uint64) int32 {
	for sh.n >= sh.max {
		sh.evict()
	}
	i := sh.free
	if i != 0 {
		sh.free = sh.slots[i].next
	} else {
		i = int32(len(sh.slots))
		sh.slots = append(sh.slots, cacheSlot{})
	}
	head := sh.slots[0].next
	s := &sh.slots[i]
	s.hash, s.base, s.chain, s.prev, s.next = h, base, sh.index[h], 0, head
	sh.slots[head].prev, sh.slots[0].next = i, i
	sh.index[h] = i
	if h != base {
		sh.scoped[base]++
	}
	sh.n++
	return i
}

// remove unlinks slot i from the ring and from its hash chain, uncounts
// it and frees it, keeping its buffers for the next store unless they are larger than
// slotRetain. A hand resting on it moves to its newer neighbour.
func (sh *cacheShard) remove(i int32) {
	s := &sh.slots[i]
	if sh.hand == i {
		sh.hand = s.prev
	}
	sh.slots[s.prev].next, sh.slots[s.next].prev = s.next, s.prev
	if j := sh.index[s.hash]; j != i {
		for sh.slots[j].chain != i {
			j = sh.slots[j].chain
		}
		sh.slots[j].chain = s.chain
	} else if s.chain != 0 {
		sh.index[s.hash] = s.chain
	} else {
		delete(sh.index, s.hash)
	}
	if s.hash != s.base {
		if sh.scoped[s.base]--; sh.scoped[s.base] == 0 {
			delete(sh.scoped, s.base)
		}
	}
	buf, ttls := s.buf[:0], s.ttls[:0]
	if cap(buf) > slotRetain {
		buf = nil
	}
	if cap(ttls) > slotRetain/8 { // the same bound in bytes
		ttls = nil
	}
	*s = cacheSlot{buf: buf, ttls: ttls, next: sh.free}
	sh.free = i
	sh.n--
}

// evict removes the SIEVE victim: the hand, starting where it last
// stopped (or at the tail), walks toward the head and round to the
// tail again, clearing visited bits, and evicts the first unvisited
// slot; remove leaves the hand at the victim's newer neighbour.
func (sh *cacheShard) evict() {
	i := sh.hand
	for i == 0 || sh.slots[i].visited {
		sh.slots[i].visited = false
		if i = sh.slots[i].prev; i == 0 {
			i = sh.slots[0].prev
		}
	}
	sh.hand = i
	sh.remove(i)
	sh.evictions++
}

// flight is one in-progress upstream exchange that concurrent misses
// for the same key wait on. It is taken from its shard's spare list and
// goes back there when the last of its participants — the leader and
// every query that joined — leaves, so everything they read is the
// flight's own: the key, and, once done is closed, the answer. That is
// a copy, never a slot: the entry the leader stored may be evicted, and
// its slot reused, before a waiter wakes.
type flight struct {
	hash uint64
	key  [cacheKeyBuf]byte
	klen int
	next *flight // the next flight in the index chain, or on spare
	// refs counts the participants yet to leave, under the shard lock.
	refs int
	// done is made by the first query to join the flight, under the
	// shard lock, and closed by the leader once the flight is out of the
	// index; a flight nobody joins never makes one.
	done chan struct{}
	// rec is what the chain wrote for the leader's request, kept whole;
	// ttls backs the walk of it, capacity kept across uses.
	rec  replyImage
	ttls []int
	// answered reports that rec holds an answer to serve — fresh, or an
	// expired entry's TTL-clamped copy per RFC 8767 — at the patch
	// positions at, its TTLs final. Otherwise waiters relay rcode and
	// err.
	answered bool
	at       imageAt
	rcode    dnswire.Rcode
	err      error
}

// findFlight returns the flight resolving key, whose hash is h, or nil.
func (sh *cacheShard) findFlight(h uint64, key []byte) *flight {
	f := sh.flights[h]
	for f != nil && !bytes.Equal(f.key[:f.klen], key) {
		f = f.next
	}
	return f
}

// startFlight indexes a flight for key, whose hash is h, with the caller
// as its leader and only participant.
func (sh *cacheShard) startFlight(h uint64, key []byte) *flight {
	f := sh.spare
	if f != nil {
		sh.spare = f.next
	} else {
		f = new(flight)
	}
	f.hash, f.klen, f.refs, f.next = h, copy(f.key[:], key), 1, sh.flights[h]
	sh.flights[f.hash] = f
	return f
}

// endFlight takes f out of the index: no query joins it any more.
func (sh *cacheShard) endFlight(f *flight) {
	if p := sh.flights[f.hash]; p != f {
		for p.next != f {
			p = p.next
		}
		p.next = f.next
	} else if f.next != nil {
		sh.flights[f.hash] = f.next
	} else {
		delete(sh.flights, f.hash)
	}
	f.next = nil
}

// leave drops one participant from f; the last one returns its buffer
// to the pool and the flight to spare.
func (sh *cacheShard) leave(f *flight) {
	if f.refs--; f.refs > 0 {
		return
	}
	dnswire.PutBuffer(f.rec.buf)
	*f = flight{ttls: f.ttls[:0], next: sh.spare}
	sh.spare = f
}

// NewCache returns a cache using clock.
func NewCache(clock vclock.Clock) *Cache {
	return &Cache{Clock: clock}
}

// init sizes and allocates the shard table. It runs on first use so
// MaxEntries/Shards can be set after NewCache.
func (c *Cache) init() {
	c.once.Do(func() {
		c.ctr = cacheCounters{
			coalesced:         telemetry.NewCounter("meccdn_dns_cache_coalesced_total", "Queries that shared another query's in-flight upstream exchange."),
			prefetchIssued:    telemetry.NewCounter("meccdn_dns_cache_prefetch_issued_total", "Refresh-ahead prefetches launched for near-expiry hits."),
			prefetchCoalesced: telemetry.NewCounter("meccdn_dns_cache_prefetch_coalesced_total", "Prefetch attempts skipped because a refresh or resolve for the key was already in flight."),
			prefetchDropped:   telemetry.NewCounter("meccdn_dns_cache_prefetch_dropped_total", "Prefetch attempts shed at the prefetch concurrency bound."),
			staleServes:       telemetry.NewCounter("meccdn_dns_cache_stale_serves_total", "Expired entries served with a clamped TTL after an upstream failure (RFC 8767)."),
		}
		maxPrefetch := c.MaxPrefetch
		if maxPrefetch <= 0 {
			maxPrefetch = 8
		}
		c.prefetchSem = make(chan struct{}, maxPrefetch)
		max := c.MaxEntries
		if max <= 0 {
			max = 4096
		}
		n := c.Shards
		if n <= 0 {
			n = 16
		}
		// Keep shards big enough that per-shard eviction approximates
		// a global policy; tiny caches collapse to a single shard.
		const minPerShard = 64
		for n > 1 && max/n < minPerShard {
			n /= 2
		}
		// The first max%n shards take one entry more, so the shards sum
		// to exactly max.
		c.shards = make([]*cacheShard, n)
		for i := range c.shards {
			sh := &cacheShard{max: max / n, ctr: &c.ctr, flights: make(map[uint64]*flight)}
			if i < max%n {
				sh.max++
			}
			sh.reset()
			c.shards[i] = sh
		}
	})
}

// Collectors returns the cache's metric families for registration on
// a telemetry.Registry: the effectiveness counters (the per-lookup
// ones summed across shards at scrape time) plus entry/shard gauges.
func (c *Cache) Collectors() []telemetry.Collector {
	c.init()
	shardSum := func(pick func(*cacheShard) uint64) func() float64 {
		return func() float64 {
			var total uint64
			for _, sh := range c.shards {
				sh.mu.Lock()
				total += pick(sh)
				sh.mu.Unlock()
			}
			return float64(total)
		}
	}
	return []telemetry.Collector{
		telemetry.NewCounterFunc("meccdn_dns_cache_hits_total",
			"Cache lookups answered from a live entry.",
			shardSum(func(sh *cacheShard) uint64 { return sh.hits })),
		telemetry.NewCounterFunc("meccdn_dns_cache_misses_total",
			"Cache lookups with no entry for the key.",
			shardSum(func(sh *cacheShard) uint64 { return sh.misses })),
		telemetry.NewCounterFunc("meccdn_dns_cache_negative_hits_total",
			"Cache hits that served a negative (NXDOMAIN/NODATA) entry.",
			shardSum(func(sh *cacheShard) uint64 { return sh.negHits })),
		telemetry.NewCounterFunc("meccdn_dns_cache_expired_total",
			"Cache lookups that found an entry past its TTL.",
			shardSum(func(sh *cacheShard) uint64 { return sh.expired })),
		telemetry.NewCounterFunc("meccdn_dns_cache_evictions_total",
			"Entries evicted by per-shard SIEVE pressure.",
			shardSum(func(sh *cacheShard) uint64 { return sh.evictions })),
		c.ctr.coalesced,
		c.ctr.prefetchIssued, c.ctr.prefetchCoalesced,
		c.ctr.prefetchDropped, c.ctr.staleServes,
		telemetry.NewGaugeFunc("meccdn_dns_cache_entries",
			"Live entries across all cache shards.",
			func() float64 { return float64(c.Stats().Entries) }),
		telemetry.NewGaugeFunc("meccdn_dns_cache_shards",
			"Number of independent cache shards.",
			func() float64 { return float64(len(c.shards)) }),
	}
}

// locate hashes base, a (name, type) base key still in its stack buffer,
// and picks the shard owning every entry of that question. The hash is
// taken once: the shard indexes the unscoped key's slot and flight by it
// too.
func (c *Cache) locate(base []byte) (uint64, *cacheShard) {
	c.init()
	h := keyhash.Sum64(base)
	return h, c.shards[h%uint64(len(c.shards))]
}

// Name implements Plugin.
func (c *Cache) Name() string { return "cache" }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats {
	c.init()
	s := CacheStats{
		Coalesced:         c.ctr.coalesced.Value(),
		Shards:            len(c.shards),
		PrefetchIssued:    c.ctr.prefetchIssued.Value(),
		PrefetchCoalesced: c.ctr.prefetchCoalesced.Value(),
		PrefetchDropped:   c.ctr.prefetchDropped.Value(),
		StaleServes:       c.ctr.staleServes.Value(),
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		s.Entries += sh.n
		s.Hits += sh.hits
		s.Misses += sh.misses
		s.NegativeHits += sh.negHits
		s.Expired += sh.expired
		s.Evictions += sh.evictions
		sh.mu.Unlock()
	}
	return s
}

// Flush drops every entry. In-flight exchanges are unaffected.
func (c *Cache) Flush() {
	c.init()
	for _, sh := range c.shards {
		sh.mu.Lock()
		sh.reset()
		sh.mu.Unlock()
	}
}

// cacheKeyBuf sizes the stack buffer lookups build their key in, and a
// flight's copy of it; a maximal DNS name (255 octets) plus type and ECS
// suffixes fits. A key is never a string: the slab and the flights keep
// its bytes.
const cacheKeyBuf = 288

// appendBaseKey appends the ECS-independent part of r's cache key:
// the name and the type as Type.String renders it, without the
// allocations String makes for a type dnswire does not name.
func appendBaseKey(b []byte, r *Request) []byte {
	b = append(b, r.Name()...)
	b = append(b, '|')
	if name, ok := qtypeLabels.named(uint16(r.Type())); ok {
		return append(b, name...)
	}
	return strconv.AppendUint(append(b, "TYPE"...), uint64(r.Type()), 10)
}

// ecsFamilyBits resolves an ECS option to its address width in bits.
func ecsFamilyBits(ecs *dnswire.ECSOption) int {
	if ecs.Family == 2 {
		return 128
	}
	return 32
}

// appendECSKey appends an ECS key suffix for the given prefix length:
// a separator, the family byte, the length byte, and the address bytes
// masked down to that length, 0 ≤ bits ≤ famBits. Binary and
// allocation-free, unlike the Prefix().String() rendering it replaces,
// and parameterized on the length so one query can probe several scopes.
func appendECSKey(b []byte, ecs *dnswire.ECSOption, bits, famBits int) []byte {
	fam := byte(1)
	if famBits == 128 {
		fam = 2
	}
	b = append(b, '|', fam, byte(bits))
	n := (bits + 7) / 8
	if n == 0 {
		return b
	}
	var raw [16]byte
	if famBits == 32 {
		if !ecs.Address.Is4() && !ecs.Address.Is4In6() {
			return b
		}
		a4 := ecs.Address.As4()
		copy(raw[:], a4[:])
	} else {
		if !ecs.Address.IsValid() {
			return b
		}
		raw = ecs.Address.As16()
	}
	if rem := bits % 8; rem != 0 {
		raw[n-1] &= byte(0xFF << (8 - rem))
	}
	return append(b, raw[:n]...)
}

// serveScoped is the ECS cache lookup in sh, the shard of the request's
// base key. RFC 7871 §7.3.1: a cached entry answers a query when its
// scope-masked prefix covers the query's address at no more bits than
// the client disclosed, most specific entry first. Entries are keyed at
// store time by the *answer's* scope (see store), so the lookup probes
// base extended with each scope length the shard's hint words hold, up
// to the source, longest first — in practice a handful, not all 33/129.
// Probes overwrite each other's suffix in base's stack buffer, so the
// ladder allocates nothing, and all of it runs under one lock.
//
// It returns the key the caller should resolve under on a miss (the
// full source-masked key — also the singleflight identity) or the key
// of the hit, with its hash, the lookup outcome, and the scope of the
// longest-scoped expired entry still inside its RFC 8767 window that a
// miss passed, -1 for none. A miss is counted once, as expired when it
// passed such an entry.
func (c *Cache) serveScoped(sh *cacheShard, base []byte, ecs *dnswire.ECSOption, now time.Duration, w ResponseWriter, r *Request) ([]byte, uint64, lookupResult, int) {
	famBits := ecsFamilyBits(ecs)
	source := min(int(ecs.SourcePrefix), famBits)
	stale := -1
	sh.mu.Lock()
	words := &sh.scopes[famBits/128]
	for wi := source >> 6; wi >= 0; wi-- {
		// Keep the bits up to source; a shift past 63 keeps a lower word whole.
		for word := words[wi] & (uint64(2)<<(source-wi<<6) - 1); word != 0; {
			b := 63 - mathbits.LeadingZeros64(word)
			word &^= uint64(1) << b
			scope := wi<<6 + b
			key := appendECSKey(base, ecs, scope, famBits)
			h := keyhash.Sum64(key)
			switch i := sh.find(h, key); {
			case i == 0:
			case now < sh.slots[i].expires:
				return key, h, c.serveSlot(sh, i, now, w, r), -1
			case c.expire(sh, i, now) && stale < 0:
				stale = scope // longest-scope stale candidate wins
			}
		}
	}
	if stale >= 0 {
		sh.expired++
	} else {
		sh.misses++
	}
	sh.mu.Unlock()
	key := appendECSKey(base, ecs, source, famBits)
	return key, keyhash.Sum64(key), lookupResult{}, stale
}

// lookupResult is the outcome of one cache lookup.
type lookupResult struct {
	hit   bool
	rcode dnswire.Rcode
	err   error
	// refresh, set on a hit, reports that the entry's remaining TTL has
	// entered the refresh-ahead window and its latch was taken: ServeDNS
	// spawns an async re-resolve for it after the hit has been served.
	refresh bool
	// stale, set on a miss, reports an expired entry still inside the
	// MaxStale window — the RFC 8767 fallback should the refill fail.
	stale bool
}

// ServeDNS implements Plugin.
func (c *Cache) ServeDNS(ctx context.Context, w ResponseWriter, r *Request, next Handler) (dnswire.Rcode, error) {
	var kb [cacheKeyBuf]byte
	lookup := telemetry.StartHop(ctx, "cache")
	now := c.Clock.Now()
	key := appendBaseKey(kb[:0], r)
	h, sh := c.locate(key)
	var res lookupResult
	stale := -1
	if ecs, ok := r.Msg.ECS(); ok {
		key, h, res, stale = c.serveScoped(sh, key, ecs, now, w, r)
	} else if res = c.serveHit(sh, h, key, now, w, r); res.stale {
		stale = 0
	}
	if res.hit {
		lookup.End("hit")
		if res.refresh {
			c.spawnPrefetch(sh, h, key, r, next)
		}
		return res.rcode, res.err
	}
	lookup.End("miss")
	// A miss waits — on the flight it joins, or on whatever the rest of
	// the chain does to resolve it. Refused, it must neither join nor
	// lead: a shed leader would hand its failure to every waiter.
	if !r.mayWait() {
		return dnswire.RcodeServerFailure, errIngressFull
	}

	// Singleflight: join an in-flight exchange for this key, or
	// become the leader of a new one.
	sh.mu.Lock()
	if f := sh.findFlight(h, key); f != nil {
		if f.done == nil {
			f.done = make(chan struct{})
		}
		f.refs++
		done := f.done
		c.ctr.coalesced.Inc()
		sh.mu.Unlock()
		wait := telemetry.StartHop(ctx, "coalesce")
		var rcode dnswire.Rcode
		var err error
		select {
		case <-done:
			wait.End("shared")
			rcode, err = c.replyShared(w, r, f)
		case <-ctx.Done():
			wait.End("canceled")
			rcode, err = dnswire.RcodeServerFailure, ctx.Err()
		}
		sh.mu.Lock()
		sh.leave(f)
		sh.mu.Unlock()
		return rcode, err
	}
	f := sh.startFlight(h, key)
	sh.mu.Unlock()
	return c.fill(ctx, sh, f, w, r, next, stale)
}

// replyShared replies to a query that joined flight f, once f is done:
// from a copy of the leader's answer, or with its failure.
func (c *Cache) replyShared(w ResponseWriter, r *Request, f *flight) (dnswire.Rcode, error) {
	if !f.answered {
		return f.rcode, f.err
	}
	buf := dnswire.GetBuffer()
	return c.reply(w, r, buf, copy(buf, f.rec.buf[:f.rec.n]), f.at)
}

// fill performs the upstream exchange for a miss as the leader of
// flight f (indexed in sh), stores the answer, publishes it to coalesced
// waiters and replies to its own client from the same image. When the
// exchange fails and the lookup passed an expired entry — keyed at
// scope stale, -1 for none; any scope for a query without ECS — that
// entry is served if it is still there and in its RFC 8767 window:
// better a recently-true answer than a SERVFAIL, for a bounded window.
func (c *Cache) fill(ctx context.Context, sh *cacheShard, f *flight, w ResponseWriter, r *Request, next Handler, stale int) (dnswire.Rcode, error) {
	rec := &f.rec
	rec.limit = dnswire.MaxMessageSize
	f.rcode, f.err = next.ServeDNS(ctx, rec, r)
	if f.err == nil && rec.buf != nil {
		if img, err := dnswire.PatchOffsets(rec.buf[:rec.n], f.ttls[:0]); err == nil {
			f.ttls, f.answered = img.TTLs, true
			f.at = imageAt{ecs: img.ECS, opt: img.OPT, rcode: img.Rcode}
			c.store(r, rec.buf[:rec.n], &img)
		}
	}
	if stale >= 0 && (!f.answered || failoverRcode(f.at.rcode)) && c.loadStale(r, stale, f) {
		c.ctr.staleServes.Inc()
	}
	// Alone, the leader takes the image over; with waiters it copies it
	// like they do, and the last to leave recycles the flight.
	var buf []byte
	n, at, answered, rcode, err := rec.n, f.at, f.answered, f.rcode, f.err
	sh.mu.Lock()
	sh.endFlight(f)
	done, alone := f.done, f.refs == 1
	if alone {
		buf, rec.buf = rec.buf, nil
		sh.leave(f)
	}
	sh.mu.Unlock()
	if done != nil {
		close(done)
	}
	if !alone {
		if rec.buf != nil {
			buf = dnswire.GetBuffer()
			copy(buf, rec.buf[:n])
		}
		sh.mu.Lock()
		sh.leave(f)
		sh.mu.Unlock()
	}
	switch {
	case answered:
		return c.reply(w, r, buf, n, at)
	case buf == nil:
		return rcode, err
	}
	// Relay what the chain wrote, uncached: it came with an error, or it
	// is an image the cache cannot patch.
	if werr := WriteImage(w, buf, n); werr != nil && err == nil {
		return dnswire.RcodeServerFailure, werr
	}
	return rcode, err
}

// loadStale makes the expired entry r's lookup passed — keyed at scope
// if r carries ECS — f's answer, its TTLs clamped to staleTTL, if it is
// still inside its RFC 8767 window. The key is built and looked up
// again: an entry evicted since the lookup, its slot perhaps holding
// another key now, leaves the failure to be relayed. It reports whether
// there was an answer.
func (c *Cache) loadStale(r *Request, scope int, f *flight) bool {
	var kb [cacheKeyBuf]byte
	key := appendBaseKey(kb[:0], r)
	h, sh := c.locate(key)
	if ecs, ok := r.Msg.ECS(); ok {
		key = appendECSKey(key, ecs, scope, ecsFamilyBits(ecs))
		h = keyhash.Sum64(key)
	}
	now := c.Clock.Now()
	sh.mu.Lock()
	i := sh.find(h, key)
	if i == 0 || now >= sh.slots[i].expires+c.MaxStale {
		sh.mu.Unlock()
		return false
	}
	s := &sh.slots[i]
	dnswire.PutBuffer(f.rec.buf)
	f.rec.buf, f.rec.n = stamp(s.image(), s.ttls, 0, true)
	f.answered, f.at = true, s.at
	sh.mu.Unlock()
	return true
}

// store caches image — the answer to r as the chain wrote it, walked
// into img — for the lifetime its records give it, under the key the
// *answer* dictates, copying it into the slot the key takes. For a
// non-ECS request that is the question. For ECS, RFC 7871 §7.3.1
// keying: the response's scope prefix — 0 when the answer carried no ECS
// option (§7.2.2: such an answer is valid for all addresses), clamped to
// the disclosed source length — masks the query address into the entry
// key. A /16-scoped answer to a /24 query is therefore stored once under
// the /16 key, where every sibling /24 finds it, instead of fragmenting
// into 256 identical entries. The key is always derived here, never
// taken from the lookup: a refresh of a /16 entry may come back scoped
// /24, and must not land under the /16 key.
//
// A response with no cacheable lifetime (server failures among them) is
// not stored, nor is a new scoped key for a name at maxScopes. A slot
// freed by eviction keeps its buffers, so storing into a full cache
// allocates nothing unless the entry outgrows them.
func (c *Cache) store(r *Request, image []byte, img *dnswire.Image) {
	var ttl time.Duration
	if img.Rcode == dnswire.RcodeSuccess || img.Rcode == dnswire.RcodeNameError {
		ttl = min(time.Duration(img.TTL)*time.Second, maxTTL)
	}
	if ttl <= 0 {
		return
	}
	var kb [cacheKeyBuf]byte
	key := appendBaseKey(kb[:0], r)
	base, sh := c.locate(key)
	h, now := base, c.Clock.Now()
	sh.mu.Lock()
	if ecs, ok := r.Msg.ECS(); ok {
		famBits := ecsFamilyBits(ecs)
		scope := min(int(img.Scope), int(ecs.SourcePrefix), famBits)
		sh.scopes[famBits/128][scope>>6] |= uint64(1) << (scope & 63)
		key = appendECSKey(key, ecs, scope, famBits)
		h = keyhash.Sum64(key)
	}
	sh.put(h, base, key, image, img, now, ttl)
	sh.mu.Unlock()
}

// put stores image, walked into img, under key, whose hash is h and
// whose (name, type) hashes to base, for ttl from now: into the slot
// already holding key — a refill, which counts as an access — or into
// one insert takes, unless key is scoped and its name at maxScopes.
func (sh *cacheShard) put(h, base uint64, key, image []byte, img *dnswire.Image, now, ttl time.Duration) {
	i := sh.find(h, key)
	switch {
	case i != 0:
		sh.slots[i].visited = true
	case h != base && sh.scoped[base] >= maxScopes:
		return
	default:
		i = sh.insert(h, base)
	}
	s := &sh.slots[i]
	s.buf = append(append(slices.Grow(s.buf[:0], len(key)+len(image)), key...), image...)
	s.klen = int32(len(key))
	s.ttls = append(s.ttls[:0], img.TTLs...)
	s.at = imageAt{ecs: img.ECS, opt: img.OPT, rcode: img.Rcode}
	s.negative = img.Rcode != dnswire.RcodeSuccess || img.Answers == 0
	s.stored, s.expires = now, now+ttl
	s.refreshing = false
}

// spawnPrefetch launches the refresh-ahead re-resolve for a hit whose
// TTL has entered the prefetch window and whose refresh latch serveSlot
// took. The hit itself has already been served; the refresh runs on a
// background goroutine, bounded by the prefetch semaphore, deduplicated
// per stored entry (the latch) and per key (the singleflight index, so
// a concurrent miss's exchange is shared rather than duplicated), and
// registered with Background so a graceful drain waits for it.
func (c *Cache) spawnPrefetch(sh *cacheShard, h uint64, key []byte, r *Request, next Handler) {
	select {
	case c.prefetchSem <- struct{}{}:
	default:
		// Prefetch is an optimization: at the concurrency bound the
		// entry keeps serving until it actually expires, so shed the
		// refresh and let a later hit in the window retry.
		c.unlatch(sh, h, key)
		c.ctr.prefetchDropped.Inc()
		return
	}
	release := func() { <-c.prefetchSem }
	var done func()
	if c.Background != nil {
		var ok bool
		if done, ok = c.Background.TrackBackground(); !ok {
			release() // draining: no new background resolves
			c.unlatch(sh, h, key)
			return
		}
	}
	sh.mu.Lock()
	if sh.findFlight(h, key) != nil {
		// A miss is already resolving this key; its store() refreshes
		// the entry without our help.
		sh.mu.Unlock()
		c.ctr.prefetchCoalesced.Inc()
		release()
		if done != nil {
			done()
		}
		return
	}
	f := sh.startFlight(h, key)
	sh.mu.Unlock()
	c.ctr.prefetchIssued.Inc()
	// The request is cloned because the refresh outlives the serving
	// goroutine that owns r — and without r's ingress hook: the refresh
	// waits on a goroutine of its own, holding no socket. The key, in
	// the caller's stack buffer, is copied for the same reason.
	req := &Request{Msg: r.Msg.Clone(), Client: r.Client, Transport: r.Transport}
	own := append([]byte(nil), key...)
	go func() {
		defer func() {
			release()
			if done != nil {
				done()
			}
		}()
		// The refreshed answer matters only through store(): the reply
		// fill writes is dropped as the bytes it is, never decoded.
		reply := replyImage{limit: dnswire.MaxMessageSize}
		rcode, err := c.fill(context.Background(), sh, f, &reply, req, next, -1)
		dnswire.PutBuffer(reply.buf)
		if err != nil || failoverRcode(rcode) {
			// The refresh failed; unlatch so a later hit retries
			// (bounded by the semaphore if the upstream stays down).
			c.unlatch(sh, h, own)
		}
	}()
}

// unlatch clears the refresh latch of the entry stored under key, if
// any; h is its hash and sh its shard.
func (c *Cache) unlatch(sh *cacheShard, h uint64, key []byte) {
	sh.mu.Lock()
	if i := sh.find(h, key); i != 0 {
		sh.slots[i].refreshing = false
	}
	sh.mu.Unlock()
}

// serveHit looks key, an unscoped key whose hash is h, up in sh and
// serves a live entry (serveSlot), or counts the miss or expiry.
func (c *Cache) serveHit(sh *cacheShard, h uint64, key []byte, now time.Duration, w ResponseWriter, r *Request) lookupResult {
	sh.mu.Lock()
	i := sh.find(h, key)
	if i != 0 && now < sh.slots[i].expires {
		return c.serveSlot(sh, i, now, w, r)
	}
	var res lookupResult
	if i == 0 {
		sh.misses++
	} else {
		sh.expired++
		res.stale = c.expire(sh, i, now)
	}
	sh.mu.Unlock()
	return res
}

// expire settles slot i of sh, found past its TTL: an entry still inside
// the MaxStale window is kept in place (the refill's store replaces it)
// and reported stale, any other is removed.
func (c *Cache) expire(sh *cacheShard, i int32, now time.Duration) bool {
	if c.MaxStale > 0 && now < sh.slots[i].expires+c.MaxStale {
		return true
	}
	sh.remove(i)
	return false
}

// serveSlot replies from slot i of sh, a live entry, with sh locked, and
// unlocks it. The slot may hold another key once the lock is released,
// so the entry's image is copied into the reply buffer, its TTLs aged,
// under the lock; the rest of the restamp runs outside it. A hit whose
// remaining TTL has entered the PrefetchFrac window takes the entry's
// refresh latch and reports refresh, unless another hit holds it
// already.
func (c *Cache) serveSlot(sh *cacheShard, i int32, now time.Duration, w ResponseWriter, r *Request) lookupResult {
	s := &sh.slots[i]
	if !s.visited { // a hot slot's line is not dirtied on every hit
		s.visited = true
	}
	sh.hits++
	if s.negative {
		sh.negHits++
	}
	res := lookupResult{hit: true}
	if frac := c.PrefetchFrac; frac > 0 && float64(s.expires-now) <= frac*float64(s.expires-s.stored) {
		if s.refreshing {
			c.ctr.prefetchCoalesced.Inc()
		} else {
			s.refreshing, res.refresh = true, true
		}
	}
	buf, n := stamp(s.image(), s.ttls, uint32((now-s.stored)/time.Second), false)
	at := s.at
	sh.mu.Unlock()
	res.rcode, res.err = c.reply(w, r, buf, n, at)
	return res
}

// reply is the one way a cached response leaves the cache — live hit,
// RFC 8767 stale answer, coalesced waiter, and the leader's own fresh
// fill alike. buf[:n] is the stored image, in a pooled buffer the caller
// hands over with its TTLs already aged or clamped, and at its patch
// positions; it is restamped for r in place: transaction ID, the
// question name's letter case (the image keeps the first asker's), the
// RD/CD mirror bits, an OPT record exactly when r has one (RFC 6891 §7;
// the image keeps the first asker's choice), and the RFC 7871 §7.2.1 ECS
// echo. The result decodes to what decoding the image, editing the
// message and repacking it would give — and, for an image Pack wrote, is
// that byte for byte (the FuzzHitPatch invariants) — at none of the
// cost. WriteImage sends it.
func (c *Cache) reply(w ResponseWriter, r *Request, buf []byte, n int, at imageAt) (dnswire.Rcode, error) {
	dnswire.PatchID(buf[:n], r.Msg.ID)
	dnswire.PatchQuestionCase(buf[:n], r.Msg.Question().Name)
	dnswire.PatchReplyBits(buf[:n], r.Msg.RecursionDesired, r.Msg.CheckingDisabled)
	opt, edns := r.Msg.OPT()
	n, err := dnswire.FollowOPT(buf, n, at.opt, edns)
	if err == nil && edns && at.ecs != (dnswire.ECSAt{}) {
		if qecs, ok := opt.ECS(); ok {
			n, err = dnswire.EchoECS(buf, n, at.ecs, qecs)
		}
	}
	if err != nil {
		dnswire.PutBuffer(buf)
		return dnswire.RcodeServerFailure, err
	}
	if err := WriteImage(w, buf, n); err != nil {
		return dnswire.RcodeServerFailure, err
	}
	return at.rcode, nil
}

// String summarizes the cache for debugging.
func (c *Cache) String() string {
	s := c.Stats()
	return fmt.Sprintf("cache{shards=%d entries=%d hits=%d misses=%d coalesced=%d}",
		s.Shards, s.Entries, s.Hits, s.Misses, s.Coalesced)
}
