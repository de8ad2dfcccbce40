package dnsserver

import (
	"context"
	"fmt"
	mathbits "math/bits"
	"strconv"
	"sync"
	"sync/atomic"
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
// The cache is sharded by key hash: each shard has its own mutex and
// SIEVE queue, so concurrent queries for different names never contend
// on one lock. A hit only sets its entry's visited bit, and eviction
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

	// scope4/scope6 are per-family bitmask hints of which ECS scope
	// lengths have ever been stored (bit S set ⇔ some entry is keyed at
	// scope S). An ECS lookup probes only the set scopes, longest
	// first, so a table with two distinct scopes costs two map probes,
	// not 33. Bits are only ever set (entries expire but scopes stay
	// plausible); updated with a CAS loop, read with a single load.
	// scope4 holds bits 0..32; scope6 bits 0..128 across three words.
	scope4 atomic.Uint64
	scope6 [3]atomic.Uint64
}

const (
	// maxTTL caps stored lifetimes.
	maxTTL = time.Hour
	// staleTTL is the clamp, in seconds, applied to the TTLs of stale
	// answers — the RFC 8767 recommendation: never the original TTL
	// (long expired) and never zero (which clients treat as uncacheable
	// and immediately re-ask).
	staleTTL = 30
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
// next from free. Index 0 means none for hand and free.
type cacheShard struct {
	mu         sync.Mutex
	items      map[string]int32
	slots      []cacheSlot
	hand, free int32
	max        int
	ctr        *cacheCounters
	flights    map[string]*flight
	// Per-lookup effectiveness counters, guarded by mu (see
	// cacheCounters). Summed across shards at scrape time.
	hits, misses, negHits, expired, evictions uint64
}

// cacheSlot is one slab slot; prev is the newer neighbour, next the
// older one (or, on a free slot, the next free slot).
type cacheSlot struct {
	ent        *cacheEntry
	prev, next int32
	visited    bool
}

// reset empties the shard; the slab grows on demand up to max slots.
func (sh *cacheShard) reset() {
	sh.items, sh.slots = make(map[string]int32), make([]cacheSlot, 1)
	sh.hand, sh.free = 0, 0
}

// remove unlinks slot i, drops its key and frees the slot. A hand
// resting on it moves to its newer neighbour.
func (sh *cacheShard) remove(i int32) {
	s := &sh.slots[i]
	if sh.hand == i {
		sh.hand = s.prev
	}
	sh.slots[s.prev].next, sh.slots[s.next].prev = s.next, s.prev
	delete(sh.items, s.ent.key)
	*s = cacheSlot{next: sh.free}
	sh.free = i
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
// for the same key wait on. It holds the leader's reply image too, so
// the flight is the one allocation a miss makes for its exchange.
type flight struct {
	// done is made by the first query to join the flight, under the
	// shard lock, and closed by the leader once the flight is out of the
	// table; a flight nobody joins never makes one.
	done chan struct{}
	// rec is what the chain wrote for the leader's request, kept whole;
	// reply cuts it to the client's size.
	rec replyImage
	// ent is the answer the leader obtained — fresh, or (stale set) an
	// expired entry served per RFC 8767; nil when the leader failed, in
	// which case waiters relay rcode and err.
	ent   *cacheEntry
	stale bool
	rcode dnswire.Rcode
	err   error
}

type cacheEntry struct {
	key string
	// wire is the packed response, the only stored form of an entry,
	// and ttlOffs/ecs the patch positions recorded once at insert: the
	// non-OPT TTL fields and the OPT's ECS option. Every reply is a
	// copy of wire patched at those positions (see Cache.reply).
	wire     []byte
	ttlOffs  []int
	ttlBuf   [4]int // backs ttlOffs for the usual answer of a few records
	ecs      dnswire.ECSAt
	rcode    dnswire.Rcode
	negative bool // NXDOMAIN/NODATA, for the negative-hit counter
	stored   time.Duration
	expires  time.Duration
	// refreshing latches once a refresh-ahead prefetch has been
	// spawned for this stored generation; store() replaces the whole
	// entry, so the flag resets naturally when the refresh lands. It
	// is the only mutable field of an otherwise immutable entry.
	refreshing atomic.Bool
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
			sh := &cacheShard{max: max / n, ctr: &c.ctr, flights: make(map[string]*flight)}
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

// shardOf returns the shard owning key, taken while still in its stack
// buffer so the hit path never materializes the key string.
func (c *Cache) shardOf(key []byte) *cacheShard {
	c.init()
	if len(c.shards) == 1 {
		return c.shards[0]
	}
	return c.shards[keyhash.Sum64(key)%uint64(len(c.shards))]
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
		s.Entries += len(sh.items)
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

// cacheKeyBuf sizes the stack buffer lookups build their key in; a
// maximal DNS name (255 octets) plus type and ECS suffixes fits. The
// key string is materialized only on a miss (as the singleflight
// identity) and at store.
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
// masked down to that length. Binary and allocation-free, unlike the
// Prefix().String() rendering it replaces, and parameterized on the
// length so one query can probe several scopes.
func appendECSKey(b []byte, ecs *dnswire.ECSOption, bits, famBits int) []byte {
	if bits < 0 {
		bits = 0
	}
	if bits > famBits {
		bits = famBits
	}
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

// markScope records that an entry exists keyed at the given family and
// scope length, so lookups know to probe it.
func (c *Cache) markScope(famBits, scope int) {
	if famBits == 32 {
		orBit(&c.scope4, scope)
		return
	}
	orBit(&c.scope6[scope>>6], scope&63)
}

// orBit sets bit b of w. A CAS loop instead of atomic.Or keeps the
// module at its declared go 1.22 floor.
func orBit(w *atomic.Uint64, b int) {
	mask := uint64(1) << b
	for {
		old := w.Load()
		if old&mask != 0 || w.CompareAndSwap(old, old|mask) {
			return
		}
	}
}

// serveScoped is the ECS cache lookup. RFC 7871 §7.3.1: a cached
// entry answers a query when its scope-masked prefix covers the
// query's address at no more bits than the client disclosed, most
// specific entry first. Entries are keyed at store time by the
// *answer's* scope (see store), so the lookup probes the
// base key extended with each plausible scope length in descending
// order — bounded by the per-family scope-hint bitmask, which in
// practice holds a handful of bits, not all 33/129. Probes reuse the
// caller's stack buffer: each one overwrites the previous suffix, so
// the ladder allocates nothing.
//
// It returns the key and shard the caller should resolve under on a
// miss (the full source-masked key — also the singleflight identity)
// or the key/shard of the hit, plus the lookup outcome. Counting: a
// hit is counted by serveHit on the hit's shard; a miss is counted
// here, once, on the resolve key's shard, keeping the
// Hits+Misses+Expired == lookups invariant even though one lookup may
// probe several shards.
func (c *Cache) serveScoped(kb *[cacheKeyBuf]byte, ecs *dnswire.ECSOption, now time.Duration, w ResponseWriter, r *Request) ([]byte, *cacheShard, lookupResult) {
	base := appendBaseKey(kb[:0], r)
	baseLen := len(base)
	famBits := ecsFamilyBits(ecs)
	source := min(int(ecs.SourcePrefix), famBits)
	var stale *cacheEntry
	probe := func(scope int) ([]byte, *cacheShard, lookupResult, bool) {
		key := appendECSKey(base[:baseLen], ecs, scope, famBits)
		psh := c.shardOf(key)
		pres := c.serveHit(psh, key, now, w, r, false)
		if pres.hit {
			return key, psh, pres, true
		}
		if pres.stale != nil && stale == nil {
			stale = pres.stale // longest-scope stale candidate wins
		}
		return nil, nil, lookupResult{}, false
	}
	if famBits == 32 {
		word := c.scope4.Load()
		if source < 63 {
			word &= (uint64(1) << (source + 1)) - 1
		}
		for word != 0 {
			s := 63 - mathbits.LeadingZeros64(word)
			if key, sh, res, ok := probe(s); ok {
				return key, sh, res
			}
			word &^= uint64(1) << s
		}
	} else {
		for wi := 2; wi >= 0; wi-- {
			word := c.scope6[wi].Load()
			lo := wi * 64
			if source < lo {
				continue
			}
			if source < lo+63 {
				word &= (uint64(1) << (source - lo + 1)) - 1
			}
			for word != 0 {
				s := 63 - mathbits.LeadingZeros64(word)
				if key, sh, res, ok := probe(lo + s); ok {
					return key, sh, res
				}
				word &^= uint64(1) << s
			}
		}
	}
	qkey := appendECSKey(base, ecs, source, famBits)
	qsh := c.shardOf(qkey)
	qsh.mu.Lock()
	if stale != nil {
		qsh.expired++
	} else {
		qsh.misses++
	}
	qsh.mu.Unlock()
	return qkey, qsh, lookupResult{stale: stale}
}

// lookupResult is the outcome of one cache lookup.
type lookupResult struct {
	hit   bool
	rcode dnswire.Rcode
	err   error
	// refresh, set on a hit, is the entry whose remaining TTL has
	// entered the refresh-ahead window; ServeDNS spawns an async
	// re-resolve for it after the hit has been served.
	refresh *cacheEntry
	// stale, set on a miss, is an expired entry still inside the
	// MaxStale window — the RFC 8767 fallback should the refill fail.
	stale *cacheEntry
}

// ServeDNS implements Plugin.
func (c *Cache) ServeDNS(ctx context.Context, w ResponseWriter, r *Request, next Handler) (dnswire.Rcode, error) {
	var kb [cacheKeyBuf]byte
	lookup := telemetry.StartHop(ctx, "cache")
	now := c.Clock.Now()
	var kbuf []byte
	var sh *cacheShard
	var res lookupResult
	if ecs, ok := r.Msg.ECS(); ok {
		kbuf, sh, res = c.serveScoped(&kb, ecs, now, w, r)
	} else {
		kbuf = appendBaseKey(kb[:0], r)
		sh = c.shardOf(kbuf)
		res = c.serveHit(sh, kbuf, now, w, r, true)
	}
	if res.hit {
		lookup.End("hit")
		if res.refresh != nil {
			c.spawnPrefetch(res.refresh, sh, string(kbuf), r, next)
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
	if f, ok := sh.flights[string(kbuf)]; ok {
		if f.done == nil {
			f.done = make(chan struct{})
		}
		done := f.done
		c.ctr.coalesced.Inc()
		sh.mu.Unlock()
		wait := telemetry.StartHop(ctx, "coalesce")
		select {
		case <-done:
			wait.End("shared")
		case <-ctx.Done():
			wait.End("canceled")
			return dnswire.RcodeServerFailure, ctx.Err()
		}
		if f.ent == nil {
			return f.rcode, f.err
		}
		return c.reply(w, r, f.ent, 0, f.stale)
	}
	key := string(kbuf)
	f := new(flight)
	sh.flights[key] = f
	sh.mu.Unlock()
	return c.fill(ctx, sh, f, key, w, r, next, res.stale)
}

// fill performs the upstream exchange for a miss as the leader of
// flight f (registered under key in sh), stores the answer, publishes
// it to coalesced waiters and replies to its own client from the same
// stored image. When the exchange fails and stale carries an expired
// entry still in its RFC 8767 window, the stale answer is served —
// better a recently-true answer than a SERVFAIL, for a bounded window.
func (c *Cache) fill(ctx context.Context, sh *cacheShard, f *flight, key string, w ResponseWriter, r *Request, next Handler, stale *cacheEntry) (dnswire.Rcode, error) {
	rec := &f.rec
	rec.limit = dnswire.MaxMessageSize
	rcode, err := next.ServeDNS(ctx, rec, r)
	answered := err == nil && rec.buf != nil
	var fresh *cacheEntry
	if answered {
		fresh = c.store(r, rec.buf[:rec.n], key)
	}
	if stale != nil && (!answered || fresh != nil && failoverRcode(fresh.rcode)) {
		c.ctr.staleServes.Inc()
		f.ent, f.stale = stale, true
	} else {
		f.ent = fresh
	}
	f.rcode, f.err = rcode, err
	sh.mu.Lock()
	delete(sh.flights, key)
	done := f.done
	sh.mu.Unlock()
	if done != nil {
		close(done)
	}
	if f.ent != nil {
		dnswire.PutBuffer(rec.buf)
		return c.reply(w, r, f.ent, 0, f.stale)
	}
	if rec.buf == nil {
		return rcode, err
	}
	// Relay what the chain wrote, uncached: it came with an error, or it
	// is an image the cache cannot patch.
	if werr := WriteImage(w, rec.buf, rec.n); werr != nil && err == nil {
		return dnswire.RcodeServerFailure, werr
	}
	return rcode, err
}

// store caches image — the answer to r as the chain wrote it; the
// leader's reply, its waiters' and every later hit are all served from
// a copy of these bytes — for the lifetime its records give it, under
// the key the *answer* dictates. For a non-ECS request that is the
// question. For ECS, RFC 7871 §7.3.1 keying: the response's scope
// prefix — 0 when the answer carried no ECS option (§7.2.2: such an
// answer is valid for all addresses), clamped to the disclosed source
// length — masks the query address into the entry key. A /16-scoped
// answer to a /24 query is therefore stored once under the /16 key,
// where every sibling /24 finds it, instead of fragmenting into 256
// identical entries. The key is always derived here, never taken from
// the lookup: a refresh of a /16 entry may come back scoped /24, and
// must not land under the /16 key. Only when the derived key has the
// same bytes as flightKey, the key the miss resolved under, does the
// entry share that string instead of making its own.
//
// Rcode, lifetime, scope and patch positions all come from one walk over
// the bytes, dnswire.PatchOffsets; nothing is decoded. A response with
// no cacheable lifetime (server failures among them) is returned as an
// entry but not inserted (coalesced waiters still need it); store
// returns nil for an image the walk refuses.
func (c *Cache) store(r *Request, image []byte, flightKey string) *cacheEntry {
	ent := new(cacheEntry)
	img, err := dnswire.PatchOffsets(image, ent.ttlBuf[:0])
	if err != nil {
		return nil
	}
	var ttl time.Duration
	if img.Rcode == dnswire.RcodeSuccess || img.Rcode == dnswire.RcodeNameError {
		ttl = min(time.Duration(img.TTL)*time.Second, maxTTL)
	}
	ent.wire = append([]byte(nil), image...)
	ent.ttlOffs, ent.ecs, ent.rcode = img.TTLs, img.ECS, img.Rcode
	ent.negative = img.Rcode != dnswire.RcodeSuccess || img.Answers == 0
	ent.stored = c.Clock.Now()
	ent.expires = ent.stored + ttl
	if ttl <= 0 {
		return ent
	}
	var kb [cacheKeyBuf]byte
	kbuf := appendBaseKey(kb[:0], r)
	if ecs, ok := r.Msg.ECS(); ok {
		famBits := ecsFamilyBits(ecs)
		scope := min(int(img.Scope), int(ecs.SourcePrefix), famBits)
		c.markScope(famBits, scope)
		kbuf = appendECSKey(kbuf, ecs, scope, famBits)
	}
	if string(kbuf) == flightKey {
		ent.key = flightKey
	} else {
		ent.key = string(kbuf)
	}
	sh := c.shardOf(kbuf)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if i, ok := sh.items[ent.key]; ok {
		// A refill: the query that missed is an access to the key.
		sh.slots[i].ent, sh.slots[i].visited = ent, true
		return ent
	}
	for len(sh.items) >= sh.max {
		sh.evict()
	}
	i := sh.free
	if i != 0 {
		sh.free = sh.slots[i].next
	} else {
		i = int32(len(sh.slots))
		sh.slots = append(sh.slots, cacheSlot{})
	}
	// New entries go in at the head, unvisited.
	head := sh.slots[0].next
	sh.slots[i] = cacheSlot{ent: ent, next: head}
	sh.slots[head].prev, sh.slots[0].next = i, i
	sh.items[ent.key] = i
	return ent
}

// spawnPrefetch launches the refresh-ahead re-resolve for a hit whose
// TTL has entered the prefetch window. The hit itself has already
// been served; the refresh runs on a background goroutine, bounded by
// the prefetch semaphore, deduplicated per stored generation (the
// entry's refreshing latch) and per key (the singleflight table, so a
// concurrent miss's exchange is shared rather than duplicated), and
// registered with Background so a graceful drain waits for it.
func (c *Cache) spawnPrefetch(ent *cacheEntry, sh *cacheShard, key string, r *Request, next Handler) {
	if !ent.refreshing.CompareAndSwap(false, true) {
		c.ctr.prefetchCoalesced.Inc()
		return
	}
	select {
	case c.prefetchSem <- struct{}{}:
	default:
		// Prefetch is an optimization: at the concurrency bound the
		// entry keeps serving until it actually expires, so shed the
		// refresh and let a later hit in the window retry.
		ent.refreshing.Store(false)
		c.ctr.prefetchDropped.Inc()
		return
	}
	release := func() { <-c.prefetchSem }
	var done func()
	if c.Background != nil {
		var ok bool
		if done, ok = c.Background.TrackBackground(); !ok {
			release() // draining: no new background resolves
			ent.refreshing.Store(false)
			return
		}
	}
	sh.mu.Lock()
	if _, busy := sh.flights[key]; busy {
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
	f := new(flight)
	sh.flights[key] = f
	sh.mu.Unlock()
	c.ctr.prefetchIssued.Inc()
	// The request is cloned because the refresh outlives the serving
	// goroutine that owns r — and without r's ingress hook: the refresh
	// waits on a goroutine of its own, holding no socket.
	req := &Request{Msg: r.Msg.Clone(), Client: r.Client, Transport: r.Transport}
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
		rcode, err := c.fill(context.Background(), sh, f, key, &reply, req, next, nil)
		dnswire.PutBuffer(reply.buf)
		if err != nil || failoverRcode(rcode) {
			// The refresh failed; unlatch so a later hit retries
			// (bounded by the semaphore if the upstream stays down).
			ent.refreshing.Store(false)
		}
	}()
}

// serveHit looks key up and, on a live entry, replies from it and
// returns a hit result. Only the map lookup and the visited bit run
// under the shard lock; replying runs outside it, which is safe because
// stored entries are immutable — store replaces whole entries and every
// reader patches its own copy.
//
// Hits whose remaining TTL has entered the PrefetchFrac window carry
// the entry back in lookupResult.refresh; expired entries still inside
// the MaxStale window are kept in place (the refill's store replaces
// them) and returned in lookupResult.stale.
//
// count gates the miss-side counters (misses, expired): a scoped ECS
// lookup probes several keys for one logical lookup and counts its
// overall outcome in serveScoped instead. Hit counters are always
// credited here, on the shard that actually served.
func (c *Cache) serveHit(sh *cacheShard, key []byte, now time.Duration, w ResponseWriter, r *Request, count bool) lookupResult {
	sh.mu.Lock()
	i, ok := sh.items[string(key)] // no alloc: map lookup by converted key
	if !ok {
		if count {
			sh.misses++
		}
		sh.mu.Unlock()
		return lookupResult{}
	}
	slot := &sh.slots[i]
	ent := slot.ent
	if now >= ent.expires {
		if c.MaxStale > 0 && now < ent.expires+c.MaxStale {
			// Keep the expired entry: it is the serve-stale fallback
			// if the refill fails, and store() replaces it if the
			// refill succeeds. Still a miss for accounting.
			if count {
				sh.expired++
			}
			sh.mu.Unlock()
			return lookupResult{stale: ent}
		}
		sh.remove(i)
		if count {
			sh.expired++
		}
		sh.mu.Unlock()
		return lookupResult{}
	}
	if !slot.visited { // a hot slot's line is not dirtied on every hit
		slot.visited = true
	}
	sh.hits++
	if ent.negative {
		sh.negHits++
	}
	sh.mu.Unlock()
	res := lookupResult{hit: true}
	if frac := c.PrefetchFrac; frac > 0 {
		life := ent.expires - ent.stored
		if float64(ent.expires-now) <= frac*float64(life) {
			res.refresh = ent
		}
	}
	res.rcode, res.err = c.reply(w, r, ent, uint32((now-ent.stored)/time.Second), false)
	return res
}

// reply is the one way a cached response leaves the cache — live hit,
// RFC 8767 stale answer, coalesced waiter, and the leader's own fresh
// fill alike. The stored wire image is copied into a pooled buffer and
// restamped for r in place: transaction ID, the question name's letter
// case (the image keeps the first asker's), the RD/CD mirror bits, the
// TTLs (aged by the seconds spent in cache, or clamped down to staleTTL
// when stale), and the RFC 7871 §7.2.1 ECS echo. The result decodes to
// what decoding the image, editing the message and repacking it would
// give — and, for an image Pack wrote, is that byte for byte (the
// FuzzHitPatch invariants) — at none of the cost. WriteImage sends it.
func (c *Cache) reply(w ResponseWriter, r *Request, ent *cacheEntry, age uint32, stale bool) (dnswire.Rcode, error) {
	buf := dnswire.GetBuffer()
	n := copy(buf, ent.wire)
	dnswire.PatchID(buf[:n], r.Msg.ID)
	dnswire.PatchQuestionCase(buf[:n], r.Msg.Question().Name)
	dnswire.PatchReplyBits(buf[:n], r.Msg.RecursionDesired, r.Msg.CheckingDisabled)
	if stale {
		dnswire.ClampTTLs(buf[:n], ent.ttlOffs, staleTTL)
	} else {
		dnswire.AgeTTLs(buf[:n], ent.ttlOffs, age)
	}
	if qecs, ok := r.Msg.ECS(); ok && ent.ecs != (dnswire.ECSAt{}) {
		var err error
		if n, err = dnswire.EchoECS(buf, n, ent.ecs, qecs); err != nil {
			dnswire.PutBuffer(buf)
			return dnswire.RcodeServerFailure, err
		}
	}
	if err := WriteImage(w, buf, n); err != nil {
		return dnswire.RcodeServerFailure, err
	}
	return ent.rcode, nil
}

// String summarizes the cache for debugging.
func (c *Cache) String() string {
	s := c.Stats()
	return fmt.Sprintf("cache{shards=%d entries=%d hits=%d misses=%d coalesced=%d}",
		s.Shards, s.Entries, s.Hits, s.Misses, s.Coalesced)
}
