package dnsserver

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/vclock"
)

// echoSourceScope makes ecsAnswerHandler echo scope = the query's
// source prefix (an authority tailoring as finely as clients disclose).
const echoSourceScope = 255

// ecsAnswerHandler answers with an A record and echoes the query's ECS
// option at the given scope (or the source prefix for echoSourceScope),
// per RFC 7871 §7.2.1.
func ecsAnswerHandler(addr string, scope uint8) Handler {
	return HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		m := new(dnswire.Message)
		m.SetReply(r.Msg)
		m.Answers = []dnswire.RR{&dnswire.A{
			Hdr:  dnswire.RRHeader{Name: r.Name(), Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 30},
			Addr: netip.MustParseAddr(addr),
		}}
		if ecs, ok := r.Msg.ECS(); ok {
			echo := *ecs
			if scope == echoSourceScope {
				echo.ScopePrefix = ecs.SourcePrefix
			} else {
				echo.ScopePrefix = scope
			}
			opt := m.SetEDNS(dnswire.DefaultEDNSSize)
			opt.Options = append(opt.Options, &echo)
		}
		return m.Rcode, w.WriteMsg(m)
	})
}

// ecsQueryFor builds an A query for name disclosing the given subnet.
func ecsQueryFor(name, prefix string) *Request {
	r := queryFor(name)
	opt := r.Msg.SetEDNS(1232)
	opt.Options = append(opt.Options, dnswire.NewECSOption(netip.MustParsePrefix(prefix)))
	return r
}

// A /16-scoped answer must serve every sibling /24 from one cache
// entry — the acceptance-criteria behavior — while a different /16
// still resolves its own.
func TestCacheScopedAnswerSharedAcrossSiblings(t *testing.T) {
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	backend := &countingPlugin{h: ecsAnswerHandler("192.0.2.9", 16)}
	h := Chain(cache, backend)

	resp := Resolve(context.Background(), h, ecsQueryFor("scoped.test.", "10.1.1.0/24"))
	if backend.hits != 1 {
		t.Fatalf("first query: backend hits = %d", backend.hits)
	}
	ecs, ok := resp.ECS()
	if !ok || ecs.ScopePrefix != 16 {
		t.Fatalf("first response ECS = %v %v, want scope 16", ecs, ok)
	}

	// Sibling /24 inside the same /16: served from the same entry.
	resp = Resolve(context.Background(), h, ecsQueryFor("scoped.test.", "10.1.2.0/24"))
	if backend.hits != 1 {
		t.Errorf("sibling /24 went upstream: backend hits = %d, want 1", backend.hits)
	}
	ecs, ok = resp.ECS()
	if !ok {
		t.Fatal("cached response lost its ECS option")
	}
	// RFC 7871 §7.2.1: the echo mirrors *this* query's address and
	// source, keeping the stored answer's scope.
	if want := netip.MustParseAddr("10.1.2.0"); ecs.Address != want || ecs.SourcePrefix != 24 || ecs.ScopePrefix != 16 {
		t.Errorf("sibling echo = %s/%d/%d, want %s/24/16",
			ecs.Address, ecs.SourcePrefix, ecs.ScopePrefix, want)
	}

	// A /24 in a different /16 is outside the stored scope: resolves.
	Resolve(context.Background(), h, ecsQueryFor("scoped.test.", "10.2.1.0/24"))
	if backend.hits != 2 {
		t.Errorf("different /16: backend hits = %d, want 2", backend.hits)
	}

	s := cache.Stats()
	if s.Hits != 1 || s.Misses != 2 {
		t.Errorf("stats hits=%d misses=%d, want 1/2", s.Hits, s.Misses)
	}
	if s.Entries != 2 {
		t.Errorf("entries = %d, want 2 (one per /16 scope key)", s.Entries)
	}
}

// An answer without ECS (or scoped /0) is valid for every address
// (RFC 7871 §7.2.2): one entry serves all disclosed subnets.
func TestCacheScopeZeroSharedGlobally(t *testing.T) {
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	backend := &countingPlugin{h: answerHandler("192.0.2.9")} // no ECS echo
	h := Chain(cache, backend)
	Resolve(context.Background(), h, ecsQueryFor("zero.test.", "10.1.0.0/24"))
	Resolve(context.Background(), h, ecsQueryFor("zero.test.", "172.16.0.0/24"))
	Resolve(context.Background(), h, ecsQueryFor("zero.test.", "192.0.2.0/24"))
	if backend.hits != 1 {
		t.Errorf("scope-0 answer fragmented: backend hits = %d, want 1", backend.hits)
	}
	// A non-ECS query for the same name keys separately from scope-0
	// ECS entries (the ECS suffix is part of the key).
	Resolve(context.Background(), h, queryFor("zero.test."))
	if backend.hits != 2 {
		t.Errorf("plain query: backend hits = %d, want 2", backend.hits)
	}
}

// The same scope semantics must hold for IPv6 disclosures, whose
// scope-hint bits live beyond the first mask word.
func TestCacheScopedV6(t *testing.T) {
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	backend := &countingPlugin{h: ecsAnswerHandler("192.0.2.9", 48)}
	h := Chain(cache, backend)
	Resolve(context.Background(), h, ecsQueryFor("six.test.", "2001:db8:7:1::/64"))
	Resolve(context.Background(), h, ecsQueryFor("six.test.", "2001:db8:7:2::/64"))
	if backend.hits != 1 {
		t.Errorf("sibling /64 inside the /48 scope went upstream: hits = %d", backend.hits)
	}
	Resolve(context.Background(), h, ecsQueryFor("six.test.", "2001:db8:8:1::/64"))
	if backend.hits != 2 {
		t.Errorf("different /48: hits = %d, want 2", backend.hits)
	}
}

// A narrower-scoped entry must not answer a query that disclosed less
// than the scope: a /24-scoped entry is invisible to a /16 disclosure.
func TestCacheScopeNeverExceedsDisclosure(t *testing.T) {
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	backend := &countingPlugin{h: ecsAnswerHandler("192.0.2.9", echoSourceScope)}
	h := Chain(cache, backend)
	Resolve(context.Background(), h, ecsQueryFor("narrow.test.", "10.1.1.0/24"))
	Resolve(context.Background(), h, ecsQueryFor("narrow.test.", "10.1.0.0/16"))
	if backend.hits != 2 {
		t.Errorf("/16 disclosure used a /24-scoped entry: hits = %d, want 2", backend.hits)
	}
}

// An ECS hit reaches a wire-capable writer as patched stored bytes —
// the echo spliced in place — byte-identical to the decode-and-repack
// oracle, and a message writer gets those same bytes decoded.
func TestECSWireHitMatchesOracle(t *testing.T) {
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	backend := &countingPlugin{h: ecsAnswerHandler("192.0.2.9", 16)}
	h := Chain(cache, backend)

	warm := ecsQueryFor("wireecs.test.", "10.1.1.0/24")
	stored := upstreamImage(t, ecsAnswerHandler("192.0.2.9", 16), warm)
	if resp := Resolve(context.Background(), h, warm); resp.Rcode != dnswire.RcodeSuccess {
		t.Fatalf("warm rcode = %v", resp.Rcode)
	}
	clock.Time += 10 * time.Second

	// Siblings inside the /16 scope, at a shorter, an equal and a longer
	// source length than the stored echo: the splice shrinks, keeps and
	// grows the option.
	for _, prefix := range []string{"10.1.0.0/17", "10.1.2.0/24", "10.1.2.128/27"} {
		q := func() *Request {
			r := ecsQueryFor("wireecs.test.", prefix)
			r.Msg.ID = 0x7A7A
			return r
		}
		want, err := oracleReply(stored, q().Msg, 10, false)
		if err != nil {
			t.Fatal(err)
		}

		fast := &wireSink{}
		if rcode := ResolveTo(context.Background(), h, fast, q()); rcode != dnswire.RcodeSuccess {
			t.Fatalf("%s: wire-writer hit rcode = %v", prefix, rcode)
		}
		if fast.wire == nil || fast.msg != nil {
			t.Fatalf("%s: ECS hit not served as wire bytes", prefix)
		}
		if !bytes.Equal(fast.wire, want) {
			t.Fatalf("%s: ECS wire hit differs from the oracle:\n% x\n% x", prefix, fast.wire, want)
		}

		slow := &msgWriter{}
		if _, err := h.ServeDNS(context.Background(), slow, q()); err != nil {
			t.Fatal(err)
		}
		if !slow.Written() {
			t.Fatalf("%s: message-writer hit wrote nothing", prefix)
		}
		if repacked, err := slow.msg.Pack(); err != nil || !bytes.Equal(repacked, want) {
			t.Fatalf("%s: message-writer hit differs from the oracle (%v):\n% x\n% x", prefix, err, repacked, want)
		}

		var got dnswire.Message
		if err := got.Unpack(fast.wire); err != nil {
			t.Fatal(err)
		}
		ecs, ok := got.ECS()
		if !ok {
			t.Fatalf("%s: served response lost ECS", prefix)
		}
		if want := netip.MustParsePrefix(prefix); ecs.Prefix() != want || ecs.ScopePrefix != 16 {
			t.Errorf("%s: echo = %s/%d/%d, want %s scope 16", prefix, ecs.Address, ecs.SourcePrefix, ecs.ScopePrefix, want)
		}
		if len(got.Answers) != 1 || got.Answers[0].Header().TTL != 20 {
			t.Errorf("%s: answers = %v, want one A aged to TTL 20", prefix, got.Answers)
		}
	}
	if backend.hits != 1 {
		t.Errorf("backend hits = %d, want 1", backend.hits)
	}
}

// A refresh-ahead prefetch of a scoped entry stores under the key the
// *refreshed* answer dictates: when the authority has since narrowed
// its scope from /16 to /24, the /24-tailored answer must not replace
// the /16 entry, where every sibling /24 would be served it.
func TestPrefetchRescopedAnswerKeyedByItsOwnScope(t *testing.T) {
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	cache.PrefetchFrac = 0.5
	var scope, reached atomic.Int32
	scope.Store(16)
	origin := HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		defer reached.Add(1)
		return ecsAnswerHandler("192.0.2.9", uint8(scope.Load())).ServeDNS(ctx, w, r)
	})
	h := Chain(cache, pluginize(origin))

	Resolve(context.Background(), h, ecsQueryFor("rescope.test.", "10.1.1.0/24")) // stored at /16
	scope.Store(24)
	clock.Time += 20 * time.Second // TTL 30: inside the refresh window
	Resolve(context.Background(), h, ecsQueryFor("rescope.test.", "10.1.1.0/24"))
	waitFor(t, 2*time.Second, func() bool { return reached.Load() == 2 && cache.Stats().Entries == 2 })

	// The /16 entry has expired; only 10.1.1.0/24 has a (fresh) entry,
	// short of its own refresh window (16 s of 30 left), so the hit on it
	// below spawns no prefetch that could reach the origin behind it.
	clock.Time += 14 * time.Second
	resp := Resolve(context.Background(), h, ecsQueryFor("rescope.test.", "10.1.2.0/24"))
	if got := reached.Load(); got != 3 {
		t.Errorf("sibling /24 was served the refreshed /24-scoped answer from cache (origin reached %d times, want 3)", got)
	}
	if ecs, ok := resp.ECS(); !ok || ecs.ScopePrefix != 24 || ecs.Address != netip.MustParseAddr("10.1.2.0") {
		t.Errorf("sibling response ECS = %v %v, want 10.1.2.0/24 scope 24", ecs, ok)
	}
	Resolve(context.Background(), h, ecsQueryFor("rescope.test.", "10.1.1.0/24"))
	if got := reached.Load(); got != 3 {
		t.Errorf("refreshed 10.1.1.0/24 entry missing: origin reached %d times, want 3", got)
	}
}

// Ingress normalization: a query arriving with a nonzero scope or
// stray host bits is scrubbed before the cache keys on it, so hostile
// variants of the same disclosure cannot fragment the cache.
func TestQueryECSNormalizedAtIngress(t *testing.T) {
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	backend := &countingPlugin{h: ecsAnswerHandler("192.0.2.9", echoSourceScope)}
	h := Chain(cache, backend)

	dirty := queryFor("norm.test.")
	opt := dirty.Msg.SetEDNS(1232)
	opt.Options = append(opt.Options, &dnswire.ECSOption{
		Family:       1,
		SourcePrefix: 24,
		ScopePrefix:  13,                               // must be zero in queries
		Address:      netip.MustParseAddr("10.1.1.77"), // stray host bits
	})
	resp := Resolve(context.Background(), h, dirty)
	ecs, ok := resp.ECS()
	if !ok {
		t.Fatal("response lacks ECS")
	}
	if want := netip.MustParseAddr("10.1.1.0"); ecs.Address != want {
		t.Errorf("echoed address = %v, want masked %v", ecs.Address, want)
	}

	// The clean form of the same disclosure hits the same entry.
	Resolve(context.Background(), h, ecsQueryFor("norm.test.", "10.1.1.0/24"))
	if backend.hits != 1 {
		t.Errorf("normalized duplicate went upstream: hits = %d, want 1", backend.hits)
	}
}

// entriesOf counts the cache entries of name's A question, unscoped and
// at every ECS scope.
func entriesOf(cache *Cache, name string) int {
	base := appendBaseKey(nil, queryFor(name))
	n := 0
	for _, sh := range cache.shards {
		sh.mu.Lock()
		for i := 1; i < len(sh.slots); i++ {
			if key := sh.slots[i].key(); len(key) > 0 && bytes.HasPrefix(key, base) {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// TestOneNameCannotTakeTheCache: the client writes the ECS bytes, so a
// client asking for one name from 5 000 ever new subnets, answered at
// the scope it disclosed, must not fill the cache — the name keeps at
// most maxScopes entries — and a hot set warmed before the flood must
// hit as well after it.
func TestOneNameCannotTakeTheCache(t *testing.T) {
	cache := NewCache(&vclock.Fixed{})
	backend := &countingPlugin{h: ecsAnswerHandler("192.0.2.9", echoSourceScope)}
	h := Chain(&ECS{}, cache, backend)
	hot := make([]*Request, 0, 2*256)
	for i := 0; i < 256; i++ {
		name := fmt.Sprintf("hot-%d.flood.test.", i)
		hot = append(hot, queryFor(name), ecsQueryFor(name, fmt.Sprintf("10.200.%d.0/24", i)))
	}
	replay := func() float64 {
		before := cache.Stats().Hits
		for _, r := range hot {
			Resolve(context.Background(), h, r)
		}
		return float64(cache.Stats().Hits-before) / float64(len(hot))
	}
	replay() // warm
	warm := replay()
	const flooded = "flood.flood.test."
	for i := 0; i < 5000; i++ {
		// A /32 in a /24 of its own, so the /24 clamp leaves it a new key.
		addr := netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 1})
		Resolve(context.Background(), h, ecsQueryFor(flooded, netip.PrefixFrom(addr, 32).String()))
	}
	if n := entriesOf(cache, flooded); n > maxScopes {
		t.Errorf("the flooded name holds %d entries, want at most %d", n, maxScopes)
	}
	if after := replay(); after < 0.99*warm {
		t.Errorf("the hot set hits %.3f after the flood, %.3f before", after, warm)
	}
}

// scopedRef is one entry of FuzzScopedLookup's reference cache.
type scopedRef struct {
	name    string
	prefix  netip.Prefix // the query address masked to the entry's scope
	expires time.Duration
	answer  netip.Addr
}

// FuzzScopedLookup differentially tests the ECS scope ladder against a
// plain list of entries. The fuzzer's bytes are decoded into stores,
// lookups and clock advances over three names, both families, arbitrary
// addresses, sources and answer scopes. A store keys its entry at
// min(answer scope, source) and, new to a name already at maxScopes,
// is refused. A lookup, its source clamped at ingress to /24 or /56,
// must be answered by the longest-scoped live entry of its name at no
// more bits than that source whose prefix covers its address, and miss
// without one; an expired entry it passes on the way is dropped. Each
// store answers with an address of its own, which tells entries apart,
// and after every operation the cache holds as many entries as the
// reference. The cache is large enough that nothing is evicted.
func FuzzScopedLookup(f *testing.F) {
	f.Add([]byte{0, 24, 16, 30, 10, 1, 2, 3, 2, 24, 0, 0, 10, 1, 9, 9, 3, 0, 31, 0, 0, 0, 0, 0, 2, 24, 0, 0, 10, 1, 9, 9})
	f.Add([]byte{0x10, 64, 48, 10, 1, 2, 3, 4, 0x12, 56, 0, 0, 1, 2, 3, 4, 0x12, 40, 0, 0, 1, 2, 3, 4})
	var flood []byte // one name past the bound, then a lookup for each
	for i := 0; i < maxScopes+8; i++ {
		flood = append(flood, 0, 32, 24, 60, 10, byte(i), byte(i), 1)
	}
	for i := 0; i < maxScopes+8; i++ {
		flood = append(flood, 2, 24, 0, 0, 10, byte(i), byte(i), 7)
	}
	f.Add(flood)
	names := []string{"a.scope.test.", "b.scope.test.", "c.scope.test."}
	f.Fuzz(func(t *testing.T, ops []byte) {
		clock := &vclock.Fixed{}
		cache := NewCache(clock)
		cache.MaxEntries = 1 << 14
		h := Chain(cache, pluginize(HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
			return dnswire.RcodeServerFailure, nil // a miss: relayed, never stored
		})))
		var ref []scopedRef
		stores := 0
		for n := 0; n+8 <= len(ops) && n < 8*512; n += 8 {
			op := ops[n : n+8]
			name := names[int(op[0]>>2&3)%len(names)]
			ecs := &dnswire.ECSOption{Family: 1, Address: netip.AddrFrom4([4]byte(op[4:8]))}
			famBits, clamp := 32, ecsPrefixV4
			if op[0]&0x10 != 0 {
				ecs.Family, famBits, clamp = 2, 128, ecsPrefixV6
				ecs.Address = netip.AddrFrom16([16]byte{0x20, 0x01, op[4], op[5], op[6], op[7], op[4] ^ op[7], op[5] ^ op[6]})
			}
			ecs.SourcePrefix = uint8(int(op[1]) % (famBits + 1))
			req := queryFor(name)
			req.Msg.SetEDNS(dnswire.DefaultEDNSSize).Options = []dnswire.EDNSOption{ecs}
			switch op[0] & 3 {
			case 0, 1: // store
				answer := netip.AddrFrom4([4]byte{198, 18, byte(stores >> 8), byte(stores)})
				stores++
				ttl := time.Duration(1+op[3]%64) * time.Second
				m := new(dnswire.Message).SetReply(req.Msg)
				m.Answers = []dnswire.RR{&dnswire.A{
					Hdr:  dnswire.RRHeader{Name: name, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: uint32(ttl / time.Second)},
					Addr: answer,
				}}
				echo := *ecs
				echo.ScopePrefix = op[2]
				m.SetEDNS(dnswire.DefaultEDNSSize).Options = []dnswire.EDNSOption{&echo}
				image, err := m.Pack()
				if err != nil || !storeImage(cache, req, image) {
					t.Fatalf("op %d: the image %v does not store (%v)", n/8, m, err)
				}
				prefix := netip.PrefixFrom(ecs.Address, min(int(op[2]), int(ecs.SourcePrefix))).Masked()
				i := slices.IndexFunc(ref, func(e scopedRef) bool { return e.name == name && e.prefix == prefix })
				held := 0
				for _, e := range ref {
					if e.name == name {
						held++
					}
				}
				switch {
				case i >= 0:
					ref[i].expires, ref[i].answer = clock.Now()+ttl, answer
				case held < maxScopes:
					ref = append(ref, scopedRef{name, prefix, clock.Now() + ttl, answer})
				}
			case 2: // lookup
				source := min(int(ecs.SourcePrefix), clamp)
				var want netip.Addr
				for scope := source; scope >= 0 && !want.IsValid(); scope-- {
					i := slices.IndexFunc(ref, func(e scopedRef) bool {
						return e.name == name && e.prefix.Bits() == scope && e.prefix.Contains(ecs.Address)
					})
					switch {
					case i < 0:
					case clock.Now() < ref[i].expires:
						want = ref[i].answer
					default:
						ref = slices.Delete(ref, i, i+1)
					}
				}
				resp := Resolve(context.Background(), h, req)
				var got netip.Addr
				if resp != nil && len(resp.Answers) == 1 {
					if a, ok := resp.Answers[0].(*dnswire.A); ok {
						got = a.Addr
					}
				}
				if got != want || !want.IsValid() && (resp == nil || resp.Rcode != dnswire.RcodeServerFailure) {
					t.Fatalf("op %d: %s from %s/%d answered %v (%v), want %v", n/8, name, ecs.Address, ecs.SourcePrefix, got, resp, want)
				}
			default:
				clock.Time += time.Duration(op[3]%64) * time.Second
			}
			if st := cache.Stats(); st.Entries != len(ref) {
				t.Fatalf("op %d: the cache holds %d entries, the reference %d", n/8, st.Entries, len(ref))
			}
		}
	})
}
