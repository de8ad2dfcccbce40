package dnsserver

import (
	"bytes"
	"context"
	"net/netip"
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
