package dnsserver

import (
	"bytes"
	"context"
	"net/netip"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/vclock"
)

// This file holds the oracle the cache's one serve routine is held to:
// decode → restamp → age → echo → repack, on a decoded Message.
// Production code never edits a decoded response; the reference lives
// in test code only.

// patchECSEcho rewrites the ECS echo of a decoded cached response for
// the query q: Address, SourcePrefix, and Family mirror the query per
// RFC 7871 §7.2.1, while ScopePrefix keeps the stored answer's scope.
func patchECSEcho(msg, q *dnswire.Message) {
	qecs, ok := q.ECS()
	if !ok {
		return
	}
	recs, ok := msg.ECS()
	if !ok {
		return
	}
	recs.Family = qecs.Family
	recs.Address = qecs.Address
	recs.SourcePrefix = qecs.SourcePrefix
}

// oracleReply is the reference reply to q from a stored response image:
// decode it, restamp ID and the RD/CD mirror bits, rewrite the ECS
// echo, age every non-OPT TTL (or, stale, clamp it down to staleTTL),
// and repack.
func oracleReply(stored []byte, q *dnswire.Message, age uint32, stale bool) ([]byte, error) {
	var msg dnswire.Message
	if err := msg.Unpack(stored); err != nil {
		return nil, err
	}
	msg.ID = q.ID
	msg.RecursionDesired = q.RecursionDesired
	msg.CheckingDisabled = q.CheckingDisabled
	patchECSEcho(&msg, q)
	for _, section := range [][]dnswire.RR{msg.Answers, msg.Authorities, msg.Additionals} {
		for _, rr := range section {
			h := rr.Header()
			switch {
			case h.Type == dnswire.TypeOPT:
			case stale:
				h.TTL = min(h.TTL, staleTTL)
			case h.TTL > age:
				h.TTL -= age
			default:
				h.TTL = 0
			}
		}
	}
	return msg.Pack()
}

// effectiveTTL is the reference for the lifetime store reads off the
// bytes: the minimum answer TTL for positive answers, or the SOA MinTTL
// rule of RFC 2308 for negative ones. Server failures are not cached.
func effectiveTTL(msg *dnswire.Message) time.Duration {
	switch msg.Rcode {
	case dnswire.RcodeSuccess, dnswire.RcodeNameError:
	default:
		return 0
	}
	if len(msg.Answers) > 0 {
		min := uint32(1<<32 - 1)
		for _, rr := range msg.Answers {
			if rr.Header().Type == dnswire.TypeOPT {
				continue
			}
			if rr.Header().TTL < min {
				min = rr.Header().TTL
			}
		}
		return time.Duration(min) * time.Second
	}
	for _, rr := range msg.Authorities {
		if soa, ok := rr.(*dnswire.SOA); ok {
			ttl := soa.Hdr.TTL
			if soa.MinTTL < ttl {
				ttl = soa.MinTTL
			}
			return time.Duration(ttl) * time.Second
		}
	}
	return 0
}

// upstreamImage packs what h answers req with — the image a cache in
// front of h stores.
func upstreamImage(t *testing.T, h Handler, req *Request) []byte {
	t.Helper()
	wire, err := Resolve(context.Background(), h, req).Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// fuzzQuery builds the query side of one FuzzHitPatch case. mode picks
// no OPT, OPT only, ECS over IPv4 or ECS over IPv6; source is reduced to
// the family's width, so 0 and non-octet-aligned lengths all occur.
func fuzzQuery(id uint16, rd, cd bool, mode, source uint8, addr []byte) *Request {
	q := new(dnswire.Message)
	q.SetQuestion("fuzz.test.", dnswire.TypeA)
	q.ID, q.RecursionDesired, q.CheckingDisabled = id, rd, cd
	var a16 [16]byte
	copy(a16[:], addr)
	switch mode % 4 {
	case 1:
		q.SetEDNS(1232)
	case 2:
		opt := q.SetEDNS(1232)
		opt.Options = append(opt.Options, &dnswire.ECSOption{
			Family: 1, SourcePrefix: source % 33, Address: netip.AddrFrom4([4]byte(a16[:4])),
		})
	case 3:
		opt := q.SetEDNS(1232)
		opt.Options = append(opt.Options, &dnswire.ECSOption{
			Family: 2, SourcePrefix: source % 129, Address: netip.AddrFrom16(a16),
		})
	}
	req := &Request{Msg: q, Client: netip.MustParseAddrPort("198.51.100.7:4242"), Transport: "test"}
	normalizeQueryECS(req) // as Resolve/ResolveTo do before any plugin runs
	return req
}

// FuzzHitPatch is the differential test of the one stored form. An
// arbitrary well-formed response is stored twice — the image as it
// arrived, which is what Stub and Forward relay, and its decode → Pack,
// which is what the recorder keeps of a chain that answered with a
// Message — and for a query with any ID, RD/CD and OPT/ECS shape:
//
//   - both entries carry the key, rcode and lifetime the decoded message
//     dictates (the effectiveTTL oracle);
//   - the bytes Cache.reply emits from the packed one — aged by
//     0/1/30/2^20 seconds, or stale-clamped — equal the oracle's, and a
//     writer that cannot take bytes is handed a message that packs to
//     the very same bytes;
//   - the bytes it emits from the arrived one decode to that same
//     message (its compression is the upstream's, so they are compared
//     repacked).
func FuzzHitPatch(f *testing.F) {
	seed := func(build func(m *dnswire.Message)) []byte {
		m := new(dnswire.Message)
		m.SetQuestion("fuzz.test.", dnswire.TypeA)
		m.Response = true
		m.Answers = []dnswire.RR{
			&dnswire.CNAME{Hdr: dnswire.RRHeader{Name: "fuzz.test.", Type: dnswire.TypeCNAME, Class: dnswire.ClassINET, TTL: 300}, Target: "pop.fuzz.test."},
			&dnswire.A{Hdr: dnswire.RRHeader{Name: "pop.fuzz.test.", Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 20}, Addr: netip.MustParseAddr("192.0.2.9")},
		}
		build(m)
		wire, err := m.Pack()
		if err != nil {
			f.Fatal(err)
		}
		return wire
	}
	plain := seed(func(*dnswire.Message) {})
	optOnly := seed(func(m *dnswire.Message) { m.SetEDNS(1232) })
	ecs4 := seed(func(m *dnswire.Message) {
		opt := m.SetEDNS(1232)
		opt.Options = append(opt.Options,
			&dnswire.GenericOption{OptCode: dnswire.OptionCodeCookie, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
			&dnswire.ECSOption{Family: 1, SourcePrefix: 24, ScopePrefix: 16, Address: netip.MustParseAddr("10.1.1.0")},
			&dnswire.GenericOption{OptCode: dnswire.OptionCodePadding, Data: make([]byte, 5)})
	})
	ecs6 := seed(func(m *dnswire.Message) {
		opt := m.SetEDNS(1232)
		opt.Options = append(opt.Options,
			&dnswire.ECSOption{Family: 2, SourcePrefix: 56, ScopePrefix: 48, Address: netip.MustParseAddr("2001:db8:7::")})
	})
	negative := seed(func(m *dnswire.Message) {
		m.Rcode, m.Answers = dnswire.RcodeNameError, nil
		m.Authorities = []dnswire.RR{&dnswire.SOA{Hdr: dnswire.RRHeader{Name: "test.", Type: dnswire.TypeSOA, Class: dnswire.ClassINET, TTL: 900},
			NS: "ns.test.", Mbox: "admin.test.", MinTTL: 60}}
	})
	// An upstream that does not compress, and answers in upper case.
	uncompressed := []byte{0, 0, 0x84, 0, 0, 1, 0, 1, 0, 0, 0, 0,
		4, 'f', 'u', 'z', 'z', 4, 't', 'e', 's', 't', 0, 0, 1, 0, 1,
		4, 'F', 'U', 'Z', 'Z', 4, 'T', 'E', 'S', 'T', 0, 0, 1, 0, 1, 0, 0, 0, 77, 0, 4, 192, 0, 2, 9}
	addr := []byte{10, 1, 2, 255, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5, 6, 7, 8}
	for _, resp := range [][]byte{plain, optOnly, ecs4, ecs6, negative, uncompressed} {
		for mode := uint8(0); mode < 4; mode++ {
			f.Add(resp, uint16(0x7a7a), mode&1 == 0, mode&2 == 0, mode, uint8(23), addr)
		}
	}
	f.Add(ecs4, uint16(1), true, false, uint8(2), uint8(0), addr)
	f.Add(ecs4, uint16(2), false, true, uint8(3), uint8(128), addr)

	f.Fuzz(func(t *testing.T, data []byte, id uint16, rd, cd bool, mode, source uint8, addr []byte) {
		var resp dnswire.Message
		if err := resp.Unpack(data); err != nil {
			return
		}
		req := fuzzQuery(id, rd, cd, mode, source, addr)
		cache := NewCache(&vclock.Fixed{})
		arrived := cache.store(req, data)
		var packed *cacheEntry
		if wire, err := resp.Pack(); err == nil {
			packed = cache.store(req, wire)
		}
		for _, ent := range []*cacheEntry{arrived, packed} {
			if ent == nil {
				continue // an ECS-bearing OPT that is not last: never cached
			}
			if life, want := ent.expires-ent.stored, min(effectiveTTL(&resp), maxTTL); ent.rcode != resp.Rcode || life != want {
				t.Fatalf("stored rcode %v for %v, the message says %v for %v", ent.rcode, life, resp.Rcode, want)
			}
			if packed != nil && ent.key != packed.key {
				t.Fatalf("the arrived image is keyed %q, its repack %q", ent.key, packed.key)
			}
		}
		type replyCase struct {
			age   uint32
			stale bool
		}
		for _, c := range []replyCase{{age: 0}, {age: 1}, {age: 30}, {age: 1 << 20}, {stale: true}} {
			sink := &wireSink{size: dnswire.MaxMessageSize}
			var want []byte
			if packed != nil {
				var oerr error
				want, oerr = oracleReply(packed.wire, req.Msg, c.age, c.stale)
				_, err := cache.reply(sink, req, packed, c.age, c.stale)
				if oerr != nil {
					if err == nil {
						t.Fatalf("%+v: reply succeeded where the oracle fails: %v", c, oerr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%+v: reply failed: %v", c, err)
				}
				if sink.msg != nil || !bytes.Equal(sink.wire, want) {
					t.Fatalf("%+v: reply != decode-restamp-repack oracle (WriteMsg used: %v):\n% x\n% x",
						c, sink.msg != nil, sink.wire, want)
				}
				// The decode boundary hands over that same image.
				rec := &recorder{}
				if _, err := cache.reply(rec, req, packed, c.age, c.stale); err != nil {
					t.Fatalf("%+v: reply to a message writer failed: %v", c, err)
				}
				if got, err := rec.msg.Pack(); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%+v: decoded reply repacks differently (%v):\n% x\n% x", c, err, got, want)
				}
			}
			if arrived == nil || want == nil {
				continue
			}
			if _, err := cache.reply(sink, req, arrived, c.age, c.stale); err != nil {
				t.Fatalf("%+v: reply from the arrived image failed: %v", c, err)
			}
			var got dnswire.Message
			if err := got.Unpack(sink.wire); err != nil {
				t.Fatalf("%+v: reply from the arrived image does not unpack: %v\n% x", c, err, sink.wire)
			}
			if repacked, err := got.Pack(); err != nil || !bytes.Equal(repacked, want) {
				t.Fatalf("%+v: the arrived image answers differently from its repack (%v):\n% x\n% x", c, err, repacked, want)
			}
		}
	})
}

// TestECSHitAllocatesLikePlainHit pins the point of the single serve
// path: with a pre-parsed request, a wire-taking writer and telemetry
// off, an ECS hit allocates exactly what a plain hit does — nothing.
func TestECSHitAllocatesLikePlainHit(t *testing.T) {
	cache := NewCache(&vclock.Fixed{})
	h := Chain(cache, pluginize(ecsAnswerHandler("192.0.2.9", 16)))
	plain, ecs := queryFor("alloc.test."), ecsQueryFor("alloc.test.", "10.1.2.0/24")
	Resolve(context.Background(), h, queryFor("alloc.test."))
	Resolve(context.Background(), h, ecsQueryFor("alloc.test.", "10.1.1.0/24")) // sibling: scoped hit below

	sink := &wireSink{wire: make([]byte, 0, 512)}
	measure := func(req *Request) float64 {
		return testing.AllocsPerRun(200, func() {
			sink.written = false
			if rcode := ResolveTo(context.Background(), h, sink, req); rcode != dnswire.RcodeSuccess {
				t.Fatalf("rcode = %v", rcode)
			}
		})
	}
	plainAllocs, ecsAllocs := measure(plain), measure(ecs)
	if sink.msg != nil {
		t.Fatal("a hit went through WriteMsg")
	}
	if plainAllocs != 0 || ecsAllocs != plainAllocs {
		t.Errorf("allocs per hit: plain %v, ECS %v; want 0 and 0", plainAllocs, ecsAllocs)
	}
	if st := cache.Stats(); st.Misses != 2 {
		t.Errorf("misses = %d, want only the two warm-ups", st.Misses)
	}
}
