package dnsserver

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnsclient"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/vclock"
)

// scriptedUpstream is a loopback UDP server that answers each query
// with whatever datagrams reply returns, in order.
func scriptedUpstream(t *testing.T, reply func(q *dnswire.Message, raw []byte) [][]byte) netip.AddrPort {
	t.Helper()
	conn, err := net.ListenUDP("udp", net.UDPAddrFromAddrPort(netip.MustParseAddrPort("127.0.0.1:0")))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 4096)
		for {
			n, from, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			q := new(dnswire.Message)
			if err := q.Unpack(buf[:n]); err != nil {
				t.Errorf("upstream: %v", err)
				continue
			}
			for _, d := range reply(q, buf[:n]) {
				if _, err := conn.WriteToUDPAddrPort(d, from); err != nil {
					t.Errorf("upstream write: %v", err)
				}
			}
		}
	}()
	t.Cleanup(func() {
		conn.Close()
		<-done
	})
	return conn.LocalAddr().(*net.UDPAddr).AddrPort()
}

func mustPack(t *testing.T, m *dnswire.Message) []byte {
	t.Helper()
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestSpoofedRepliesNeitherRelayedNorCached is the off-path spoofing
// case against the relay path: the upstream socket is pooled and its
// replies now reach the client and the cache as the bytes that arrived.
// Forged datagrams landing on that socket ahead of the real reply — a
// burst with guessed IDs, and right-ID ones that are not a response, or
// answer another question, or carry the question compressed — must not
// be relayed, must not be stored, and must not cost the exchange its
// attempt (RFC 5452 §9).
func TestSpoofedRepliesNeitherRelayedNorCached(t *testing.T) {
	const real, poison = "192.0.2.1", "203.0.113.66"
	var asked atomic.Int32
	up := scriptedUpstream(t, func(q *dnswire.Message, raw []byte) [][]byte {
		asked.Add(1)
		answer := func(addr string, mutate func(*dnswire.Message)) []byte {
			m := new(dnswire.Message)
			m.SetReply(q)
			m.Answers = []dnswire.RR{&dnswire.A{
				Hdr:  dnswire.RRHeader{Name: q.Question().Name, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 300},
				Addr: netip.MustParseAddr(addr),
			}}
			m.SetEDNS(1232)
			if mutate != nil {
				mutate(m)
			}
			return mustPack(t, m)
		}
		var out [][]byte
		for i := uint16(1); i <= 64; i++ {
			out = append(out, answer(poison, func(m *dnswire.Message) { m.ID += i }))
		}
		compressed := append(append([]byte(nil), raw[:12]...), 0xC0, 0x04, 0, 1, 0, 1)
		compressed[2] |= 0x80
		return append(out,
			answer(poison, func(m *dnswire.Message) { m.Response = false }),
			answer(poison, func(m *dnswire.Message) { m.Questions[0].Name = "other.spoof.test." }),
			answer(poison, func(m *dnswire.Message) { m.Questions[0].Class = dnswire.ClassANY }),
			compressed,
			answer(real, nil))
	})

	tr := &dnsclient.NetTransport{}
	defer tr.Close()
	stub := NewStub(&dnsclient.Client{Transport: tr, Timeout: 2 * time.Second, Retries: 1})
	stub.Route("spoof.test.", up)
	cache := NewCache(vclock.NewReal())
	h := Chain(cache, stub)

	for i, want := range []CacheStats{{Misses: 1}, {Misses: 1, Hits: 1}} {
		sink := &wireSink{}
		req := ecsQueryFor("www.spoof.test.", "10.1.2.0/24")
		req.Msg.ID = uint16(100 + i)
		if rcode := ResolveTo(context.Background(), h, sink, req); rcode != dnswire.RcodeSuccess {
			t.Fatalf("query %d: rcode %v", i, rcode)
		}
		var got dnswire.Message
		if err := got.Unpack(sink.wire); err != nil {
			t.Fatalf("query %d: reply does not unpack (WriteMsg used: %v): %v", i, sink.msg != nil, err)
		}
		if addr := got.Answers[0].(*dnswire.A).Addr.String(); addr != real || got.ID != req.Msg.ID {
			t.Fatalf("query %d answered %s under ID %d: a forged datagram got through", i, addr, got.ID)
		}
		if st := cache.Stats(); st.Misses != want.Misses || st.Hits != want.Hits || st.Entries != 1 {
			t.Errorf("after query %d: cache stats %+v", i, st)
		}
	}
	if n := asked.Load(); n != 1 {
		t.Errorf("upstream was asked %d times: a forged datagram failed an attempt", n)
	}
	if st := tr.Stats(); st.Dialed != 1 || st.Discarded != 0 {
		t.Errorf("socket stats %+v: the exchange should have kept its one socket", st)
	}
}

// TestRelayIsTheUpstreamsBytes: what Stub relays — to the client and
// into the cache — is the image that arrived, restamped, not a re-pack
// of it: an upstream that compresses differently than Pack (here: not
// at all, and in upper case) is relayed octet for octet, on the miss
// and on the hit, and decoded only for a writer that cannot take bytes.
func TestRelayIsTheUpstreamsBytes(t *testing.T) {
	up := scriptedUpstream(t, func(q *dnswire.Message, raw []byte) [][]byte {
		img := append([]byte(nil), raw...)
		img[2] |= 0x84 // QR, AA
		img[7] = 1     // ANCOUNT
		img = append(img, 3, 'W', 'W', 'W', 5, 'R', 'E', 'L', 'A', 'Y', 4, 'T', 'E', 'S', 'T', 0,
			0, 1, 0, 1, 0, 0, 1, 44, 0, 4, 192, 0, 2, 77) // WWW.RELAY.TEST. 300 IN A 192.0.2.77
		return [][]byte{img}
	})
	tr := &dnsclient.NetTransport{}
	defer tr.Close()
	stub := NewStub(&dnsclient.Client{Transport: tr, Timeout: 2 * time.Second})
	stub.Route("relay.test.", up)
	cache := NewCache(&vclock.Fixed{})
	h := Chain(cache, stub)

	var first []byte
	for i := 0; i < 2; i++ { // the miss, then the hit
		req := queryFor("www.relay.test.")
		req.Msg.ID = uint16(7 + i)
		sink := &wireSink{}
		if rcode := ResolveTo(context.Background(), h, sink, req); rcode != dnswire.RcodeSuccess || sink.msg != nil {
			t.Fatalf("query %d: rcode %v, WriteMsg used: %v", i, rcode, sink.msg != nil)
		}
		if got := sink.wire[len(sink.wire)-30 : len(sink.wire)-14]; string(got) != "\x03WWW\x05RELAY\x04TEST\x00" {
			t.Errorf("query %d: owner name on the wire is %q, not the upstream's bytes", i, got)
		}
		if id := uint16(sink.wire[0])<<8 | uint16(sink.wire[1]); id != req.Msg.ID {
			t.Errorf("query %d: reply ID %d, want %d", i, id, req.Msg.ID)
		}
		if i == 0 {
			first = append([]byte(nil), sink.wire[2:]...)
		} else if string(sink.wire[2:]) != string(first) {
			t.Errorf("the hit differs from the miss past the ID:\n% x\n% x", sink.wire[2:], first)
		}
	}
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache stats %+v", st)
	}
	resp := Resolve(context.Background(), h, queryFor("www.relay.test."))
	if len(resp.Answers) != 1 || resp.Answers[0].(*dnswire.A).Addr.String() != "192.0.2.77" {
		t.Errorf("a message writer got %v", resp)
	}
}

// TestMalformedUpstreamImageIsNotRelayed: an upstream reply that answers
// the question asked but is not a well-formed message fails the
// exchange, as it did when the client decoded every reply; it reaches
// neither the client nor the cache.
func TestMalformedUpstreamImageIsNotRelayed(t *testing.T) {
	var asked atomic.Int32
	up := scriptedUpstream(t, func(q *dnswire.Message, raw []byte) [][]byte {
		m := new(dnswire.Message)
		m.SetReply(q)
		m.Answers = []dnswire.RR{&dnswire.A{
			Hdr:  dnswire.RRHeader{Name: q.Question().Name, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 300},
			Addr: netip.MustParseAddr("203.0.113.66"),
		}}
		good := mustPack(t, m)
		bad := append([]byte(nil), good...)
		switch asked.Add(1) {
		case 1:
			bad = append(bad, 0) // a trailing octet
		case 2:
			bad[len(bad)-5] = 5 // an A record of five octets, one more than there are
		default:
			bad[len(bad)-15] = 2 // the owner's pointer, aimed into the header
		}
		return [][]byte{bad}
	})
	tr := &dnsclient.NetTransport{}
	defer tr.Close()
	stub := NewStub(&dnsclient.Client{Transport: tr, Timeout: 2 * time.Second, Retries: 2})
	stub.Route("bad.test.", up)
	cache := NewCache(&vclock.Fixed{})
	sink := &wireSink{}
	rcode := ResolveTo(context.Background(), Chain(cache, stub), sink, queryFor("www.bad.test."))
	var got dnswire.Message
	if err := got.Unpack(sink.wire); rcode != dnswire.RcodeServerFailure || err != nil || got.Rcode != rcode || len(got.Answers) != 0 {
		t.Errorf("rcode %v, replied % x; want the SERVFAIL ResolveTo synthesizes and nothing relayed", rcode, sink.wire)
	}
	if n := asked.Load(); n != 3 {
		t.Errorf("upstream asked %d times, want all 3 attempts", n)
	}
	if st := cache.Stats(); st.Entries != 0 {
		t.Errorf("cache stats %+v: a malformed image was stored", st)
	}
}

// TestStoreAllocBudget: storing a one-answer image into a warm slab —
// the cache full, so every store evicts an entry and takes over its
// slot, buffers and all — allocates nothing, whether the answer keys the
// entry as the miss resolved it or under a key of its own. Nothing is
// decoded, the walk's TTL offsets are the caller's, and no key string is
// built.
func TestStoreAllocBudget(t *testing.T) {
	// A new name, so a new key at either scope, each time: one name's
	// new keys stop being stored at maxScopes.
	reqs := make([]*Request, 4*64+1001) // the warm-up, then AllocsPerRun's 1000 runs and its first
	for i := range reqs {
		reqs[i] = ecsQueryFor(fmt.Sprintf("n%d.alloc.test.", i), "10.1.2.0/24")
	}
	for _, c := range []struct {
		name  string
		scope uint8
	}{{"a key of its own", 16}, {"the flight's key", 24}} {
		image := upstreamImage(t, ecsAnswerHandler("192.0.2.9", c.scope), reqs[0])
		img, err := dnswire.PatchOffsets(image, nil)
		if err != nil {
			t.Fatal(err)
		}
		cache := NewCache(&vclock.Fixed{})
		cache.MaxEntries = 64
		i := 0
		store := func() {
			cache.store(reqs[i], image, &img)
			i++
		}
		for i < 4*cache.MaxEntries {
			store()
		}
		if allocs := testing.AllocsPerRun(1000, store); allocs != 0 {
			t.Errorf("%s: a store into a warm slab allocates %v times, want 0", c.name, allocs)
		}
		if st := cache.Stats(); st.Entries != 64 || st.Evictions < 1000 {
			t.Errorf("%s: cache stats %+v: every store should have evicted", c.name, st)
		}
	}
}
