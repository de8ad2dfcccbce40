package dnsserver

import (
	"context"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnsclient"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/vclock"
)

// The scratch a serve loop parses into is rewritten by its next query,
// OPT record and ECS option in place (Message.UnpackQuery). Work that
// outlives the query it serves — a refresh-ahead prefetch, a hedged
// exchange's loser — runs on a clone of the request, and these tests pin
// that: after the next query reuses the scratch, the outliving work
// still carries its own query's ECS. Run with -race, which also catches
// a read of the scratch the assertions cannot time.

var (
	reuseClient = netip.MustParseAddrPort("198.51.100.7:4242")
	ownSubnet   = netip.MustParsePrefix("10.1.2.0/24")
	nextSubnet  = netip.MustParsePrefix("10.9.9.0/24")
)

// packECSQuery packs an A query for name disclosing subnet.
func packECSQuery(t *testing.T, name string, subnet netip.Prefix) []byte {
	t.Helper()
	wire, err := ecsQueryFor(name, subnet.String()).Msg.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func TestPrefetchKeepsItsOwnECS(t *testing.T) {
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	cache.PrefetchFrac = 0.5
	release := make(chan struct{})
	seen := make(chan netip.Prefix, 1)
	var calls atomic.Int32
	answer := ecsAnswerHandler("192.0.2.9", 24)
	backend := HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		if r.Name() == "pf.test." && calls.Add(1) == 2 { // the prefetch
			<-release
			ecs, ok := r.Msg.ECS()
			if !ok {
				seen <- netip.Prefix{}
			} else {
				seen <- ecs.Prefix()
			}
		}
		return answer.ServeDNS(ctx, w, r)
	})
	h := Chain(cache, pluginize(backend))
	st := &serveScratch{intern: dnswire.NewNameIntern(0)}
	serve := func(pkt []byte) {
		buf, _ := serveQuery(context.Background(), h, nil, st, pkt, reuseClient, "udp", maxUDPPayload)
		if buf == nil {
			t.Fatal("no reply")
		}
		dnswire.PutBuffer(buf)
	}

	own := packECSQuery(t, "pf.test.", ownSubnet)
	serve(own)                     // the miss that stores a 30 s answer
	clock.Time += 20 * time.Second // into the refresh-ahead window
	serve(own)                     // a hit, and the prefetch behind it
	serve(packECSQuery(t, "next.test.", nextSubnet))
	close(release)
	select {
	case got := <-seen:
		if got != ownSubnet {
			t.Errorf("the prefetch asked with ECS %v, want its own query's %v", got, ownSubnet)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the prefetch never asked the backend for its own name")
	}
	waitFor(t, 2*time.Second, func() bool { return cache.Stats().PrefetchIssued == 1 && calls.Load() == 2 })
}

// heldTransport answers every upstream with an A record, holding upA's
// answer until hold closes, and sends the ECS subnet of each query on
// that upstream's channel. The upstreams share no lock, so under -race
// nothing orders the held exchange's reads before the test's next
// query.
type heldTransport struct {
	hold <-chan struct{}
	sent map[netip.AddrPort]chan netip.Prefix
}

func (h *heldTransport) Exchange(_ context.Context, _ time.Time, server netip.AddrPort, query []byte, _ bool) ([]byte, error) {
	var q dnswire.Message
	if err := q.Unpack(query); err != nil {
		return nil, err
	}
	if server == upA {
		<-h.hold
	}
	var subnet netip.Prefix
	if ecs, ok := q.ECS(); ok {
		subnet = ecs.Prefix()
	}
	h.sent[server] <- subnet
	m := new(dnswire.Message).SetReply(&q)
	m.Answers = []dnswire.RR{&dnswire.A{
		Hdr:  dnswire.RRHeader{Name: q.Question().Name, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 30},
		Addr: netip.MustParseAddr("203.0.113.1"),
	}}
	return m.Pack()
}

func TestHedgedLoserKeepsItsOwnECS(t *testing.T) {
	release := make(chan struct{})
	tr := &heldTransport{hold: release, sent: map[netip.AddrPort]chan netip.Prefix{
		upA: make(chan netip.Prefix, 1), // the primary, which loses
		upB: make(chan netip.Prefix, 1),
	}}
	fwd := Chain(&Forward{
		Upstreams:  []netip.AddrPort{upA, upB},
		Client:     &dnsclient.Client{Transport: tr, Timeout: 2 * time.Second},
		Clock:      &vclock.Fixed{},
		HedgeDelay: time.Millisecond,
	})
	st := &serveScratch{intern: dnswire.NewNameIntern(0)}
	buf, _ := serveQuery(context.Background(), fwd, nil, st, packECSQuery(t, "hedge.test.", ownSubnet), reuseClient, "udp", maxUDPPayload)
	if buf == nil {
		t.Fatal("no reply")
	}
	dnswire.PutBuffer(buf)
	// The next query reuses the scratch while the loser is still out.
	if err := st.msg.UnpackQuery(packECSQuery(t, "next.test.", nextSubnet), st.intern); err != nil {
		t.Fatal(err)
	}
	close(release)
	for _, up := range []netip.AddrPort{upB, upA} {
		select {
		case got := <-tr.sent[up]:
			if got != ownSubnet {
				t.Errorf("%v was sent ECS %v, want the hedged query's own %v", up, got, ownSubnet)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%v was never asked", up)
		}
	}
}
