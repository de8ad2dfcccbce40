//go:build pooldebug

package dnsserver

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnsclient"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/vclock"
)

func init() { poolOutstanding = dnswire.PoolOutstanding }

// TestServePathPoolBalance is the pool-leak regression test: drive
// every UDP serve path that touches pooled buffers — misses (packed
// once at store, replied from the image), plain and EDNS hits
// (ownership transfer through WriteWireOwned), and oversized replies
// (decoded at the cache boundary, clone-truncated in the writer) — and
// a burst of slow misses, each of which takes its packet buffer out of
// its ingress slot, gives the socket away mid-batch and sends its own
// reply; then shut the server down and require every checked-out buffer
// to be back in the pool. A positive delta is a leak on some exit path.
func TestServePathPoolBalance(t *testing.T) {
	zone := NewZone("bal.test.")
	if err := zone.AddA("www.bal.test.", 300, netip.MustParseAddr("192.0.2.5")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ { // big.bal.test. packs past 512 bytes → truncation path
		if err := zone.AddA("big.bal.test.", 300, netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	cache := NewCache(vclock.NewReal())
	srv := &Server{
		Addr:       "127.0.0.1:0",
		Handler:    Chain(cache, &slowPlugin{delay: 20 * time.Millisecond}, NewZonePlugin(zone)),
		QueueDepth: 4, // the burst below overruns it: shed queries hold buffers too
	}

	base := dnswire.PoolOutstanding()
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("udp", srv.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 4096)
	ask := func(name string, id uint16, edns bool) {
		t.Helper()
		q := new(dnswire.Message)
		q.SetQuestion(name, dnswire.TypeA)
		q.ID = id
		if edns {
			q.SetEDNS(1232)
		}
		wire, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Read(buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	for i := 0; i < 8; i++ {
		ask("www.bal.test.", uint16(1+i), false)   // miss, then hits
		ask("www.bal.test.", uint16(100+i), true)  // EDNS hits
		ask("big.bal.test.", uint16(200+i), false) // decode boundary + clone-truncate every time
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Fatalf("expected cache hits, got %+v", st)
	}
	const burst = 12
	for i := 0; i < burst; i++ { // distinct names: no coalescing, every one waits or is shed
		q := new(dnswire.Message)
		q.SetQuestion(fmt.Sprintf("m%d.bal.test.", i), dnswire.TypeA)
		if _, err := conn.Write(mustPack(t, q)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, func() bool { return srv.ServedPackets()+srv.DroppedPackets() == 24+burst })
	if srv.DroppedPackets() == 0 || srv.DroppedPackets() == burst {
		t.Fatalf("burst of %d: %d shed; want some shed and some served by a goroutine that gave the socket away", burst, srv.DroppedPackets())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// The socket loops release their armed ingress buffers as they
	// end, possibly a beat after Shutdown returns.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if dnswire.PoolOutstanding() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%d pooled buffers still checked out after shutdown (baseline %d)",
		dnswire.PoolOutstanding(), base)
}

// ownedSink takes ownership of the cache's patch buffer, like the
// server's UDP writer; failing makes it refuse the reply, which still
// transfers ownership.
type ownedSink struct {
	wireSink
	failing bool
}

func (s *ownedSink) WriteWireOwned(buf []byte, n int) error {
	defer dnswire.PutBuffer(buf)
	if s.failing {
		return errors.New("sink refuses")
	}
	return s.WriteWire(buf[:n])
}

// TestReplyPoolBalance drives every exit of the cache's one reply
// routine — WriteWire, WriteWireOwned (accepting and refusing), the
// decode boundary for a message writer and for an oversized reply, and
// the ECS echo failing — and requires each pooled patch buffer to have
// been returned exactly once (a second return panics under this tag).
func TestReplyPoolBalance(t *testing.T) {
	cache := NewCache(&vclock.Fixed{})
	h := Chain(cache, pluginize(ecsAnswerHandler("192.0.2.9", 16)))
	base := dnswire.PoolOutstanding()
	Resolve(context.Background(), h, ecsQueryFor("pool.test.", "10.1.1.0/24")) // store + decode boundary

	badECS := ecsQueryFor("pool.test.", "10.1.3.0/24")
	for _, tc := range []struct {
		name    string
		w       ResponseWriter
		req     *Request
		wantErr bool
	}{
		{"WriteWire", &wireSink{}, ecsQueryFor("pool.test.", "10.1.2.0/24"), false},
		{"WriteWireOwned", &ownedSink{}, ecsQueryFor("pool.test.", "10.1.2.0/25"), false},
		{"WriteWireOwned refusing", &ownedSink{failing: true}, ecsQueryFor("pool.test.", "10.1.2.0/24"), true},
		{"message writer", &recorder{}, ecsQueryFor("pool.test.", "10.1.2.0/23"), false},
		{"oversized", &wireSink{size: 20}, ecsQueryFor("pool.test.", "10.1.2.0/24"), false},
		{"echo fails", &wireSink{}, badECS, true},
	} {
		if tc.req == badECS {
			ecs, _ := tc.req.Msg.ECS()
			ecs.Family = 9 // keyed like IPv4, so still a hit; not packable
		}
		_, err := h.ServeDNS(context.Background(), tc.w, tc.req)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, want error: %v", tc.name, err, tc.wantErr)
		}
		if out := dnswire.PoolOutstanding(); out != base {
			t.Errorf("%s: %d pooled buffers outstanding, want %d", tc.name, out, base)
		}
	}
	if st := cache.Stats(); st.Hits != 6 {
		t.Errorf("hits = %d, want every case served from the cache (6)", st.Hits)
	}
}

// TestExchangePoolBalance drives every exit of the upstream UDP
// exchange — the matching reply (alone, and behind a stray datagram),
// the deadline, a cancellation in mid-read, an already-cancelled
// context, a refused port and a query too short to send — and requires
// the pooled read buffer to be out exactly when the caller holds the
// reply, and back after every failure (a second return panics under
// this tag).
func TestExchangePoolBalance(t *testing.T) {
	// The upstream answers by echoing the query with QR set, preceded
	// by a stray datagram when the name (first label byte) says so;
	// "mute" queries get nothing.
	upstream, err := net.ListenUDP("udp", net.UDPAddrFromAddrPort(netip.MustParseAddrPort("127.0.0.1:0")))
	if err != nil {
		t.Fatal(err)
	}
	defer upstream.Close()
	const plain, stray, mute = 'p', 's', 'm'
	got := make(chan struct{}, 8) // one token per query seen; the test sends fewer than 8
	go func() {
		buf := make([]byte, 512)
		for {
			n, from, err := upstream.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			got <- struct{}{}
			switch buf[13] {
			case stray:
				upstream.WriteToUDPAddrPort([]byte{buf[0] ^ 0xFF, buf[1], 0, 0}, from)
				fallthrough
			case plain:
				buf[2] |= 0x80 // the transport passes over anything that is not a response
				upstream.WriteToUDPAddrPort(buf[:n], from)
			}
		}
	}()
	up := upstream.LocalAddr().(*net.UDPAddr).AddrPort()
	query := func(kind byte) []byte {
		q := new(dnswire.Message)
		q.SetQuestion(string(kind)+".pool.test.", dnswire.TypeA)
		q.ID = 0xBEEF
		wire, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	closed, err := net.ListenUDP("udp", net.UDPAddrFromAddrPort(netip.MustParseAddrPort("127.0.0.1:0")))
	if err != nil {
		t.Fatal(err)
	}
	refused := closed.LocalAddr().(*net.UDPAddr).AddrPort()
	closed.Close()

	tr := &dnsclient.NetTransport{}
	defer tr.Close()
	base := dnswire.PoolOutstanding()
	within := func(d time.Duration) (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), d)
	}
	cancelled := func(time.Duration) (context.Context, context.CancelFunc) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return ctx, cancel
	}
	cancelledInRead := func(time.Duration) (context.Context, context.CancelFunc) {
		ctx, cancel := context.WithCancel(context.Background())
		for len(got) > 0 {
			<-got
		}
		go func() {
			<-got
			cancel()
		}()
		return ctx, cancel
	}
	for _, tc := range []struct {
		name   string
		ctx    func(time.Duration) (context.Context, context.CancelFunc)
		server netip.AddrPort
		query  []byte
		wantOK bool
	}{
		{"reply", within, up, query(plain), true},
		{"stray then reply", within, up, query(stray), true},
		{"deadline", within, up, query(mute), false},
		{"cancelled in read", cancelledInRead, up, query(mute), false},
		{"already cancelled", cancelled, up, query(plain), false},
		{"refused", within, refused, query(plain), false},
		{"short query", within, up, []byte{1}, false},
	} {
		timeout := 50 * time.Millisecond
		if tc.wantOK {
			timeout = 2 * time.Second
		}
		ctx, cancel := tc.ctx(timeout)
		resp, err := tr.Exchange(ctx, tc.server, tc.query, false)
		cancel()
		if (err == nil) != tc.wantOK {
			t.Errorf("%s: err = %v, want success: %v", tc.name, err, tc.wantOK)
		}
		if err == nil {
			if out := dnswire.PoolOutstanding(); out != base+1 {
				t.Errorf("%s: %d pooled buffers outstanding while the reply is held, want %d", tc.name, out, base+1)
			}
			dnswire.PutBuffer(resp)
		}
		if out := dnswire.PoolOutstanding(); out != base {
			t.Errorf("%s: %d pooled buffers outstanding, want %d", tc.name, out, base)
		}
	}
	if st := tr.Stats(); st.Dialed != 3 || st.Discarded != 3 {
		t.Errorf("socket stats = %+v, want 3 dialed and all 3 discarded (deadline, cancel, refused)", st)
	}
}

// TestRelayPoolBalance follows the upstream reply's buffer through the
// relay path, where it changes owner twice — transport → the cache's
// recorder → the socket writer — on every exit: a stored answer, an
// answer too large for the client (decoded and truncated by the
// writer), a SERVFAIL verdict relayed as the last resort (kept while
// the second upstream is tried, then relayed uncached), a malformed
// reply and a dead upstream. After the servers have drained, every
// buffer is back.
func TestRelayPoolBalance(t *testing.T) {
	zone := NewZone("relay.test.")
	if err := zone.AddA("www.relay.test.", 300, netip.MustParseAddr("192.0.2.5")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ { // past 512 octets: the L-DNS decodes it to truncate
		if err := zone.AddA("big.relay.test.", 300, netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	base := dnswire.PoolOutstanding()
	cdns := &Server{Addr: "127.0.0.1:0", Handler: Chain(NewZonePlugin(zone))}
	if err := cdns.Start(); err != nil {
		t.Fatal(err)
	}
	servfail := scriptedUpstream(t, func(q *dnswire.Message, _ []byte) [][]byte {
		m := new(dnswire.Message)
		m.SetRcode(q, dnswire.RcodeServerFailure)
		return [][]byte{mustPack(t, m)}
	})
	malformed := scriptedUpstream(t, func(q *dnswire.Message, _ []byte) [][]byte {
		m := new(dnswire.Message)
		m.SetReply(q)
		return [][]byte{append(mustPack(t, m), 0)}
	})
	dead, err := net.ListenUDP("udp", net.UDPAddrFromAddrPort(netip.MustParseAddrPort("127.0.0.1:0")))
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.LocalAddr().(*net.UDPAddr).AddrPort()
	dead.Close()

	tr := &dnsclient.NetTransport{}
	stub := NewStub(&dnsclient.Client{Transport: tr, Timeout: 200 * time.Millisecond})
	stub.Route("relay.test.", cdns.LocalAddr())
	stub.Route("fail.test.", servfail, servfail)
	stub.Route("bad.test.", malformed)
	stub.Route("dead.test.", deadAddr)
	ldns := &Server{Addr: "127.0.0.1:0", Handler: Chain(NewCache(vclock.NewReal()), stub)}
	if err := ldns.Start(); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("udp", ldns.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 4096)
	for i, tc := range []struct {
		name string
		want dnswire.Rcode
	}{
		{"www.relay.test.", dnswire.RcodeSuccess}, {"www.relay.test.", dnswire.RcodeSuccess},
		{"big.relay.test.", dnswire.RcodeSuccess}, {"big.relay.test.", dnswire.RcodeSuccess},
		{"x.fail.test.", dnswire.RcodeServerFailure}, {"x.bad.test.", dnswire.RcodeServerFailure},
		{"x.dead.test.", dnswire.RcodeServerFailure},
	} {
		q := new(dnswire.Message)
		q.SetQuestion(tc.name, dnswire.TypeA)
		q.ID = uint16(1 + i)
		if _, err := conn.Write(mustPack(t, q)); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rc := dnswire.Rcode(buf[3] & 0xF); n < 12 || rc != tc.want {
			t.Errorf("%s: rcode %v, want %v", tc.name, rc, tc.want)
		}
	}
	for _, srv := range []*Server{ldns, cdns} {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		cancel()
	}
	tr.Close()
	deadline := time.Now().Add(2 * time.Second)
	for dnswire.PoolOutstanding() != base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if out := dnswire.PoolOutstanding(); out != base {
		t.Fatalf("%d pooled buffers still checked out after the relay path drained (baseline %d)", out, base)
	}
}
