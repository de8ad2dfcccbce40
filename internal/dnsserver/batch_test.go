package dnsserver

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/telemetry"
	"github.com/meccdn/meccdn/internal/vclock"
)

// waitOdd is a plugin that says it waits for every name with an odd
// digit in front, so that half the queries are finished — reply sent,
// served counted — by a goroutine that has given its socket away.
type waitOdd struct{}

func (waitOdd) Name() string { return "waitodd" }
func (waitOdd) ServeDNS(ctx context.Context, w ResponseWriter, r *Request, next Handler) (dnswire.Rcode, error) {
	if name := r.Name(); (name[1]-'0')%2 == 1 && !r.mayWait() {
		return dnswire.RcodeServerFailure, errIngressFull
	}
	return next.ServeDNS(ctx, w, r)
}

// TestWorkerCounterAggregationExact pins the sharded-counter contract:
// with per-socket cells instead of shared atomics, the aggregated
// totals must still be exact — the sum over the sockets' packet cells
// equals the number of packets sent, and the sum over their served
// cells the number of responses the clients actually received, whether
// the socket's lead sent them or a goroutine that had handed the
// socket on. Run under -race this also exercises the cells from every
// goroutine that touches them.
func TestWorkerCounterAggregationExact(t *testing.T) {
	zone := NewZone("agg.test.")
	const names = 8
	for i := 0; i < names; i++ {
		if err := zone.AddA(fmt.Sprintf("n%d.agg.test.", i), 60, netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	srv := &Server{
		Addr:       "127.0.0.1:0",
		Handler:    Chain(waitOdd{}, NewZonePlugin(zone)),
		Sockets:    2,
		QueueDepth: 256, // roomy: this test is about counting, not shedding
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	const clients, iters = 4, 48
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := realClient()
			cl.Retries = 0 // retries would skew the exact packet count
			cl.Timeout = 5 * time.Second
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("n%d.agg.test.", (c*iters+i)%names)
				if _, err := cl.Query(context.Background(), srv.LocalAddr(), name, dnswire.TypeA); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// served is bumped after the response is sent, so the last client
	// can observe its answer a beat before the counter lands.
	const total = clients * iters
	waitFor(t, 2*time.Second, func() bool { return srv.ServedPackets() == total })

	packets, batches := srv.BatchStats()
	if packets != total {
		t.Errorf("shard packet counters sum to %d, want %d", packets, total)
	}
	if served := srv.ServedPackets(); served != total {
		t.Errorf("worker served counters sum to %d, want %d", served, total)
	}
	if dropped := srv.DroppedPackets(); dropped != 0 {
		t.Errorf("%d packets shed with a roomy queue", dropped)
	}
	if batches == 0 || batches > packets {
		t.Errorf("batches = %d, want in [1, %d]", batches, packets)
	}
	perSocket := srv.SocketPackets()
	if len(perSocket) != srv.NumSockets() {
		t.Errorf("SocketPackets has %d entries for %d sockets", len(perSocket), srv.NumSockets())
	}
	var sum uint64
	for _, n := range perSocket {
		sum += n
	}
	if sum != total {
		t.Errorf("per-socket packets %v sum to %d, want %d", perSocket, sum, total)
	}

	// The new serve-loop families aggregate those cells at scrape time.
	reg := telemetry.NewRegistry()
	reg.MustRegister(srv.Collectors()...)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"meccdn_dns_udp_packets_total", "meccdn_dns_udp_batches_total", "meccdn_dns_udp_send_errors_total",
		fmt.Sprintf(`meccdn_dns_udp_socket_packets_total{socket="0"} %d`, perSocket[0]),
	} {
		if !strings.Contains(b.String(), family) {
			t.Errorf("exposition missing %s", family)
		}
	}
	if !strings.Contains(b.String(), fmt.Sprintf("meccdn_dns_udp_packets_total %d", total)) {
		t.Errorf("packets_total family does not expose the aggregated value %d:\n%s", total, b.String())
	}
}

// TestBatchDrainOnShutdown pins the drain contract on the batched
// ingress path: a burst accepted as one or more multi-packet batches
// before Shutdown begins is still fully served and flushed, and the
// counters stay consistent (every counted packet is either served or
// deliberately dropped; nothing is lost in a half-processed batch).
func TestBatchDrainOnShutdown(t *testing.T) {
	z := NewZone("bdrain.test.")
	if err := z.AddA("www.bdrain.test.", 60, netip.MustParseAddr("192.0.2.88")); err != nil {
		t.Fatal(err)
	}
	srv := &Server{
		Addr:       "127.0.0.1:0",
		Handler:    Chain(&slowPlugin{delay: 3 * time.Millisecond}, NewZonePlugin(z)),
		QueueDepth: 64, // roomy: every query of the burst waits at once
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}

	q := new(dnswire.Message)
	q.SetQuestion("www.bdrain.test.", dnswire.TypeA)
	q.ID = 7
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("udp", srv.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const burst = 20
	for i := 0; i < burst; i++ {
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
	}

	// Let the socket's loop start on the burst, then drain.
	waitFor(t, 2*time.Second, func() bool { p, _ := srv.BatchStats(); return p > 0 })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}

	// Every response sent must be readable even though the server is
	// gone; count them.
	responses := 0
	buf := make([]byte, 2048)
	for {
		conn.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
		if _, err := conn.Read(buf); err != nil {
			break
		}
		responses++
	}

	packets, _ := srv.BatchStats()
	served := srv.ServedPackets()
	dropped := srv.DroppedPackets()
	if served == 0 {
		t.Fatal("no packets served before drain")
	}
	if uint64(responses) != served {
		t.Errorf("client read %d responses, server counted %d served; drain lost replies", responses, served)
	}
	if served+dropped != packets {
		t.Errorf("served (%d) + dropped (%d) != packets read (%d)", served, dropped, packets)
	}
}

// TestUDPTruncatesOversizedResponse pins the truncation contract on
// both serve paths: a response that cannot fit the client's advertised
// UDP payload (512 bytes without EDNS) must be cut down with TC=1 and
// sent small — never sent oversized, and never mutated in place in a
// message another goroutine may share. The second query repeats the
// check through the cache, whose stored wire image is larger than the
// limit and must be handed to the writer decoded, for truncation,
// rather than patched onto the wire oversized.
func TestUDPTruncatesOversizedResponse(t *testing.T) {
	zone := NewZone("big.test.")
	const rrs = 40 // ~650 bytes packed: comfortably past the 512-byte plain-UDP limit
	for i := 0; i < rrs; i++ {
		if err := zone.AddA("www.big.test.", 300, netip.AddrFrom4([4]byte{10, 9, byte(i >> 8), byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	cache := NewCache(vclock.NewReal())
	srv := &Server{
		Addr:    "127.0.0.1:0",
		Handler: Chain(cache, NewZonePlugin(zone)),
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	conn, err := net.Dial("udp", srv.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ask := func(id uint16, label string) {
		t.Helper()
		q := new(dnswire.Message)
		q.SetQuestion("www.big.test.", dnswire.TypeA)
		q.ID = id // deliberately no EDNS: the server may send at most 512 bytes
		wire, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4096)
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if n > dnswire.MaxUDPSize {
			t.Fatalf("%s: response is %d bytes, exceeds the %d-byte plain-UDP limit", label, n, dnswire.MaxUDPSize)
		}
		var resp dnswire.Message
		if err := resp.Unpack(buf[:n]); err != nil {
			t.Fatalf("%s: truncated response does not parse: %v", label, err)
		}
		if resp.ID != id {
			t.Fatalf("%s: response ID = %d, want %d", label, resp.ID, id)
		}
		if !resp.Truncated {
			t.Errorf("%s: oversized response sent without TC=1", label)
		}
		if len(resp.Answers) >= rrs {
			t.Errorf("%s: response still carries all %d answers", label, len(resp.Answers))
		}
	}

	ask(0x1111, "authoritative path")
	waitFor(t, time.Second, func() bool { return cache.Stats().Entries > 0 })
	ask(0x2222, "cached path")
	if st := cache.Stats(); st.Hits == 0 {
		t.Errorf("second query did not hit the cache (hits=%d misses=%d)", st.Hits, st.Misses)
	}
}
