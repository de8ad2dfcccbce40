package mesh

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/health"
	"github.com/meccdn/meccdn/internal/simnet"
	"github.com/meccdn/meccdn/internal/vclock"
)

// buildPair wires two agents over a simnet link, peered both ways.
func buildPair(t *testing.T) (*simnet.Network, *Agent, *Agent) {
	t.Helper()
	n := simnet.New(1)
	na := n.AddNode("a")
	nb := n.AddNode("b")
	n.AddLink("a", "b", simnet.Constant(2*time.Millisecond), 0)

	contentB := []string{"seg-0001", "seg-0002", "seg-0003"}
	a := NewAgent(Config{
		Site:       "site-a",
		AnswerAddr: "10.0.0.1",
		Clock:      n.Clock,
		Health:     health.New(health.Config{DownAfter: 2, UpAfter: 1, MinDwell: -1}),
	})
	b := NewAgent(Config{
		Site:       "site-b",
		AnswerAddr: "10.0.0.2",
		Clock:      n.Clock,
		Health:     health.New(health.Config{DownAfter: 2, UpAfter: 1, MinDwell: -1}),
		Source: func(add func(string)) {
			for _, name := range contentB {
				add(name)
			}
		},
	})
	a.BindSimnet(na)
	b.BindSimnet(nb)
	a.AddPeer(Peer{Name: "site-b", Addr: nb.Addr.String()})
	b.AddPeer(Peer{Name: "site-a", Addr: na.Addr.String()})
	return n, a, b
}

func TestAnnounceSteersContent(t *testing.T) {
	_, a, b := buildPair(t)
	a.AnnounceOnce()
	b.AnnounceOnce()
	// Now A has applied B's announce (and vice versa); B's announce
	// exchange to A also promoted "peer:a" in B's registry, so both
	// views should be live.
	v := a.View()
	if v.Peers() != 1 || v.EligiblePeers() != 1 {
		t.Fatalf("a's view: %d peers, %d eligible", v.Peers(), v.EligiblePeers())
	}
	hit, ok := v.Steer("seg-0002")
	if !ok {
		t.Fatal("steer missed content B announced")
	}
	if hit.Name != "site-b" || hit.Addr.String() != "10.0.0.2" {
		t.Fatalf("steered to %+v", hit)
	}
	if _, ok := v.Steer("not-announced-anywhere-xyz"); ok {
		t.Fatal("steered a name nobody announced")
	}
	if v.PeerHits() != 1 || v.PeerMisses() != 1 {
		t.Fatalf("hits=%d misses=%d", v.PeerHits(), v.PeerMisses())
	}
	if got := v.Load("site-b"); got != 1 {
		t.Fatalf("steering load = %d, want 1", got)
	}
	// B announced no answer targets from A's content (A has no
	// Source), so B's view holds an empty digest for site-a.
	if hit, ok := b.View().Steer("seg-0001"); ok {
		t.Fatalf("b steered %+v for content only b holds", hit)
	}
}

func TestStaleGenerationDropped(t *testing.T) {
	a := NewAgent(Config{Site: "site-a", Clock: &vclock.Fixed{}})
	bitmap, k := testBitmap("seg-0001")
	fresh, _ := EncodeAnnounce("site-b", "10.0.0.2", 5, 1, 0, k, bitmap)
	resp := a.HandleDatagram(fresh)
	if gen, ok := DecodeDigestAck(resp); !ok || gen != 5 {
		t.Fatalf("ack = %q", resp)
	}
	// A replayed older generation must not regress the table, and the
	// ack must advertise the generation actually held so the sender
	// can observe the skew.
	empty, _ := EncodeAnnounce("site-b", "10.0.0.2", 3, 0, 0, k, make([]byte, 64))
	resp = a.HandleDatagram(empty)
	if gen, ok := DecodeDigestAck(resp); !ok || gen != 5 {
		t.Fatalf("stale ack = %q, want DIGEST 5", resp)
	}
	if _, ok := a.View().Lookup("seg-0001"); !ok {
		t.Fatal("stale announce wiped the newer table")
	}
	// The next round (gen 6) converges — full-state anti-entropy.
	next, _ := EncodeAnnounce("site-b", "10.0.0.2", 6, 0, 0, k, make([]byte, 64))
	a.HandleDatagram(next)
	if _, ok := a.View().Lookup("seg-0001"); ok {
		t.Fatal("gen-6 announce did not replace the table")
	}
}

func TestMalformedAnnounceCountedAndDropped(t *testing.T) {
	a := NewAgent(Config{Site: "site-a", Clock: &vclock.Fixed{}})
	for _, payload := range [][]byte{
		[]byte("ANNOUNCE "),
		[]byte("ANNOUNCE \x01garbage"),
		[]byte("EXPLODE now"),
		{},
	} {
		resp := a.HandleDatagram(payload)
		if len(resp) < 3 || string(resp[:3]) != "ERR" {
			t.Fatalf("HandleDatagram(%q) = %q, want ERR", payload, resp)
		}
	}
	if a.View().Peers() != 0 {
		t.Fatal("malformed announce created a peer")
	}
	if string(a.HandleDatagram([]byte("PING"))) != "PONG" {
		t.Fatal("PING broken")
	}
}

func TestFreshnessExpiry(t *testing.T) {
	clk := &vclock.Fixed{}
	a := NewAgent(Config{Site: "site-a", Clock: clk})
	bitmap, k := testBitmap("seg-0001")
	ann, _ := EncodeAnnounce("site-b", "10.0.0.2", 1, 1, 0, k, bitmap)
	a.HandleDatagram(ann)
	// Up to staleAfterIntervals (3× interval) the peer stays steerable.
	clk.Time += staleAfterIntervals * AnnounceInterval
	a.AnnounceOnce() // no transport: republish only
	if _, ok := a.View().Lookup("seg-0001"); !ok {
		t.Fatal("announce within 3 intervals not steerable")
	}
	// Past it the peer must leave the steering set at the next
	// republish, even with no further datagrams.
	clk.Time++
	a.AnnounceOnce()
	if _, ok := a.View().Lookup("seg-0001"); ok {
		t.Fatal("stale peer still steerable")
	}
	if a.View().EligiblePeers() != 0 || a.View().Peers() != 1 {
		t.Fatalf("peers=%d eligible=%d", a.View().Peers(), a.View().EligiblePeers())
	}
}

func TestOverloadedPeerSkipped(t *testing.T) {
	a := NewAgent(Config{Site: "site-a", Clock: &vclock.Fixed{}})
	bitmap, k := testBitmap("seg-0001")
	hot, _ := EncodeAnnounce("site-b", "10.0.0.2", 1, 1, 0.95, k, bitmap)
	a.HandleDatagram(hot)
	if _, ok := a.View().Lookup("seg-0001"); ok {
		t.Fatal("steered to a peer self-reporting 95% load")
	}
	cooled, _ := EncodeAnnounce("site-b", "10.0.0.2", 2, 1, 0.2, k, bitmap)
	a.HandleDatagram(cooled)
	if _, ok := a.View().Lookup("seg-0001"); !ok {
		t.Fatal("cooled peer not steerable")
	}
}

func TestPeerFailureDetection(t *testing.T) {
	n, a, b := buildPair(t)
	a.AnnounceOnce()
	b.AnnounceOnce()
	if _, ok := a.View().Nearest(); !ok {
		t.Fatal("no nearest peer after announce round")
	}
	// Repoint the peer at an address with no node behind it: the
	// announce exchanges fail, and after DownAfter failures the
	// registry demotes "peer:site-b", which must eject it from the
	// steering view even though its digest is still fresh.
	a.AddPeer(Peer{Name: "site-b", Addr: "203.0.113.99"})
	a.AnnounceOnce()
	a.AnnounceOnce()
	_ = n // network still referenced for clarity; exchanges fail by address
	if _, ok := a.View().Nearest(); ok {
		t.Fatal("down peer still in steering view")
	}
	if _, ok := a.View().Steer("seg-0001"); ok {
		t.Fatal("steered to a down peer")
	}
}

func TestBoundedLoadCapsSteering(t *testing.T) {
	a := NewAgent(Config{Site: "site-a", Clock: &vclock.Fixed{}})
	bitmap, k := testBitmap("seg-hot")
	ann1, _ := EncodeAnnounce("site-b", "10.0.0.2", 1, 1, 0, k, bitmap)
	ann2, _ := EncodeAnnounce("site-c", "10.0.0.3", 1, 0, 0, k, make([]byte, len(bitmap)))
	a.HandleDatagram(ann1)
	a.HandleDatagram(ann2)
	v := a.View()
	steered := 0
	for i := 0; i < 100; i++ {
		if _, ok := v.Steer("seg-hot"); ok {
			steered++
		}
	}
	// Only site-b announced seg-hot; with c=1.25 over two peers its
	// cell hits the ⌈c·(total+1)/n⌉ cap after a couple of steers.
	if steered == 0 || steered > 10 {
		t.Fatalf("steered %d of 100, want a small bounded number", steered)
	}
	if v.CapRejections() == 0 {
		t.Fatal("no cap rejections recorded")
	}
	// Decay opens the window again.
	a.DecayLoads(0)
	if _, ok := v.Steer("seg-hot"); !ok {
		t.Fatal("steering still capped after full decay")
	}
}

func TestEligibleOrderedFirst(t *testing.T) {
	clk := &vclock.Fixed{}
	a := NewAgent(Config{Site: "site-a", Clock: clk})
	bitmap, k := testBitmap("seg-0001")
	stale, _ := EncodeAnnounce("site-old", "10.0.0.8", 1, 1, 0, k, bitmap)
	a.HandleDatagram(stale)
	clk.Time += staleAfterIntervals*AnnounceInterval + 1
	fresh, _ := EncodeAnnounce("site-new", "10.0.0.9", 1, 1, 0, k, bitmap)
	a.HandleDatagram(fresh)
	hit, ok := a.View().Lookup("seg-0001")
	if !ok || hit.Name != "site-new" {
		t.Fatalf("lookup = %+v ok=%v, want site-new", hit, ok)
	}
	if hit, ok := a.View().Nearest(); !ok || hit.Name != "site-new" {
		t.Fatalf("nearest = %+v ok=%v, want site-new", hit, ok)
	}
}

func TestRemovePeerStopsSteering(t *testing.T) {
	_, a, b := buildPair(t)
	a.AnnounceOnce()
	b.AnnounceOnce()
	if _, ok := a.View().Steer("seg-0001"); !ok {
		t.Fatal("no steer before removal")
	}
	a.RemovePeer("site-b")
	if _, ok := a.View().Steer("seg-0001"); ok {
		t.Fatal("steered to a removed peer")
	}
	if len(a.PeerNames()) != 0 {
		t.Fatalf("peer names = %v", a.PeerNames())
	}
}

// TestMeshChurnRace hammers the lock-free view from reader goroutines
// while peers join, leave, flap, and re-announce — the test exists to
// run under -race and to prove readers never see a torn snapshot.
func TestMeshChurnRace(t *testing.T) {
	clk := &vclock.Fixed{Time: time.Second}
	a := NewAgent(Config{
		Site:   "site-a",
		Clock:  clk,
		Health: health.New(health.Config{DownAfter: 2, UpAfter: 1, MinDwell: -1}),
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("seg-%04d", i%64)
				a.View().Lookup(key)
				a.View().Steer(key)
				a.View().Nearest()
				a.View().Peers()
				a.View().EligiblePeers()
				a.View().Load("peer-1")
				i++
			}
		}(r)
	}
	for i := 0; i < 400; i++ {
		peer := fmt.Sprintf("peer-%d", i%5)
		d := NewDigest(512, 4)
		for j := 0; j < 16; j++ {
			d.Add(fmt.Sprintf("seg-%04d", (i+j)%64))
		}
		load := float64(i%10) / 10
		ann, err := EncodeAnnounce(peer, fmt.Sprintf("10.9.0.%d", i%5+1), uint32(i+1), d.Entries(), load, d.Hashes(), d.Bitmap())
		if err != nil {
			t.Fatal(err)
		}
		a.HandleDatagram(ann)
		switch i % 7 {
		case 2:
			a.AddPeer(Peer{Name: peer, Addr: "10.9.0.50"})
		case 4:
			a.RemovePeer(peer)
		case 5:
			a.DecayLoads(0.5)
		}
		if i%11 == 0 {
			clk.Time += time.Millisecond
		}
	}
	close(stop)
	wg.Wait()
	if a.View().Peers() == 0 {
		t.Fatal("churn left an empty view")
	}
}

func TestStartStopAnnounceLoop(t *testing.T) {
	recvd := make(chan struct{}, 16)
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	b := NewAgent(Config{Site: "site-b", AnswerAddr: "10.0.0.2"})
	go func() {
		buf := make([]byte, maxDatagram+1)
		for {
			n, from, err := conn.ReadFrom(buf)
			if err != nil {
				return
			}
			resp := b.HandleDatagram(buf[:n])
			conn.WriteTo(resp, from)
			select {
			case recvd <- struct{}{}:
			default:
			}
		}
	}()
	a := NewAgent(Config{
		Site:       "site-a",
		AnswerAddr: "10.0.0.1",
		Transport:  UDPTransport{},
		Peers:      []Peer{{Name: "site-b", Addr: conn.LocalAddr().String()}},
	})
	a.Start()
	defer a.Stop()
	select {
	case <-recvd:
	case <-time.After(5 * time.Second):
		t.Fatal("no announce arrived over UDP")
	}
	if b.View().Peers() != 1 {
		t.Fatalf("b's view peers = %d", b.View().Peers())
	}
	a.Stop()
	a.Start() // restartable
	a.Stop()
}

func TestServeUDP(t *testing.T) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b := NewAgent(Config{Site: "site-b"})
	done := make(chan struct{})
	go func() {
		defer close(done)
		b.ServeUDP(conn)
	}()
	bitmap, k := testBitmap("seg-0001")
	ann, _ := EncodeAnnounce("site-a", "10.0.0.1", 1, 1, 0, k, bitmap)
	resp, err := UDPTransport{}.Exchange(conn.LocalAddr().String(), ann, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if gen, ok := DecodeDigestAck(resp); !ok || gen != 1 {
		t.Fatalf("ack = %q", resp)
	}
	if _, ok := b.View().Lookup("seg-0001"); !ok {
		t.Fatal("announce over UDP not applied")
	}
	conn.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("ServeUDP did not exit on close")
	}
}

func TestSnapshotAndCollectors(t *testing.T) {
	_, a, b := buildPair(t)
	a.AnnounceOnce()
	b.AnnounceOnce()
	a.View().Steer("seg-0001")
	st := a.Snapshot()
	if st.Site != "site-a" || st.Generation != 1 {
		t.Fatalf("snapshot %+v", st)
	}
	if len(st.Peers) != 1 || st.Peers[0].Name != "site-b" || !st.Peers[0].Eligible {
		t.Fatalf("snapshot peers %+v", st.Peers)
	}
	if st.Peers[0].Steered != 1 {
		t.Fatalf("steered = %d", st.Peers[0].Steered)
	}
	if len(st.Configured) != 1 || st.Configured[0] != "site-b" {
		t.Fatalf("configured = %v", st.Configured)
	}
	if got := len(a.Collectors()); got != 5 {
		t.Fatalf("collectors = %d, want 5", got)
	}
}
