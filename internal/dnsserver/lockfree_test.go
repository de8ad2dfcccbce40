package dnsserver

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/meccdn/meccdn/internal/dnswire"
)

// TestZoneReloadUnderLoad hammers the serve path with parallel
// resolves while the writer performs 1000 consecutive zone snapshot
// swaps. Every query must be answered (nothing dropped or blocked on
// a lock), and no reader may observe a zone view older than the last
// snapshot published before it started — the freshness contract of
// the RCU publish.
func TestZoneReloadUnderLoad(t *testing.T) {
	zone := NewZone("live.test.")
	if err := zone.AddA("www.live.test.", 60, netip.MustParseAddr("192.0.2.1")); err != nil {
		t.Fatal(err)
	}
	acl := NewACL()
	acl.Deny(netip.MustParsePrefix("203.0.113.0/24"))
	acl.BlockDomain("blocked.example.")
	h := Chain(acl, NewZonePlugin(zone))

	// published is the serial of the most recently swapped-in snapshot;
	// stored only after Update returns, so any reader that loads it is
	// guaranteed the corresponding view is already visible.
	var published atomic.Uint32
	published.Store(zone.Serial())

	const swaps = 1000
	readers := runtime.GOMAXPROCS(0) * 2
	if readers < 4 {
		readers = 4
	}
	var (
		stop     atomic.Bool
		dropped  atomic.Uint64
		stale    atomic.Uint64
		resolved atomic.Uint64
		wg       sync.WaitGroup
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seat int) {
			defer wg.Done()
			client := netip.MustParseAddrPort(fmt.Sprintf("10.0.0.%d:5000", seat+1))
			for !stop.Load() {
				expect := published.Load()
				q := new(dnswire.Message)
				q.SetQuestion("www.live.test.", dnswire.TypeA)
				resp := Resolve(context.Background(), h, &Request{Msg: q, Transport: "udp", Client: client})
				if resp.Rcode != dnswire.RcodeSuccess || len(resp.Answers) != 1 {
					dropped.Add(1)
					continue
				}
				// Freshness: the view serving right now must be at least
				// the snapshot published before this query started.
				if got := zone.Serial(); got != expect && !serialAdvanced(expect, got) {
					stale.Add(1)
				}
				resolved.Add(1)
			}
		}(r)
	}

	for i := 0; i < swaps; i++ {
		addr := netip.AddrFrom4([4]byte{192, 0, 2, byte(1 + i%250)})
		if err := zone.Update(func(b *ZoneBuilder) error {
			b.Remove("www.live.test.", dnswire.TypeA)
			return b.AddA("www.live.test.", 60, addr)
		}); err != nil {
			t.Fatal(err)
		}
		published.Store(zone.Serial())
	}
	// On a single-CPU runner the writer can finish its storm before
	// any reader is scheduled; let the readers overlap the published
	// state before stopping them.
	for resolved.Load() == 0 {
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()

	if n := dropped.Load(); n != 0 {
		t.Errorf("%d queries dropped or unanswered during %d snapshot swaps", n, swaps)
	}
	if n := stale.Load(); n != 0 {
		t.Errorf("%d stale-serial answers during %d snapshot swaps", n, swaps)
	}
	if resolved.Load() == 0 {
		t.Error("no queries resolved during the swap storm")
	}
	if got := zone.Serial(); got < uint32(swaps) {
		t.Errorf("serial %d after %d swaps", got, swaps)
	}
}

// TestStubACLChurnUnderLoad swaps stub routes and ACL rules while
// queries run; the race detector is the assertion, plus nothing may
// block or fail.
func TestStubACLChurnUnderLoad(t *testing.T) {
	zone := NewZone("live.test.")
	if err := zone.AddA("www.live.test.", 60, netip.MustParseAddr("192.0.2.1")); err != nil {
		t.Fatal(err)
	}
	acl := NewACL()
	stub := NewStub(nil)
	h := Chain(acl, stub, NewZonePlugin(zone))

	var stop atomic.Bool
	var dropped atomic.Uint64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := netip.MustParseAddrPort("10.0.0.1:5000")
			for !stop.Load() {
				q := new(dnswire.Message)
				q.SetQuestion("www.live.test.", dnswire.TypeA)
				resp := Resolve(context.Background(), h, &Request{Msg: q, Transport: "udp", Client: client})
				if resp.Rcode != dnswire.RcodeSuccess {
					dropped.Add(1)
				}
			}
		}()
	}
	up := netip.MustParseAddrPort("192.0.2.53:53")
	for i := 0; i < 500; i++ {
		stub.Route(fmt.Sprintf("r%d.example.", i%16), up)
		stub.Unroute(fmt.Sprintf("r%d.example.", (i+8)%16))
		acl.Deny(netip.MustParsePrefix(fmt.Sprintf("203.0.%d.0/24", i%250)))
	}
	stop.Store(true)
	wg.Wait()
	if n := dropped.Load(); n != 0 {
		t.Errorf("%d queries failed during stub/ACL churn", n)
	}
}

// forbiddenMutexFrames are the query-time read-path functions that
// must never appear in a mutex-contention profile: each is the
// lock-free fast path of its subsystem after the RCU refactor.
var forbiddenMutexFrames = []string{
	"(*ZoneView).Lookup",
	"(*ZonePlugin).ServeDNS",
	"(*Stub).match",
	"(*ACL).permitted",
	"(*Forward).candidates",
	"(*Forward).recordFailure",
	"(*Forward).recordSuccess",
}

// TestServePathMutexFree is the mutex-profile smoke test behind
// `make mutexprofile`: with mutex profiling at fraction 1 and writers
// churning every snapshot as hard as they can, running the serve path
// concurrently must record zero contention events in any zone, stub,
// ACL, or forward read-path frame. If a lock creeps back into one of
// those functions, the writer churn makes it contend and the frame
// shows up here.
func TestServePathMutexFree(t *testing.T) {
	old := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(old)

	zone := NewZone("live.test.")
	if err := zone.AddA("www.live.test.", 60, netip.MustParseAddr("192.0.2.1")); err != nil {
		t.Fatal(err)
	}
	acl := NewACL()
	acl.Deny(netip.MustParsePrefix("203.0.113.0/24"))
	stub := NewStub(nil)
	stub.Route("elsewhere.example.", netip.MustParseAddrPort("192.0.2.53:53"))
	fwd := &Forward{Upstreams: []netip.AddrPort{
		netip.MustParseAddrPort("192.0.2.53:53"),
		netip.MustParseAddrPort("192.0.2.54:53"),
	}}
	h := Chain(acl, stub, NewZonePlugin(zone))

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < runtime.GOMAXPROCS(0)+2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := netip.MustParseAddrPort("10.0.0.1:5000")
			for !stop.Load() {
				q := new(dnswire.Message)
				q.SetQuestion("www.live.test.", dnswire.TypeA)
				Resolve(context.Background(), h, &Request{Msg: q, Transport: "udp", Client: client})
				first := fwd.candidates(nil)[0]
				fwd.recordFailure(first)
				fwd.recordSuccess(first)
			}
		}()
	}
	// Writer churn: snapshot swaps on every subsystem, as fast as the
	// copy-on-write allows, to surface any reader/writer shared lock.
	for i := 0; i < 300; i++ {
		_ = zone.Update(func(b *ZoneBuilder) error {
			b.Remove("www.live.test.", dnswire.TypeA)
			return b.AddA("www.live.test.", 60, netip.AddrFrom4([4]byte{192, 0, 2, byte(1 + i%250)}))
		})
		stub.Route(fmt.Sprintf("churn%d.example.", i%8), netip.MustParseAddrPort("192.0.2.53:53"))
		acl.Deny(netip.MustParsePrefix(fmt.Sprintf("198.51.%d.0/24", i%250)))
	}
	stop.Store(true)
	wg.Wait()

	var sb strings.Builder
	if err := pprof.Lookup("mutex").WriteTo(&sb, 1); err != nil {
		t.Fatal(err)
	}
	profile := sb.String()
	for _, frame := range forbiddenMutexFrames {
		if strings.Contains(profile, frame) {
			t.Errorf("serve path acquired a lock: %s appears in the mutex profile", frame)
		}
	}
	if t.Failed() {
		t.Logf("mutex profile:\n%s", profile)
	}
}
