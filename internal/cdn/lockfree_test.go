package cdn

import (
	"fmt"
	"net/netip"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/meccdn/meccdn/internal/geoip"
	"github.com/meccdn/meccdn/internal/lpm"
	"github.com/meccdn/meccdn/internal/mesh"
	"github.com/meccdn/meccdn/internal/simnet"
	"github.com/meccdn/meccdn/internal/vclock"
)

// forbiddenRouterMutexFrames are the router read-path functions that
// must never appear in a mutex-contention profile: candidate
// selection is one atomic snapshot load end to end.
var forbiddenRouterMutexFrames = []string{
	"(*Router).Route",
	"(*Router).popAnswer",
	"(*Router).subnetRoute",
	"(*Router).Servers",
	"(*HashRing).Owners",
	"(*HashRing).OwnersAppend",
	"(*HashRing).Owner",
	"(*HashRing).Members",
	"(*HashRing).RecordLoad",
	"(*HashRing).Load",
	"(*HashRing).LoadStats",
	"(*Router).RoutePeer",
	"(*Router).selectLocal",
	"(*View).Lookup",
	"(*View).Steer",
	"(*View).Nearest",
	"(*View).Load",
}

// TestRouterServePathMutexFree is the cdn half of `make mutexprofile`:
// with mutex profiling at fraction 1 and a writer churning server
// membership, PoP bindings, and the hash ring, concurrent candidate
// selection must record zero contention in any router or ring
// read-path frame.
func TestRouterServePathMutexFree(t *testing.T) {
	old := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(old)

	fx := buildRouterFixture(t, 1)
	rt := fx.router
	// Bounded mode exercises the cap check and spill walk under the
	// same zero-lock requirement as the plain lookup.
	rt.Ring.Bounded = true
	rt.MapPoP(lpm.PoP(1), netip.MustParseAddr("192.0.2.201"))

	// A mesh view on the miss path is part of the certified read plane:
	// peer lookups must stay one atomic snapshot load while announces
	// republish underneath.
	agent := mesh.NewAgent(mesh.Config{Site: "local", Clock: &vclock.Fixed{}})
	announce := func(gen uint32) {
		d := mesh.NewDigest(512, 4)
		for j := 0; j < 16; j++ {
			d.Add(fmt.Sprintf("key-%d", j))
		}
		ann, err := mesh.EncodeAnnounce("peer-1", "10.8.0.2", gen, d.Entries(), 0, d.Hashes(), d.Bitmap())
		if err != nil {
			t.Fatal(err)
		}
		agent.HandleDatagram(ann)
	}
	announce(1)
	rt.UseMesh(agent.View())

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < runtime.GOMAXPROCS(0)+2; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			client := ClientInfo{Addr: netip.MustParseAddr("10.0.0.1")}
			var ownersBuf [smallOwners]string
			for i := 0; !stop.Load(); i++ {
				rt.Route(fmt.Sprintf("key-%d-%d", id, i%32), client)
				rt.Ring.OwnersAppend(ownersBuf[:0], "key", 2)
				rt.Ring.RecordLoad("cache-0")
				rt.Ring.Load("cache-0")
				rt.Ring.LoadStats()
				rt.Mesh().Lookup(fmt.Sprintf("key-%d", i%32))
				rt.RoutePeer(fmt.Sprintf("key-%d", i%32), client)
				rt.Mesh().Nearest()
				routerQuery(t, rt, "video.mycdn.ciab.test.", "10.0.0.1:5000")
			}
		}(r)
	}

	// Writer churn: membership add/remove (which also rebuilds the
	// ring), PoP remaps, and route-table swaps.
	fx.net.AddNode("churn")
	fx.net.AddLink("hub", "churn", simnet.Constant(0), 0)
	churn := NewCacheServer(fx.net.Node("churn"), CacheServerConfig{
		Name: "churn", Site: "mec-1", Tier: TierEdge, CapacityBytes: 1 << 20,
		Domains: []string{"mycdn.ciab.test."},
	})
	for i := 0; i < 300; i++ {
		rt.AddServer(churn, geoip.Location{X: 500, Name: "churn"})
		rt.Ring.Remove("churn")
		rt.MapPoP(lpm.PoP(1), netip.AddrFrom4([4]byte{192, 0, 2, byte(1 + i%250)}))
		announce(uint32(i + 2))
		agent.DecayLoads(0.5)
	}
	stop.Store(true)
	wg.Wait()

	var sb strings.Builder
	if err := pprof.Lookup("mutex").WriteTo(&sb, 1); err != nil {
		t.Fatal(err)
	}
	profile := sb.String()
	for _, holder := range mutexHolders(profile) {
		for _, frame := range forbiddenRouterMutexFrames {
			if strings.Contains(holder, frame) {
				t.Errorf("router read path acquired a lock: %s held a contended mutex", holder)
			}
		}
	}
	if t.Failed() {
		t.Logf("mutex profile:\n%s", profile)
	}
}

// mutexHolders extracts, per profile sample, the function that held
// the contended lock: the innermost frame below the sync/runtime/
// testing machinery. Read-path functions legitimately appear further
// up contended stacks (e.g. a CacheServer's own status mutex under
// Route, or testing.T's mutex under a query helper); only the holder
// frame convicts.
func mutexHolders(profile string) []string {
	var holders []string
	for _, sample := range strings.Split(profile, "\n\n") {
		for _, line := range strings.Split(sample, "\n") {
			fields := strings.Fields(line)
			if len(fields) < 3 || fields[0] != "#" {
				continue
			}
			fn := fields[2]
			if strings.HasPrefix(fn, "sync.") || strings.HasPrefix(fn, "runtime.") ||
				strings.HasPrefix(fn, "testing.") || strings.HasPrefix(fn, "internal/") {
				continue
			}
			holders = append(holders, fn)
			break
		}
	}
	return holders
}
