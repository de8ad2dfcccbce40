package experiments

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"strings"
	"time"

	"github.com/meccdn/meccdn/internal/cdn"
	"github.com/meccdn/meccdn/internal/lte"
	"github.com/meccdn/meccdn/internal/meccdn"
	"github.com/meccdn/meccdn/internal/simnet"
)

// MeshConfig sizes experiment X9: a live event whose segments are
// cached at their home MEC sites while a flash crowd at a different
// site requests them, with and without the federated mesh.
type MeshConfig struct {
	Seed int64
	// RequestsPerTick is the flash-crowd volume at the hot site each
	// tick. Zero means 64.
	RequestsPerTick int
}

// X9's fixed event.
const (
	// meshSites is the MEC site count; site 0 hosts the flash crowd
	// and the rest are siblings holding the event segments.
	meshSites = 3
	// meshTicks is the number of announce/request rounds.
	meshTicks = 16
	// meshSegmentsPerTick is how many new live segments appear (and
	// are warmed at a sibling site) each tick.
	meshSegmentsPerTick = 3
	// meshWindow is the recency window requests draw from: each
	// request picks uniformly among the newest meshWindow segments.
	meshWindow = 8
)

// MeshArm is one steering mode's outcome.
type MeshArm struct {
	Mode     string // "mesh" or "vertical"
	Requests int
	// LocalHits were served from the hot site's own warm cache.
	LocalHits int
	// SiblingHits are misses steered to a sibling MEC that served HIT.
	SiblingHits int
	// SiblingFills are steered requests the sibling itself had to fill.
	SiblingFills int
	// ParentFills are misses the hot site filled from the parent tier
	// (the origin behind the cellular core).
	ParentFills int
	// SiblingShare is the fraction of hot-site misses served by a
	// sibling MEC instead of the parent tier.
	SiblingShare float64
	// P50/P99 summarize end-to-end resolve+fetch latency.
	P50, P99 time.Duration
}

// MeshResult is experiment X9.
type MeshResult struct {
	RequestsPerTick int
	Arms            []MeshArm
}

// meshArmRun drives the flash crowd through one steering mode on a
// fresh testbed: meshSites MEC sites share one LTE core, segments are
// produced at sibling home sites round-robin, and every request is a
// full UE resolve (with referral chase) plus content transfer.
func meshArmRun(cfg *MeshConfig, meshed bool) (MeshArm, error) {
	arm := MeshArm{Mode: "vertical"}
	if meshed {
		arm.Mode = "mesh"
	}
	const domain = "mycdn.x9.test."
	tb := lte.New(lte.Config{Seed: cfg.Seed})
	originNode := tb.AddWAN("origin", 1)
	origin := cdn.NewOrigin()
	cat := cdn.NewCatalog(domain)
	total := meshTicks * meshSegmentsPerTick
	segs := make([]cdn.Content, total)
	for i := range segs {
		segs[i] = cdn.Content{Name: fmt.Sprintf("seg-%04d.live.%s", i, domain), Size: 4096}
		cat.Publish(segs[i])
	}
	origin.AddCatalog(cat)
	cdn.NewOriginServer(originNode, origin, simnet.Constant(2*time.Millisecond))

	sites := make([]*meccdn.Site, meshSites)
	for i := range sites {
		var err error
		sites[i], err = meccdn.DeploySite(tb, meccdn.SiteConfig{
			Domain:     domain,
			NamePrefix: fmt.Sprintf("s%d-", i),
			OriginAddr: originNode.Addr,
			Mesh:       true,
		})
		if err != nil {
			return arm, err
		}
	}
	if meshed {
		if err := meccdn.ConnectMesh(sites...); err != nil {
			return arm, err
		}
	}
	siteOf := make(map[netip.Addr]int)
	for i, s := range sites {
		for _, svc := range s.CacheServices {
			siteOf[svc.ClusterIP] = i
		}
	}

	hot := sites[0]
	ue := &meccdn.UEClient{EP: tb.Net.Node(lte.NodeUE).Endpoint(), MEC: hot.LDNS}
	rng := rand.New(rand.NewSource(cfg.Seed + 9))
	var lats []time.Duration

	for tick := 0; tick < meshTicks; tick++ {
		// The event produces new segments, each cached at its home
		// sibling (never at the hot site), then everyone gossips.
		for j := 0; j < meshSegmentsPerTick; j++ {
			idx := tick*meshSegmentsPerTick + j
			home := sites[1+idx%(meshSites-1)]
			home.Warm(segs[idx])
		}
		for _, s := range sites {
			s.Mesh.DecayLoads(0.5)
			s.AnnounceOnce()
		}

		newest := (tick + 1) * meshSegmentsPerTick
		lo := newest - meshWindow
		if lo < 0 {
			lo = 0
		}
		for i := 0; i < cfg.RequestsPerTick; i++ {
			seg := segs[lo+rng.Intn(newest-lo)]
			fr, err := ue.ResolveAndFetch(domain, seg.Name)
			if err != nil {
				return arm, fmt.Errorf("x9 %s tick %d: %w", arm.Mode, tick, err)
			}
			if !fr.Content.Served() {
				return arm, fmt.Errorf("x9 %s tick %d: %s not served (%s)", arm.Mode, tick, seg.Name, fr.Content.Status)
			}
			arm.Requests++
			lats = append(lats, fr.Total)
			site, known := siteOf[fr.Resolve.Addr]
			switch {
			case known && site == 0 && fr.Content.Status == "HIT":
				arm.LocalHits++
			case known && site == 0:
				arm.ParentFills++
			case known && fr.Content.Status == "HIT":
				arm.SiblingHits++
			case known:
				arm.SiblingFills++
			default:
				return arm, fmt.Errorf("x9 %s: answer %v is no site's cache", arm.Mode, fr.Resolve.Addr)
			}
		}
	}

	if misses := arm.SiblingHits + arm.SiblingFills + arm.ParentFills; misses > 0 {
		arm.SiblingShare = float64(arm.SiblingHits) / float64(misses)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if n := len(lats); n > 0 {
		arm.P50 = lats[n/2]
		arm.P99 = lats[n*99/100]
	}
	return arm, nil
}

// Mesh runs experiment X9: the same live-event flash crowd once with
// peer-steered miss routing over the federated mesh and once with the
// vertical (parent-fill) path only.
func Mesh(cfg MeshConfig) (*MeshResult, error) {
	if cfg.RequestsPerTick <= 0 {
		cfg.RequestsPerTick = 64
	}
	res := &MeshResult{
		RequestsPerTick: cfg.RequestsPerTick,
	}
	for _, meshed := range []bool{true, false} {
		arm, err := meshArmRun(&cfg, meshed)
		if err != nil {
			return nil, err
		}
		res.Arms = append(res.Arms, arm)
	}
	return res, nil
}

// Render formats X9 for the terminal.
func (r *MeshResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "X9 · federated mesh vs vertical fill — %d sites, %d ticks × %d requests, %d new segments/tick\n",
		meshSites, meshTicks, r.RequestsPerTick, meshSegmentsPerTick)
	fmt.Fprintf(&b, "%-10s %9s %10s %9s %9s %9s %9s %10s %10s\n",
		"mode", "requests", "local-hit", "sib-hit", "sib-fill", "parent", "share", "p50", "p99")
	for _, a := range r.Arms {
		fmt.Fprintf(&b, "%-10s %9d %10d %9d %9d %9d %8.1f%% %10s %10s\n",
			a.Mode, a.Requests, a.LocalHits, a.SiblingHits, a.SiblingFills, a.ParentFills,
			100*a.SiblingShare,
			a.P50.Round(time.Millisecond/10), a.P99.Round(time.Millisecond/10))
	}
	b.WriteString("share is the fraction of hot-site misses served by a sibling MEC instead of the parent tier.")
	return b.String()
}
