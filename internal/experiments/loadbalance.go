package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"sort"
	"strings"
	"time"

	"github.com/meccdn/meccdn/internal/cdn"
	"github.com/meccdn/meccdn/internal/geoip"
	"github.com/meccdn/meccdn/internal/lte"
	"github.com/meccdn/meccdn/internal/mobility"
	"github.com/meccdn/meccdn/internal/simnet"
	"github.com/meccdn/meccdn/internal/workload"
)

// LoadBalanceConfig sizes experiment X8, the million-UE scenario
// corpus comparing the plain consistent-hash ring against consistent
// hashing with bounded loads.
type LoadBalanceConfig struct {
	Seed int64
	// UEs is the logical UE population split across the edge sites.
	// Zero means 1.2M — the "flash crowd of a million users" scale
	// the MEC sizing discussion turns on.
	UEs int
	// RequestsPerTick is the peak request volume per tick across the
	// population. Zero means UEs/20.
	RequestsPerTick int
}

// X8's fixed corpus.
const (
	// lbCachesPerSite is the cache-server fleet behind each site's
	// C-DNS.
	lbCachesPerSite = 8
	// lbObjects is the content catalog size.
	lbObjects = 100_000
	// lbTicks is the number of simulation rounds per scenario; each
	// tick is one load-decay window.
	lbTicks = 48
	// lbLoadFactor is the bounded arm's cap multiple: the hash ring's
	// default.
	lbLoadFactor = 1.25
	// lbZipfS is the popularity skew.
	lbZipfS = 1.1
)

func (c *LoadBalanceConfig) defaults() {
	if c.UEs <= 0 {
		c.UEs = 1_200_000
	}
	if c.RequestsPerTick <= 0 {
		c.RequestsPerTick = c.UEs / 20
	}
}

// LoadBalanceArm is one ring mode's outcome for one scenario.
type LoadBalanceArm struct {
	Ring     string // "plain" or "bounded"
	Requests int
	// P50/P99/Max summarize per-request latency under the queueing
	// model: air interface plus overload penalty at the chosen cache.
	P50, P99, Max time.Duration
	// MeanSpread and PeakSpread are the within-site per-tick
	// max/mean cache load ratio (1.0 is perfectly even), averaged
	// over ticks and at the worst tick respectively.
	MeanSpread, PeakSpread float64
	// OverloadedFrac is the fraction of cache-ticks that exceeded
	// the per-cache service capacity.
	OverloadedFrac float64
	// Spills counts bounded-walk spill-overs (0 on the plain ring).
	Spills uint64
}

// LoadBalanceScenario is one traffic shape's plain-vs-bounded pair.
type LoadBalanceScenario struct {
	Name string
	Arms []LoadBalanceArm
}

// LoadBalanceResult is experiment X8.
type LoadBalanceResult struct {
	UEs, RequestsPerTick int
	CohortHandoffs       int // mobility events observed in the handoff storm
	Scenarios            []LoadBalanceScenario
}

// lbSites are the two edge locations of the corpus.
var lbSites = [2]string{"east", "west"}

// lbCohort is the representative-UE cohort size: each cohort member
// attached through internal/mobility stands for UEs/lbCohort logical
// users, which keeps the million-UE population tractable while the
// handoff storm still exercises the real attachment machinery.
const lbCohort = 128

// ringOrder honours the hash ring's candidate order: the first
// healthy candidate is the plain owner (or, bounded, the first owner
// with capacity). The default AvailabilityFirst policy would re-rank
// by instantaneous server load and blur the very allocation decision
// X8 measures.
type ringOrder struct{}

func (ringOrder) Name() string { return "ring-order" }

func (ringOrder) Select(c []*cdn.ServerInfo, _ string, _ cdn.ClientInfo) *cdn.ServerInfo {
	return c[0]
}

// lbScenario shapes one tick of traffic.
type lbScenario struct {
	name string
	// volume returns this tick's request count.
	volume func(cfg *LoadBalanceConfig, tick int) int
	// flashFrac is the fraction of requests pinned to one hot object
	// during the storm window (flash crowd), 0 otherwise.
	flashFrac func(tick int) float64
	// storm reports whether the handoff storm is underway.
	storm func(tick int) bool
}

func lbScenarios() []lbScenario {
	return []lbScenario{
		{
			// A Zipf-hot object goes viral for the middle sixth of
			// the run and draws 40% of all requests.
			name:   "flash-crowd",
			volume: func(cfg *LoadBalanceConfig, _ int) int { return cfg.RequestsPerTick },
			flashFrac: func(tick int) float64 {
				if tick >= lbTicks/3 && tick < lbTicks/3+lbTicks/6+1 {
					return 0.4
				}
				return 0
			},
			storm: func(int) bool { return false },
		},
		{
			// Sinusoidal day curve between ~30% and 100% of peak.
			name: "diurnal-tide",
			volume: func(cfg *LoadBalanceConfig, tick int) int {
				phase := 2 * math.Pi * float64(tick) / lbTicks
				frac := 0.65 - 0.35*math.Cos(phase)
				return int(float64(cfg.RequestsPerTick) * frac)
			},
			flashFrac: func(int) float64 { return 0 },
			storm:     func(int) bool { return false },
		},
		{
			// Commuter wave: the east-attached cohort hands off to
			// west during the middle third, dragging request mass
			// (and each UE's target DNS) with it.
			name:      "handoff-storm",
			volume:    func(cfg *LoadBalanceConfig, _ int) int { return cfg.RequestsPerTick },
			flashFrac: func(int) float64 { return 0 },
			storm: func(tick int) bool {
				return tick >= lbTicks/3 && tick < 2*lbTicks/3
			},
		},
	}
}

// lbArmRun drives one scenario through one ring mode. The simulation
// is decision-level: every request is routed through the site C-DNS's
// real candidate-selection path (hash ring, health gate, policy), but
// the content transfer itself is modelled as air latency plus an
// overload penalty, which is what keeps 10^6-UE populations cheap
// enough to sweep.
func lbArmRun(cfg *LoadBalanceConfig, sc lbScenario, bounded bool) (LoadBalanceArm, int, error) {
	arm := LoadBalanceArm{Ring: "plain"}
	if bounded {
		arm.Ring = "bounded"
	}
	net := simnet.New(cfg.Seed)
	air := lte.LTE4G()

	// Two edge sites, each a C-DNS router over its cache fleet.
	routers := make(map[string]*cdn.Router, len(lbSites))
	caches := make(map[string][]string, len(lbSites))
	for _, site := range lbSites {
		rt := cdn.NewRouter("cdn.x8.test")
		rt.Policy = ringOrder{}
		rt.Ring.Bounded = bounded
		for i := 0; i < lbCachesPerSite; i++ {
			name := fmt.Sprintf("%s-cache-%02d", site, i)
			node := net.AddNode(name)
			srv := cdn.NewCacheServer(node, cdn.CacheServerConfig{
				Name: name, Site: site, CapacityBytes: 1 << 30,
			})
			rt.AddServer(srv, geoip.Location{})
			caches[site] = append(caches[site], name)
		}
		routers[site] = rt
	}

	// The representative cohort attaches through the real mobility
	// manager; site request mass follows the cohort's attachments.
	mgr := mobility.NewManager(net, air.Delay, air.Loss)
	for _, site := range lbSites {
		enb := "enb-" + site
		net.AddNode(enb)
		dns := net.AddNode("mecdns-" + site)
		if err := mgr.AddSite(mobility.Site{Name: site, ENB: enb, DNS: netip.AddrPortFrom(dns.Addr, 53)}); err != nil {
			return arm, 0, err
		}
	}
	handoffs := 0
	mgr.Observe(func(e mobility.Event) {
		if e.From != "" {
			handoffs++
		}
	})
	cohort := make([]string, lbCohort)
	for i := range cohort {
		cohort[i] = fmt.Sprintf("ue-%03d", i)
		net.AddNode(cohort[i])
		// The handoff scenario starts east-heavy (4:1); the others
		// split the population evenly.
		site := lbSites[i%2]
		if sc.storm != nil && sc.name == "handoff-storm" && i%5 != 0 {
			site = "east"
		}
		if _, err := mgr.Attach(cohort[i], site); err != nil {
			return arm, 0, err
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	zipf, err := workload.NewZipfCatalog(rng, lbZipfS, lbObjects)
	if err != nil {
		return arm, 0, err
	}

	// Per-cache service capacity per tick: fair share at peak volume
	// plus 50% headroom. Load above it queues.
	totalCaches := len(lbSites) * lbCachesPerSite
	capacity := cfg.RequestsPerTick * 3 / (totalCaches * 2)
	if capacity < 1 {
		capacity = 1
	}
	const queuePenalty = 80 * time.Millisecond // full-capacity excess adds this

	counts := make(map[string]int, totalCaches)
	var lat weightedLatencies
	var spreadSum float64
	spreadTicks := 0
	overloaded, cacheTicks := 0, 0
	moved := 0

	for tick := 0; tick < lbTicks; tick++ {
		// Mobility first: during the storm the east cohort drains to
		// west at a steady per-tick rate.
		if sc.storm(tick) {
			want := lbCohort * 4 / 5 * (tick + 1 - lbTicks/3) / (lbTicks / 3)
			for _, ue := range cohort {
				if moved >= want {
					break
				}
				if mgr.AttachedSite(ue) == "east" {
					if _, err := mgr.Handoff(ue, "west"); err != nil {
						return arm, 0, err
					}
					moved++
				}
			}
		}
		eastFrac := 0.0
		for _, ue := range cohort {
			if mgr.AttachedSite(ue) == "east" {
				eastFrac++
			}
		}
		eastFrac /= float64(len(cohort))

		vol := sc.volume(cfg, tick)
		flash := sc.flashFrac(tick)
		for k := range counts {
			delete(counts, k)
		}
		for i := 0; i < vol; i++ {
			site := "west"
			if rng.Float64() < eastFrac {
				site = "east"
			}
			key := "flash-object.cdn.x8.test."
			if flash == 0 || rng.Float64() >= flash {
				key = workload.Name("video", zipf.Next()) + ".cdn.x8.test."
			}
			sel := routers[site].Route(key, cdn.ClientInfo{})
			if sel == nil {
				return arm, 0, fmt.Errorf("x8 %s/%s: no route for %s", sc.name, arm.Ring, key)
			}
			counts[sel.Server.Name]++
		}

		// Queueing model + per-site spread for the tick.
		for _, site := range lbSites {
			siteTotal := 0
			max := 0
			for _, c := range caches[site] {
				n := counts[c]
				siteTotal += n
				if n > max {
					max = n
				}
				if n > 0 {
					base := air.Delay.Sample(rng) + 2*time.Millisecond
					extra := time.Duration(0)
					if n > capacity {
						overloaded++
						extra = time.Duration(float64(n-capacity) / float64(capacity) * float64(queuePenalty))
					}
					lat.add(base+extra, n)
				}
				cacheTicks++
			}
			if siteTotal > 0 {
				mean := float64(siteTotal) / float64(len(caches[site]))
				spreadSum += float64(max) / mean
				spreadTicks++
				if s := float64(max) / mean; s > arm.PeakSpread {
					arm.PeakSpread = s
				}
			}
		}
		arm.Requests += vol

		// One decay window per tick; nothing decays dnsd's ring. The
		// plain arm's decay is a no-op for routing (only the spread
		// metrics read its counters).
		for _, rt := range routers {
			rt.Ring.DecayLoads(0.5)
		}
	}

	arm.P50 = lat.percentile(50)
	arm.P99 = lat.percentile(99)
	arm.Max = lat.percentile(100)
	arm.MeanSpread = spreadSum / float64(spreadTicks)
	arm.OverloadedFrac = float64(overloaded) / float64(cacheTicks)
	for _, rt := range routers {
		arm.Spills += rt.Ring.Spills()
	}
	return arm, handoffs, nil
}

// LoadBalance runs experiment X8: the flash-crowd, diurnal-tide and
// handoff-storm scenarios, each under the plain and the bounded ring.
func LoadBalance(cfg LoadBalanceConfig) (*LoadBalanceResult, error) {
	cfg.defaults()
	res := &LoadBalanceResult{UEs: cfg.UEs, RequestsPerTick: cfg.RequestsPerTick}
	for _, sc := range lbScenarios() {
		scenario := LoadBalanceScenario{Name: sc.name}
		for _, bounded := range []bool{false, true} {
			arm, handoffs, err := lbArmRun(&cfg, sc, bounded)
			if err != nil {
				return nil, fmt.Errorf("x8 %s: %w", sc.name, err)
			}
			if sc.name == "handoff-storm" && handoffs > res.CohortHandoffs {
				res.CohortHandoffs = handoffs
			}
			scenario.Arms = append(scenario.Arms, arm)
		}
		res.Scenarios = append(res.Scenarios, scenario)
	}
	return res, nil
}

// weightedLatencies is a compact latency distribution: one entry per
// cache-tick carrying the request count it stands for, so percentiles
// over millions of requests cost thousands of entries.
type weightedLatencies struct {
	entries []weightedLatency
	total   int64
}

type weightedLatency struct {
	d time.Duration
	n int64
}

func (w *weightedLatencies) add(d time.Duration, n int) {
	w.entries = append(w.entries, weightedLatency{d: d, n: int64(n)})
	w.total += int64(n)
}

func (w *weightedLatencies) percentile(p float64) time.Duration {
	if len(w.entries) == 0 {
		return 0
	}
	sort.Slice(w.entries, func(i, j int) bool { return w.entries[i].d < w.entries[j].d })
	rank := int64(math.Ceil(p / 100 * float64(w.total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for _, e := range w.entries {
		cum += e.n
		if cum >= rank {
			return e.d
		}
	}
	return w.entries[len(w.entries)-1].d
}

// Render formats X8 for the terminal.
func (r *LoadBalanceResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "X8 · bounded-load ring vs plain ring — %d UEs, %d sites × %d caches, %d-object Zipf catalog, %d ticks, c=%.2f\n",
		r.UEs, len(lbSites), lbCachesPerSite, lbObjects, lbTicks, lbLoadFactor)
	if r.CohortHandoffs > 0 {
		fmt.Fprintf(&b, "handoff storm: %d cohort handoffs (each stands for ~%d UEs)\n",
			r.CohortHandoffs, r.UEs/lbCohort)
	}
	fmt.Fprintf(&b, "%-14s %-8s %10s %10s %10s %9s %9s %9s %9s\n",
		"scenario", "ring", "p50", "p99", "max", "spread", "peak", "overload", "spills")
	for _, sc := range r.Scenarios {
		for _, a := range sc.Arms {
			fmt.Fprintf(&b, "%-14s %-8s %10s %10s %10s %8.2fx %8.2fx %8.1f%% %9d\n",
				sc.Name, a.Ring,
				a.P50.Round(time.Millisecond/10),
				a.P99.Round(time.Millisecond/10),
				a.Max.Round(time.Millisecond/10),
				a.MeanSpread, a.PeakSpread,
				100*a.OverloadedFrac, a.Spills)
		}
	}
	b.WriteString("spread is within-site max/mean cache load per tick; the bounded ring holds it near c while the plain ring hot-spots under the flash crowd.")
	return b.String()
}
