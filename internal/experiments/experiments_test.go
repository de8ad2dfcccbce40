package experiments

import (
	"strings"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/lte"
	"github.com/meccdn/meccdn/internal/stats"
)

func TestTable1(t *testing.T) {
	t1 := Table1()
	if len(t1) != 5 {
		t.Fatalf("rows = %d", len(t1))
	}
	if t1[0].Domain != "a0.muscache.com" || t1[4].Domain != "a.cdn.intentmedia.net" {
		t.Error("table data wrong")
	}
	out := RenderTable1()
	for _, want := range []string{"Airbnb", "q-cf.bstatic.com", "cdn0.agoda.net"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestTable2Render(t *testing.T) {
	out := RenderTable2()
	for _, want := range []string{"Cellular Provider", "CDN Broker", "MEC Provider", "RAN"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFigure2Shape(t *testing.T) {
	res, err := Figure2(Fig2Config{Seed: 42, Runs: 15})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 5 {
		t.Fatalf("domains = %d", len(res.Cells))
	}
	for _, row := range res.Cells {
		if len(row) != 3 {
			t.Fatalf("accesses = %d", len(row))
		}
		wired, wifi, cell := row[0].Bar, row[1].Bar, row[2].Bar
		// Observation 1: cellular is substantially slower than both
		// fixed accesses, for every domain.
		if cell.Mean <= wired.Mean || cell.Mean <= wifi.Mean {
			t.Errorf("%s: cellular %v not slowest (wired %v, wifi %v)",
				row[0].Domain, cell.Mean, wired.Mean, wifi.Mean)
		}
		// ... and shows the largest spread.
		if cell.Max-cell.Min <= wired.Max-wired.Min {
			t.Errorf("%s: cellular spread %v not above wired %v",
				row[0].Domain, cell.Max-cell.Min, wired.Max-wired.Min)
		}
		for _, c := range row {
			if c.Bar.N < 12 {
				t.Errorf("%s/%s: only %d runs; paper requires ≥12", c.Domain, c.Access, c.Bar.N)
			}
			if c.Bar.Min > c.Bar.Mean || c.Bar.Mean > c.Bar.Max {
				t.Errorf("%s/%s: inconsistent bar %+v", c.Domain, c.Access, c.Bar)
			}
		}
	}
	out := res.Render()
	if !strings.Contains(out, "cellular-mobile") || !strings.Contains(out, "a0.muscache.com") {
		t.Error("render incomplete")
	}
}

func TestFigure2Deterministic(t *testing.T) {
	a, err := Figure2(Fig2Config{Seed: 7, Runs: 12})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure2(Fig2Config{Seed: 7, Runs: 12})
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Error("same seed produced different Figure 2")
	}
}

func TestFigure3Shape(t *testing.T) {
	res, err := Figure3(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 15 { // 5 sites × 3 accesses
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byKey := make(map[string]Fig3Row)
	for _, r := range res.Rows {
		byKey[r.Site+"/"+r.Access] = r
		// Shares sum to ~1 and no responses were unclassifiable.
		var sum float64
		for _, s := range r.Shares {
			sum += s
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s/%s shares sum to %v", r.Site, r.Access, sum)
		}
	}
	// Observation 2: for the same site and location, the pool mix
	// changes with the access network. Compare wired vs cellular for
	// every site's first pool.
	for site, pools := range res.PoolOrder {
		w := byKey[site+"/wired-campus"].Shares[pools[0]]
		c := byKey[site+"/cellular-mobile"].Shares[pools[0]]
		if diff := w - c; diff < 0.05 && diff > -0.05 {
			t.Errorf("%s: pool %q share barely moves across access types (%.2f vs %.2f)",
				site, pools[0], w, c)
		}
	}
	// Booking.com must be served exclusively from CloudFront.
	for _, access := range []string{"wired-campus", "wifi-home", "cellular-mobile"} {
		row := byKey["Booking.com/"+access]
		var cf float64
		for label, share := range row.Shares {
			if strings.Contains(label, "CloudFront") {
				cf += share
			}
		}
		if cf < 0.999 {
			t.Errorf("Booking.com/%s: CloudFront share %.3f", access, cf)
		}
	}
	if !strings.Contains(res.Render(), "Akamai (23.55.124.0/24)") {
		t.Error("render missing pool legend")
	}
}

func TestFigure5Shape(t *testing.T) {
	res, err := Figure5(Fig5Config{Seed: 42, Runs: 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	get := func(key string) Fig5Row {
		for _, r := range res.Rows {
			if r.Key == key {
				return r
			}
		}
		t.Fatalf("missing %s", key)
		return Fig5Row{}
	}
	mec := get(ScenarioMECMEC)
	lan := get(ScenarioMECLAN)
	wan := get(ScenarioMECWAN)
	lanLDNS := get(ScenarioLANLDNS)
	google := get(ScenarioGoogle)
	cf := get(ScenarioCloudflare)

	// Ordering: MEC < MEC+LAN < MEC+WAN < {LAN L-DNS, Google} < Cloudflare.
	if !(mec.Bar.Mean < lan.Bar.Mean && lan.Bar.Mean < wan.Bar.Mean) {
		t.Errorf("MEC ordering violated: %v %v %v", mec.Bar.Mean, lan.Bar.Mean, wan.Bar.Mean)
	}
	if !(wan.Bar.Mean < lanLDNS.Bar.Mean && wan.Bar.Mean < google.Bar.Mean) {
		t.Errorf("WAN C-DNS %v not below LAN L-DNS %v / Google %v", wan.Bar.Mean, lanLDNS.Bar.Mean, google.Bar.Mean)
	}
	if cf.Bar.Mean <= google.Bar.Mean || cf.Bar.Mean <= lanLDNS.Bar.Mean {
		t.Errorf("Cloudflare %v not slowest", cf.Bar.Mean)
	}

	// The paper's headline: up to ~9× lower latency than existing
	// non-MEC deployments.
	if sp := res.Speedup(); sp < 7 || sp > 13 {
		t.Errorf("speedup = %.1fx, want ≈9x", sp)
	}

	// Beyond-the-air resolver portion: only the two MEC L-DNS w/
	// MEC- or LAN-C-DNS deployments stay under 20ms.
	for _, r := range []Fig5Row{mec, lan} {
		if r.Resolver >= 20*time.Millisecond {
			t.Errorf("%s resolver portion %v ≥ 20ms", r.Key, r.Resolver)
		}
	}
	for _, r := range []Fig5Row{wan, lanLDNS, google, cf} {
		if r.Resolver < 20*time.Millisecond {
			t.Errorf("%s resolver portion %v unexpectedly < 20ms", r.Key, r.Resolver)
		}
	}

	// The wireless hop (~10ms one way) dominates the MEC bar.
	if mec.Wireless < 15*time.Millisecond || mec.Wireless > 30*time.Millisecond {
		t.Errorf("MEC wireless portion = %v, want ≈20–22ms", mec.Wireless)
	}
	if mec.Wireless < mec.Resolver {
		t.Errorf("wireless (%v) does not dominate MEC bar (resolver %v)", mec.Wireless, mec.Resolver)
	}

	// Rough absolute calibration against the paper's reported bars
	// (±35%): 29.4, 34.8, 60.9, 114.6, 112.5, 285.7 ms.
	paper := map[string]float64{
		ScenarioMECMEC:     29.4,
		ScenarioMECLAN:     34.8,
		ScenarioMECWAN:     60.9,
		ScenarioLANLDNS:    114.6,
		ScenarioGoogle:     112.5,
		ScenarioCloudflare: 285.7,
	}
	for key, want := range paper {
		got := stats.Ms(get(key).Bar.Mean)
		if got < want*0.65 || got > want*1.35 {
			t.Errorf("%s: %.1fms vs paper %.1fms (outside ±35%%)", key, got, want)
		}
	}

	out := res.Render()
	if !strings.Contains(out, "Cloudflare DNS") || !strings.Contains(out, "speedup") {
		t.Error("render incomplete")
	}
}

func TestFigure5Deterministic(t *testing.T) {
	a, err := Figure5(Fig5Config{Seed: 5, Runs: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure5(Fig5Config{Seed: 5, Runs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() || a.CSV() != b.CSV() {
		t.Error("same seed produced different Figure 5")
	}
	c, err := Figure5(Fig5Config{Seed: 6, Runs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.CSV() == c.CSV() {
		t.Error("different seeds produced identical Figure 5")
	}
}

func TestFigure5With5G(t *testing.T) {
	lteRes, err := Figure5(Fig5Config{Seed: 11, Runs: 10})
	if err != nil {
		t.Fatal(err)
	}
	nrRes, err := Figure5(Fig5Config{Seed: 11, Runs: 10, Air: lte.NR5G()})
	if err != nil {
		t.Fatal(err)
	}
	var lteMEC, nrMEC Fig5Row
	for i, r := range lteRes.Rows {
		if r.Key == ScenarioMECMEC {
			lteMEC, nrMEC = r, nrRes.Rows[i]
		}
	}
	// 5G drastically reduces the wireless component...
	if nrMEC.Wireless*3 > lteMEC.Wireless {
		t.Errorf("5G wireless %v not ≪ LTE %v", nrMEC.Wireless, lteMEC.Wireless)
	}
	// ...yielding an even greater end-to-end boost for MEC-CDN.
	if nrMEC.Bar.Mean >= lteMEC.Bar.Mean {
		t.Errorf("5G MEC bar %v not below LTE %v", nrMEC.Bar.Mean, lteMEC.Bar.Mean)
	}
	if nrRes.Air != "5g-nr" {
		t.Errorf("air label = %s", nrRes.Air)
	}
}

func TestECSExperiment(t *testing.T) {
	res, err := ECS(Fig5Config{Seed: 42, Runs: 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		// ECS is a wash: ratios stay near 1 (the paper saw 1.01×,
		// 1.08×, 0.95×).
		if row.Ratio < 0.85 || row.Ratio > 1.15 {
			t.Errorf("%s: ECS ratio %.2f far from 1", row.Key, row.Ratio)
		}
		// "In these experiments the DNS query was always correctly
		// resolved to the appropriate CDN cache server at the MEC."
		if !row.Correct {
			t.Errorf("%s: ECS answer did not point at the MEC cache", row.Key)
		}
	}
	if !strings.Contains(res.Render(), "ratio") {
		t.Error("render incomplete")
	}
}

func TestFallbackExperiment(t *testing.T) {
	res, err := Fallback(42, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byPolicy := make(map[string]FallbackRow)
	for _, r := range res.Rows {
		byPolicy[r.Policy] = r
	}
	prov := byPolicy["provider-only (today)"]
	mec := byPolicy["mec-only (server forward)"]
	multi := byPolicy["client multicast"]
	// MEC content resolves much faster at the MEC DNS.
	if mec.MECName >= prov.MECName {
		t.Errorf("MEC content: mec-only %v not below provider %v", mec.MECName, prov.MECName)
	}
	if res.MECAdvantage < 2 {
		t.Errorf("MEC advantage = %.1fx, want ≥2x", res.MECAdvantage)
	}
	// Multicast gets MEC content at MEC speed and web content at
	// ~provider speed (small overhead only).
	if multi.MECName > mec.MECName*13/10 {
		t.Errorf("multicast MEC latency %v far above mec-only %v", multi.MECName, mec.MECName)
	}
	if multi.WebName > prov.WebName*15/10 {
		t.Errorf("multicast web latency %v far above provider %v", multi.WebName, prov.WebName)
	}
	if !strings.Contains(res.Render(), "multicast") {
		t.Error("render incomplete")
	}
}

func TestDisaggregationExperiment(t *testing.T) {
	res, err := Disaggregation(42)
	if err != nil {
		t.Fatal(err)
	}
	// Observation 2: disaggregation increases the miss rate.
	if res.Spread >= res.Consolidated {
		t.Errorf("round-robin hit ratio %.3f not below content-aware %.3f", res.Spread, res.Consolidated)
	}
	if res.Consolidated < 0.5 {
		t.Errorf("content-aware hit ratio %.3f implausibly low", res.Consolidated)
	}
	if !strings.Contains(res.Render(), "hit ratio") {
		t.Error("render incomplete")
	}
}

func TestIPReuseExperiment(t *testing.T) {
	res, err := IPReuse(42)
	if err != nil {
		t.Fatal(err)
	}
	if res.WithReuse != 1 || res.WithoutReuse != ipReuseCustomers {
		t.Errorf("report = %d/%d", res.WithReuse, res.WithoutReuse)
	}
	if !strings.Contains(res.Render(), "public IP") {
		t.Error("render incomplete")
	}
}

func TestBudgetSweep(t *testing.T) {
	res, err := BudgetSweep(SweepConfig{Seed: 42, Runs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 8 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Resolver portion must grow monotonically (within jitter) with
	// distance, and the budget must break somewhere in the range.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].Resolver+time.Millisecond < res.Points[i-1].Resolver {
			t.Errorf("resolver portion shrank: %v then %v",
				res.Points[i-1].Resolver, res.Points[i].Resolver)
		}
	}
	if res.Crossover == 0 {
		t.Error("no crossover found in swept range")
	}
	// With ≈7ms of fixed processing, the 20ms budget breaks around
	// 6.5ms one-way (2×distance + fixed ≈ 20).
	if res.Crossover < 4*time.Millisecond || res.Crossover > 13*time.Millisecond {
		t.Errorf("crossover = %v, expected mid-single-digit ms", res.Crossover)
	}
	if !strings.Contains(res.Render(), "crossover") {
		t.Error("render incomplete")
	}
}

// TestSweepAtMECIsFigure5Bar1: X6 with its C-DNS one pod-network hop
// away is Figure 5's MEC bar at the same seed, to the nanosecond — the
// sweep and the figure share one site assembly and one measuring loop.
func TestSweepAtMECIsFigure5Bar1(t *testing.T) {
	fig, err := Figure5(Fig5Config{Seed: 42, Runs: 5})
	if err != nil {
		t.Fatal(err)
	}
	point, err := sweepPoint(42, time.Duration(lte.MECDelay), 5)
	if err != nil {
		t.Fatal(err)
	}
	bar := fig.Rows[0]
	if point.Total != bar.Bar.Mean || point.Resolver != bar.Resolver {
		t.Errorf("X6 at %v: total %v, DNS portion %v; Figure 5 %s: %v, %v",
			point.OneWay, point.Total, point.Resolver, bar.Key, bar.Bar.Mean, bar.Resolver)
	}
}

func TestLoadShedExperiment(t *testing.T) {
	// The driver is closed-loop (one query at a time), so its offered
	// rate saturates around 1/RTT ≈ 34 q/s; the first step stays under
	// the threshold of 20 and the second goes past it.
	res, err := LoadShed(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Offered) != len(loadShedSteps) {
		t.Fatalf("steps = %d", len(res.Offered))
	}
	// Below threshold: nothing diverted. Above: diversion kicks in
	// but every query was still answered (availability preserved).
	if res.Diverted[0] != 0 {
		t.Errorf("diverted %d below threshold", res.Diverted[0])
	}
	if res.Diverted[1] == 0 {
		t.Error("nothing diverted above threshold")
	}
	if res.MECServed[1] == 0 {
		t.Error("MEC served nothing above threshold")
	}
	if !strings.Contains(res.Render(), "diverted") {
		t.Error("render incomplete")
	}
}
