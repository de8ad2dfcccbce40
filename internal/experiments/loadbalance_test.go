package experiments

import (
	"strings"
	"testing"
)

// x8SmokeConfig is the small-N population used by tests and `make ci`:
// the same three scenarios over the fixed corpus, scaled to finish in
// well under a second.
func x8SmokeConfig(seed int64) LoadBalanceConfig {
	return LoadBalanceConfig{Seed: seed, UEs: 40_000}
}

func TestLoadBalanceSmoke(t *testing.T) {
	res, err := LoadBalance(x8SmokeConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != 3 {
		t.Fatalf("want 3 scenarios, got %d", len(res.Scenarios))
	}
	for _, sc := range res.Scenarios {
		if len(sc.Arms) != 2 {
			t.Fatalf("%s: want plain+bounded arms, got %d", sc.Name, len(sc.Arms))
		}
		plain, bounded := sc.Arms[0], sc.Arms[1]
		if plain.Ring != "plain" || bounded.Ring != "bounded" {
			t.Fatalf("%s: arm order %q,%q", sc.Name, plain.Ring, bounded.Ring)
		}
		if plain.Requests == 0 || plain.Requests != bounded.Requests {
			t.Fatalf("%s: request mismatch plain=%d bounded=%d", sc.Name, plain.Requests, bounded.Requests)
		}
		if plain.Spills != 0 {
			t.Errorf("%s: plain ring recorded %d spills", sc.Name, plain.Spills)
		}
		if bounded.Spills == 0 {
			t.Errorf("%s: bounded ring never spilled", sc.Name)
		}
		// The point of the bounded ring: tighter within-site spread
		// in every scenario.
		if bounded.MeanSpread >= plain.MeanSpread {
			t.Errorf("%s: bounded spread %.2f not tighter than plain %.2f",
				sc.Name, bounded.MeanSpread, plain.MeanSpread)
		}
	}
}

// TestLoadBalanceFlashCrowd pins the X8 acceptance criteria on the
// flash-crowd scenario: the bounded ring keeps the per-cache load
// spread near the configured cap and does not pay for it in tail
// latency.
func TestLoadBalanceFlashCrowd(t *testing.T) {
	res, err := LoadBalance(x8SmokeConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	var flash *LoadBalanceScenario
	for i := range res.Scenarios {
		if res.Scenarios[i].Name == "flash-crowd" {
			flash = &res.Scenarios[i]
		}
	}
	if flash == nil {
		t.Fatal("no flash-crowd scenario")
	}
	plain, bounded := flash.Arms[0], flash.Arms[1]
	// Mean spread stays at or under the cap multiple (peak ticks may
	// transiently exceed it while the decayed window catches up, so
	// the mean carries a small tolerance).
	if bounded.MeanSpread > lbLoadFactor*1.1 {
		t.Errorf("bounded mean spread %.2f above cap c=%.2f", bounded.MeanSpread, lbLoadFactor)
	}
	if plain.MeanSpread <= lbLoadFactor {
		t.Errorf("plain ring unexpectedly even: spread %.2f <= c=%.2f (hot spot not reproduced)",
			plain.MeanSpread, lbLoadFactor)
	}
	if bounded.P99 > plain.P99 {
		t.Errorf("bounded p99 %v worse than plain %v", bounded.P99, plain.P99)
	}
	if res.CohortHandoffs == 0 {
		t.Error("handoff storm produced no mobility events")
	}
}

func TestLoadBalanceRender(t *testing.T) {
	res, err := LoadBalance(LoadBalanceConfig{Seed: 1, UEs: 4_000})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	for _, want := range []string{"flash-crowd", "diurnal-tide", "handoff-storm", "bounded", "plain"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}
