package meccdn

import (
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/cdn"
	"github.com/meccdn/meccdn/internal/health"
)

// TestSiteHealthProbingAdmission: with a health registry attached, a
// freshly deployed site's caches are NOT in the hash ring — they join
// only after the first successful probe sweep (orchestrator-driven
// add through the registry, not straight into routing).
func TestSiteHealthProbingAdmission(t *testing.T) {
	d := deploy(t, 40, func(c *SiteConfig) {
		c.Health = &health.Config{DownAfter: 2, UpAfter: 1, MinDwell: -1}
	})
	if got := len(d.site.Router.Ring.Members()); got != 0 {
		t.Fatalf("ring members before first probe = %d, want 0 (caches still probing)", got)
	}
	for _, c := range d.site.Caches {
		if st, ok := d.site.Health.State(c.Name); !ok || st != health.StateProbing {
			t.Fatalf("cache %s state = %v (registered=%v), want probing", c.Name, st, ok)
		}
	}

	d.site.ProbeOnce()

	if got := len(d.site.Router.Ring.Members()); got != len(d.site.Caches) {
		t.Fatalf("ring members after probe = %d, want %d", got, len(d.site.Caches))
	}
	for _, c := range d.site.Caches {
		if st, _ := d.site.Health.State(c.Name); st != health.StateHealthy {
			t.Fatalf("cache %s state after probe = %v, want healthy", c.Name, st)
		}
	}
	res, err := d.ue.ResolveAndFetch(testDomain, "video.demo1."+testDomain)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Content.Served() {
		t.Fatalf("content not served after admission: %+v", res.Content)
	}
}

// TestSiteHealthDemotesDeadCache kills a cache's data plane and lets
// the probe loop discover it: within DownAfter sweeps the instance is
// demoted to down, leaves the ring, and the site serves from the
// survivor.
func TestSiteHealthDemotesDeadCache(t *testing.T) {
	d := deploy(t, 41, func(c *SiteConfig) {
		c.Health = &health.Config{DownAfter: 2, UpAfter: 1, MinDwell: -1}
	})
	d.site.ProbeOnce()
	name := "video.demo1." + testDomain
	first, err := d.ue.ResolveAndFetch(testDomain, name)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Content.Served() {
		t.Fatalf("baseline not served: %+v", first.Content)
	}

	owner := d.site.Router.Ring.Owner(name)
	var victim *cdn.CacheServer
	for _, c := range d.site.Caches {
		if c.Name == owner {
			victim = c
		}
	}
	if victim == nil {
		t.Fatal("no ring owner among caches")
	}
	// A dead data plane refuses probes too, so the registry notices
	// without anyone calling the control plane.
	victim.SetHealthy(false)
	for i := 0; i < 2; i++ { // DownAfter sweeps
		d.site.ProbeOnce()
	}
	if st, _ := d.site.Health.State(victim.Name); st != health.StateDown {
		t.Fatalf("victim state after %d failed probes = %v, want down", 2, st)
	}
	for _, m := range d.site.Router.Ring.Members() {
		if m == victim.Name {
			t.Fatalf("victim %s still in the ring after demotion", m)
		}
	}

	// Expire the cached DNS answer so the router re-selects.
	d.tb.Net.Clock.RunUntil(d.tb.Net.Now() + time.Minute)
	second, err := d.ue.ResolveAndFetch(testDomain, name)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Content.Served() {
		t.Fatalf("not served after demotion: %+v", second.Content)
	}
	if second.Resolve.Addr == first.Resolve.Addr {
		t.Error("router still points at the dead instance")
	}

	// Recovery: the data plane comes back, UpAfter sweeps re-admit it.
	victim.SetHealthy(true)
	d.site.ProbeOnce()
	if st, _ := d.site.Health.State(victim.Name); st != health.StateHealthy {
		t.Fatalf("victim state after recovery probe = %v, want healthy", st)
	}
	found := false
	for _, m := range d.site.Router.Ring.Members() {
		if m == victim.Name {
			found = true
		}
	}
	if !found {
		t.Error("recovered cache not re-admitted to the ring")
	}
}
