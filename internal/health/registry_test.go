package health

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/telemetry"
)

// lockedClock is a thread-safe manually-advanced clock for -race tests.
type lockedClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *lockedClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *lockedClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

// newTestRegistry returns a registry with DownAfter=3, UpAfter=2,
// MinDwell=1s, and a manual clock starting at t=0.
func newTestRegistry(t *testing.T, mutate func(*Config)) (*Registry, *lockedClock) {
	t.Helper()
	clk := &lockedClock{}
	cfg := Config{
		ProbeInterval: time.Second,
		DownAfter:     3,
		UpAfter:       2,
		MinDwell:      time.Second,
		Clock:         clk,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return New(cfg), clk
}

func wantState(t *testing.T, r *Registry, name string, want State) {
	t.Helper()
	got, ok := r.State(name)
	if !ok {
		t.Fatalf("target %q not registered", name)
	}
	if got != want {
		t.Fatalf("target %q state = %v, want %v", name, got, want)
	}
}

func TestProbingAdmitsOnFirstSuccess(t *testing.T) {
	r, _ := newTestRegistry(t, nil)
	r.Add("cache-0", "10.0.0.1:53")
	if r.Routable("cache-0") {
		t.Fatal("fresh target must not be routable before its first successful probe")
	}
	wantState(t, r, "cache-0", StateProbing)
	r.ReportSuccess("cache-0", 2*time.Millisecond)
	wantState(t, r, "cache-0", StateHealthy)
	if !r.Routable("cache-0") {
		t.Fatal("healthy target must be routable")
	}
}

func TestProbingGoesDownWithoutEverAnswering(t *testing.T) {
	r, _ := newTestRegistry(t, nil)
	r.Add("cache-0", "10.0.0.1:53")
	for i := 0; i < 3; i++ {
		r.ReportFailure("cache-0")
	}
	wantState(t, r, "cache-0", StateDown)
	if r.Routable("cache-0") {
		t.Fatal("down target must not be routable")
	}
}

func TestHealthyDegradesAfterDwell(t *testing.T) {
	r, clk := newTestRegistry(t, nil)
	r.Add("c", "10.0.0.1:53")
	r.ReportSuccess("c", time.Millisecond)
	// One failure inside the dwell window: still healthy.
	r.ReportFailure("c")
	wantState(t, r, "c", StateHealthy)
	// Same single outstanding failure after the dwell: degraded.
	clk.Advance(time.Second)
	r.ReportFailure("c")
	wantState(t, r, "c", StateDegraded)
	if !r.Routable("c") {
		t.Fatal("degraded target must remain routable")
	}
}

// TestDownWithinDownAfterProbes is the acceptance bound: a cache that
// stops answering leaves routing within DownAfter consecutive probes,
// dwell notwithstanding.
func TestDownWithinDownAfterProbes(t *testing.T) {
	r, _ := newTestRegistry(t, func(c *Config) { c.MinDwell = time.Hour })
	r.Add("c", "10.0.0.1:53")
	r.ReportSuccess("c", time.Millisecond)
	for i := 0; i < 3; i++ {
		if !r.Routable("c") && i < 3 {
			t.Fatalf("target unroutable after only %d failures", i)
		}
		r.ReportFailure("c")
	}
	wantState(t, r, "c", StateDown)
	if r.Routable("c") {
		t.Fatal("down target still routable")
	}
}

func TestDegradedRecoversAfterUpAfterAndDwell(t *testing.T) {
	r, clk := newTestRegistry(t, nil)
	r.Add("c", "10.0.0.1:53")
	r.ReportSuccess("c", time.Millisecond)
	clk.Advance(time.Second)
	r.ReportFailure("c")
	wantState(t, r, "c", StateDegraded)
	// Two successes before the dwell has elapsed: still degraded.
	r.ReportSuccess("c", time.Millisecond)
	r.ReportSuccess("c", time.Millisecond)
	wantState(t, r, "c", StateDegraded)
	// After the dwell one more success completes the promotion.
	clk.Advance(time.Second)
	r.ReportSuccess("c", time.Millisecond)
	wantState(t, r, "c", StateHealthy)
}

func TestDegradedFallsToDown(t *testing.T) {
	r, clk := newTestRegistry(t, nil)
	r.Add("c", "10.0.0.1:53")
	r.ReportSuccess("c", time.Millisecond)
	clk.Advance(time.Second)
	r.ReportFailure("c")
	wantState(t, r, "c", StateDegraded)
	r.ReportFailure("c")
	r.ReportFailure("c")
	wantState(t, r, "c", StateDown)
}

func TestDownRecovers(t *testing.T) {
	r, clk := newTestRegistry(t, nil)
	r.Add("c", "10.0.0.1:53")
	for i := 0; i < 3; i++ {
		r.ReportFailure("c")
	}
	wantState(t, r, "c", StateDown)
	clk.Advance(time.Second)
	r.ReportSuccess("c", time.Millisecond)
	wantState(t, r, "c", StateDown)
	r.ReportSuccess("c", time.Millisecond)
	wantState(t, r, "c", StateHealthy)
}

// TestNoFlapUnderAlternatingResults is the anti-oscillation acceptance
// test: probe results alternating success/failure faster than the
// dwell must produce zero transitions once the target is admitted.
// Run with -race; routing decisions read concurrently with the probe
// stream, like a router racing a checker sweep.
func TestNoFlapUnderAlternatingResults(t *testing.T) {
	r, _ := newTestRegistry(t, func(c *Config) {
		c.DownAfter = 2
		c.UpAfter = 2
		c.MinDwell = time.Hour // alternation is always faster than dwell
	})
	r.Add("c", "10.0.0.1:53")
	r.ReportSuccess("c", time.Millisecond)
	wantState(t, r, "c", StateHealthy)

	var transitions sync.Map
	r.OnTransition(func(name string, from, to State) {
		transitions.Store(name+":"+from.String()+">"+to.String(), true)
	})

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !r.Routable("c") {
					t.Error("flapping target fell out of routing")
					return
				}
				r.Eligible("c")
				r.Rank("c")
				r.Snapshot()
			}
		}()
	}
	// Probe results alternate strictly (the scenario under test);
	// readers race them.
	for i := 0; i < 2000; i++ {
		if i%2 == 0 {
			r.ReportFailure("c")
		} else {
			r.ReportSuccess("c", time.Millisecond)
		}
	}
	close(stop)
	readers.Wait()

	count := 0
	transitions.Range(func(k, _ any) bool { count++; t.Errorf("unexpected transition %v", k); return true })
	if count != 0 {
		t.Fatalf("flapping target oscillated %d times; hysteresis must hold it steady", count)
	}
	wantState(t, r, "c", StateHealthy)
}

func TestUnknownTargetIsRoutable(t *testing.T) {
	r, _ := newTestRegistry(t, nil)
	if !r.Routable("never-registered") {
		t.Fatal("the registry must only veto targets it tracks")
	}
	if _, ok := r.State("never-registered"); ok {
		t.Fatal("State must report unknown targets")
	}
}

func TestEligibleDistinguishesDegraded(t *testing.T) {
	r, clk := newTestRegistry(t, nil)
	r.Add("c", "10.0.0.1:53")
	r.ReportSuccess("c", time.Millisecond)
	if routable, degraded := r.Eligible("c"); !routable || degraded {
		t.Fatalf("healthy: Eligible = (%v, %v), want (true, false)", routable, degraded)
	}
	clk.Advance(time.Second)
	r.ReportFailure("c")
	if routable, degraded := r.Eligible("c"); !routable || !degraded {
		t.Fatalf("degraded: Eligible = (%v, %v), want (true, true)", routable, degraded)
	}
}

func TestRemoveAndReAdd(t *testing.T) {
	r, _ := newTestRegistry(t, nil)
	r.Add("c", "10.0.0.1:53")
	r.ReportSuccess("c", time.Millisecond)
	r.Remove("c")
	if _, ok := r.State("c"); ok {
		t.Fatal("removed target still tracked")
	}
	// Re-adding starts over in probing: no memory of past health.
	r.Add("c", "10.0.0.2:53")
	wantState(t, r, "c", StateProbing)
	if got := r.Targets(); len(got) != 1 || got[0].Addr != "10.0.0.2:53" {
		t.Fatalf("Targets() = %v, want the re-added addr", got)
	}
	// Add of an existing name only updates the address.
	r.Add("c", "10.0.0.3:53")
	if got := r.Targets(); len(got) != 1 || got[0].Addr != "10.0.0.3:53" {
		t.Fatalf("Targets() after re-Add = %v", got)
	}
}

func TestRankOrdering(t *testing.T) {
	r, clk := newTestRegistry(t, nil)
	for _, n := range []string{"healthy", "degraded", "probing", "down"} {
		r.Add(n, "10.0.0.1:53")
	}
	mk := func(name string, to State) {
		switch to {
		case StateHealthy:
			r.ReportSuccess(name, time.Millisecond)
		case StateDegraded:
			r.ReportSuccess(name, time.Millisecond)
			clk.Advance(time.Second)
			r.ReportFailure(name)
		case StateDown:
			for i := 0; i < 3; i++ {
				r.ReportFailure(name)
			}
		}
		wantState(t, r, name, to)
	}
	mk("healthy", StateHealthy)
	mk("degraded", StateDegraded)
	mk("down", StateDown)

	rank := func(name string) int { k, _ := r.Rank(name); return k }
	order := []string{"healthy", "unknown", "degraded", "probing", "down"}
	for i := 1; i < len(order); i++ {
		if rank(order[i-1]) >= rank(order[i]) {
			t.Fatalf("rank(%s)=%d not better than rank(%s)=%d",
				order[i-1], rank(order[i-1]), order[i], rank(order[i]))
		}
	}
}

func TestEWMALatency(t *testing.T) {
	r, _ := newTestRegistry(t, nil)
	r.Add("c", "10.0.0.1:53")
	ewma := func() time.Duration { _, e := r.Rank("c"); return e }
	if got := ewma(); got != 0 {
		t.Fatalf("EWMA before any success = %v, want 0 (unknown)", got)
	}
	r.ReportSuccess("c", 10*time.Millisecond)
	if got := ewma(); got != 10*time.Millisecond {
		t.Fatalf("first sample must seed the EWMA, got %v", got)
	}
	r.ReportSuccess("c", 20*time.Millisecond)
	if got := ewma(); got != 12*time.Millisecond {
		t.Fatalf("EWMA(0.2) after 10ms,20ms = %v, want 12ms", got)
	}
}

func TestTransitionListenerRuns(t *testing.T) {
	r, _ := newTestRegistry(t, nil)
	r.Add("c", "10.0.0.1:53")
	var got []string
	r.OnTransition(func(name string, from, to State) {
		got = append(got, name+":"+from.String()+">"+to.String())
		// Listeners run without the registry lock: calling back in
		// must not deadlock.
		r.Routable(name)
	})
	r.ReportSuccess("c", time.Millisecond)
	if len(got) != 1 || got[0] != "c:probing>healthy" {
		t.Fatalf("transitions seen = %v", got)
	}
}

func TestSnapshotAndExposition(t *testing.T) {
	r, _ := newTestRegistry(t, nil)
	reg := telemetry.NewRegistry()
	reg.MustRegister(r.Collectors()...)
	r.Add("a", "10.0.0.1:53")
	r.Add("b", "10.0.0.2:53")
	r.ReportSuccess("a", time.Millisecond)
	r.ReportFailure("b")

	snap := r.Snapshot()
	if len(snap.Targets) != 2 || snap.Targets[0].Name != "a" || snap.Targets[1].Name != "b" {
		t.Fatalf("snapshot targets = %+v", snap.Targets)
	}
	if snap.Targets[0].State != "healthy" || snap.Targets[1].State != "probing" {
		t.Fatalf("snapshot states = %s, %s", snap.Targets[0].State, snap.Targets[1].State)
	}
	if snap.Targets[1].ConsecFail != 1 {
		t.Fatalf("b consecutive failures = %d, want 1", snap.Targets[1].ConsecFail)
	}
	if snap.Targets[0].Transitions != 1 || snap.Targets[1].Transitions != 0 {
		t.Fatalf("transitions = %d, %d, want 1, 0", snap.Targets[0].Transitions, snap.Targets[1].Transitions)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`meccdn_health_probes_total{result="success"} 1`,
		`meccdn_health_probes_total{result="failure"} 1`,
		`meccdn_health_targets{state="healthy"} 1`,
		`meccdn_health_targets{state="probing"} 1`,
		`meccdn_health_targets{state="down"} 0`,
		`meccdn_health_transitions_total{to="healthy"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.ProbeInterval != time.Second || cfg.DownAfter != 3 || cfg.UpAfter != 2 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
	if got := cfg.ProbeTimeout(); got != 500*time.Millisecond {
		t.Fatalf("ProbeTimeout = %v, want interval/2", got)
	}
	if got := (Config{ProbeInterval: 10 * time.Second}).withDefaults().ProbeTimeout(); got != 2*time.Second {
		t.Fatalf("ProbeTimeout at a 10s interval = %v, want the 2s cap", got)
	}
	if cfg.MinDwell != time.Second {
		t.Fatalf("MinDwell default = %v, want ProbeInterval", cfg.MinDwell)
	}
	if cfg.Clock == nil {
		t.Fatal("Clock default must be the wall clock")
	}
	neg := Config{MinDwell: -1}.withDefaults()
	if neg.MinDwell != 0 {
		t.Fatalf("negative MinDwell must disable, got %v", neg.MinDwell)
	}
}
