package health

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// flakyProber fails targets listed in down and counts probes.
type flakyProber struct {
	mu     sync.Mutex
	down   map[string]bool
	probes map[string]int
}

func newFlakyProber() *flakyProber {
	return &flakyProber{down: make(map[string]bool), probes: make(map[string]int)}
}

func (p *flakyProber) setDown(name string, d bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.down[name] = d
}

func (p *flakyProber) count(name string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.probes[name]
}

func (p *flakyProber) Probe(_ context.Context, t TargetID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.probes[t.Name]++
	if p.down[t.Name] {
		return errors.New("probe: no answer")
	}
	return nil
}

func TestRunOnceSweepsAllTargets(t *testing.T) {
	r, _ := newTestRegistry(t, nil)
	p := newFlakyProber()
	p.setDown("bad", true)
	c := &Checker{Registry: r, Prober: p}
	r.Add("good", "10.0.0.1:53")
	r.Add("bad", "10.0.0.2:53")

	c.RunOnce(context.Background())
	wantState(t, r, "good", StateHealthy)
	wantState(t, r, "bad", StateProbing)
	c.RunOnce(context.Background())
	c.RunOnce(context.Background())
	wantState(t, r, "bad", StateDown)
	if p.count("good") != 3 || p.count("bad") != 3 {
		t.Fatalf("probe counts = %d/%d, want 3/3", p.count("good"), p.count("bad"))
	}
}

// TestCheckerDemotesDeadTargetWithinBound runs the live goroutine loop
// against a wall clock: a target that stops answering is down within
// DownAfter probe intervals (plus jitter slack).
func TestCheckerDemotesDeadTargetWithinBound(t *testing.T) {
	r := New(Config{
		ProbeInterval: 5 * time.Millisecond, // probes time out at 2.5ms
		DownAfter:     3,
		UpAfter:       2,
		MinDwell:      -1, // promotions gate on UpAfter alone here
	})
	p := newFlakyProber()
	c := &Checker{Registry: r, Prober: p}
	r.Add("c", "10.0.0.1:53")
	c.Start()
	defer c.Stop()

	waitFor := func(want State, within time.Duration) {
		t.Helper()
		deadline := time.Now().Add(within)
		for time.Now().Before(deadline) {
			if got, _ := r.State("c"); got == want {
				return
			}
			time.Sleep(time.Millisecond)
		}
		got, _ := r.State("c")
		t.Fatalf("state = %v after %v, want %v", got, within, want)
	}
	waitFor(StateHealthy, time.Second)
	p.setDown("c", true)
	// 3 failures × 5ms nominal interval; allow generous scheduler slack.
	waitFor(StateDown, time.Second)
	p.setDown("c", false)
	waitFor(StateHealthy, time.Second)
}

// drainGate mimics dnsserver.Server's TrackBackground: refuses once
// draining, counts active scopes.
type drainGate struct {
	mu       sync.Mutex
	draining bool
	active   int
	refused  int
}

func (g *drainGate) TrackBackground() (func(), bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		g.refused++
		return nil, false
	}
	g.active++
	return func() {
		g.mu.Lock()
		g.active--
		g.mu.Unlock()
	}, true
}

func TestCheckerRespectsDrain(t *testing.T) {
	r := New(Config{ProbeInterval: 2 * time.Millisecond})
	p := newFlakyProber()
	g := &drainGate{}
	c := &Checker{Registry: r, Prober: p, Background: g}
	r.Add("c", "10.0.0.1:53")
	c.Start()

	deadline := time.Now().Add(time.Second)
	for p.count("c") == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if p.count("c") == 0 {
		t.Fatal("checker never probed")
	}

	g.mu.Lock()
	g.draining = true
	g.mu.Unlock()
	// Wait for a refused sweep, then confirm probing stopped and no
	// background scope is still held.
	for time.Now().Before(deadline) {
		g.mu.Lock()
		refused := g.refused
		g.mu.Unlock()
		if refused > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	before := p.count("c")
	time.Sleep(20 * time.Millisecond)
	if after := p.count("c"); after != before {
		t.Fatalf("probes continued while draining: %d -> %d", before, after)
	}
	c.Stop()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.active != 0 {
		t.Fatalf("%d background scopes leaked past Stop", g.active)
	}
	if g.refused == 0 {
		t.Fatal("draining gate was never consulted")
	}
}

func TestCheckerStopIsIdempotent(t *testing.T) {
	r := New(Config{ProbeInterval: time.Millisecond})
	c := &Checker{Registry: r, Prober: newFlakyProber()}
	c.Stop() // never started: no-op
	c.Start()
	c.Stop()
	c.Stop()
	// Restartable after Stop.
	c.Start()
	c.Stop()
}

func TestNextIntervalJitterBounds(t *testing.T) {
	r := New(Config{ProbeInterval: time.Second})
	c := &Checker{Registry: r}
	c.mu.Lock()
	c.rng = rand.New(rand.NewSource(1))
	c.mu.Unlock()
	lo, hi := 900*time.Millisecond, 1100*time.Millisecond
	varied := false
	for i := 0; i < 200; i++ {
		d := c.nextInterval()
		if d < lo || d > hi {
			t.Fatalf("jittered interval %v outside [%v, %v]", d, lo, hi)
		}
		if d != time.Second {
			varied = true
		}
	}
	if !varied {
		t.Fatal("jitter produced no variation")
	}
}
