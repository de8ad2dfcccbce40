package health

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// Prober performs one probe of a target. Implementations must honour
// ctx's deadline; returning nil means the target is alive (even if it
// answered with a protocol-level refusal — an answering server is an
// alive server).
type Prober interface {
	Probe(ctx context.Context, t TargetID) error
}

// BackgroundTracker is the graceful-drain scope probes run under. It
// is structurally identical to dnsserver.BackgroundTracker (declared
// locally so health sits below dnsserver in the import graph);
// *dnsserver.Server satisfies it directly.
type BackgroundTracker interface {
	TrackBackground() (done func(), ok bool)
}

// Checker drives a Registry with active probes. Two modes:
//
//   - Start launches a goroutine that sweeps all registered targets at
//     a jittered ProbeInterval until Stop — the live-server mode used
//     by dnsd.
//   - RunOnce performs one sequential, deterministic sweep on the
//     caller's goroutine — the simnet mode, where the experiment loop
//     owns virtual time and concurrency would be meaningless.
type Checker struct {
	Registry *Registry
	Prober   Prober
	// Background, when set, scopes every sweep under the server's
	// drain contract: once shutdown begins TrackBackground refuses and
	// the sweep is skipped, so no probe outlives the process's
	// in-flight window.
	Background BackgroundTracker

	mu   sync.Mutex
	rng  *rand.Rand
	stop chan struct{}
	done chan struct{}
}

// Start begins the periodic probe loop. It panics if the checker is
// already running or has no registry.
func (c *Checker) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.Registry == nil {
		panic("health: Checker.Start with nil Registry")
	}
	if c.stop != nil {
		panic("health: Checker already started")
	}
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	go c.loop(c.stop, c.done)
}

// Stop halts the probe loop and waits for the in-flight sweep to
// finish. Safe to call on a never-started checker.
func (c *Checker) Stop() {
	c.mu.Lock()
	stop, done := c.stop, c.done
	c.stop, c.done = nil, nil
	c.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

func (c *Checker) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	timer := time.NewTimer(c.nextInterval())
	defer timer.Stop()
	for {
		select {
		case <-stop:
			return
		case <-timer.C:
		}
		c.sweep(stop)
		timer.Reset(c.nextInterval())
	}
}

// jitter is the fraction of ProbeInterval each sweep is randomly
// advanced or delayed by, de-synchronizing probers across instances.
const jitter = 0.1

// nextInterval jitters the probe interval by ±jitter so a fleet of
// checkers started together does not synchronize its probe bursts.
func (c *Checker) nextInterval() time.Duration {
	c.mu.Lock()
	f := 1 + jitter*(2*c.rng.Float64()-1)
	c.mu.Unlock()
	d := time.Duration(float64(c.Registry.Config().ProbeInterval) * f)
	if d <= 0 {
		d = time.Millisecond
	}
	return d
}

// sweep probes every registered target concurrently.
func (c *Checker) sweep(stop <-chan struct{}) {
	if c.Background != nil {
		release, ok := c.Background.TrackBackground()
		if !ok {
			return // draining; no new probes
		}
		defer release()
	}
	targets := c.Registry.Targets()
	if len(targets) == 0 || c.Prober == nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-stop:
			cancel()
		case <-ctx.Done():
		}
	}()
	var wg sync.WaitGroup
	for _, t := range targets {
		wg.Add(1)
		go func(t TargetID) {
			defer wg.Done()
			c.probeOne(ctx, t)
		}(t)
	}
	wg.Wait()
}

// RunOnce performs one sequential probe sweep on the caller's
// goroutine. This is the virtual-time entry point: under
// simnet each Probe advances the virtual clock through the simulated
// exchange, so the sweep is deterministic and replayable.
func (c *Checker) RunOnce(ctx context.Context) {
	if c.Prober == nil {
		return
	}
	for _, t := range c.Registry.Targets() {
		c.probeOne(ctx, t)
	}
}

func (c *Checker) probeOne(ctx context.Context, t TargetID) {
	cfg := c.Registry.Config()
	ctx, cancel := context.WithTimeout(ctx, cfg.ProbeTimeout())
	defer cancel()
	start := cfg.Clock.Now()
	err := c.Prober.Probe(ctx, t)
	if err != nil {
		c.Registry.ReportFailure(t.Name)
		return
	}
	c.Registry.ReportSuccess(t.Name, cfg.Clock.Now()-start)
}
