// Package health is the MEC-CDN control plane's view of what is
// alive: active probers score cache instances and DNS upstreams, a
// per-target hysteresis state machine turns raw probe results into
// stable routing decisions.
//
// The pieces compose but do not require each other:
//
//   - Registry holds targets and their states. It is time-driven but
//     passive: callers feed it probe outcomes (ReportSuccess /
//     ReportFailure) and read back routing verdicts (Routable,
//     Eligible, Rank).
//     Under simnet the experiment loop drives it in virtual time;
//     under a live server the Checker drives it from goroutines.
//   - Checker is the active prober: a jittered periodic loop that
//     probes every registered target concurrently, gated on the DNS
//     server's graceful-drain scope so shutdown never leaks probes.
//   - Prober implementations do one probe: DNSProber speaks real DNS
//     to an upstream resolver; cdn.CacheProber (in internal/cdn)
//     speaks the simnet content protocol to a cache instance.
//
// The state machine per target:
//
//	          first success                ≥DownAfter consecutive failures
//	probing ────────────────▶ healthy ───────────────────────────▶ down
//	   │                      │      ▲                              ▲ │
//	   │ ≥DownAfter failures  │1 fail│≥UpAfter successes            │ │ ≥UpAfter successes
//	   ▼                      ▼      │ (dwell)                      │ ▼ (dwell)
//	 down                    degraded ──────≥DownAfter failures─────┘ healthy
//
// A new target starts in probing and is not routable until its first
// successful probe — a freshly (re)scheduled cache never enters the
// hash ring cold. healthy and degraded are routable; probing and down
// are not. Demotion to down happens after DownAfter consecutive
// failures regardless of dwell (a dead server must leave routing
// within DownAfter probe intervals), while the softer transitions —
// healthy→degraded on a first failure, and every promotion — respect
// MinDwell, so a flapping target alternating success and failure
// faster than the dwell never oscillates the ring.
package health

import (
	"fmt"
	"time"

	"github.com/meccdn/meccdn/internal/vclock"
)

// State is a target's position in the hysteresis state machine.
type State int

// Target states, in increasing order of distress.
const (
	// StateProbing is the admission state: the target is registered
	// but has not yet answered a probe. Not routable.
	StateProbing State = iota
	// StateHealthy targets answer probes and receive traffic.
	StateHealthy
	// StateDegraded targets have recently failed probes but not
	// enough to be declared down. Routable, but healthy candidates
	// are preferred; an all-degraded server set still serves
	// best-effort.
	StateDegraded
	// StateDown targets failed DownAfter consecutive probes and are
	// removed from routing until UpAfter consecutive successes.
	StateDown
)

// stateNames labels each State in metrics and the /health view; the
// state families' cell s counts State s.
var stateNames = []string{
	StateProbing: "probing", StateHealthy: "healthy", StateDegraded: "degraded", StateDown: "down",
}

// String returns the state label used in metrics and the /health view.
func (s State) String() string {
	if s >= 0 && int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Routable reports whether the state admits traffic.
func (s State) Routable() bool { return s == StateHealthy || s == StateDegraded }

// Config parameterizes a Registry and its Checker. The zero value
// gets sensible defaults from withDefaults.
type Config struct {
	// ProbeInterval is the nominal time between probe sweeps; the
	// Checker jitters each sweep by ±jitter of this. 0 means 1s.
	ProbeInterval time.Duration
	// DownAfter is the number of consecutive probe failures that
	// demotes a target to down. 0 means 3.
	DownAfter int
	// UpAfter is the number of consecutive probe successes that
	// promotes a degraded or down target back to healthy. 0 means 2.
	UpAfter int
	// MinDwell is the minimum time a target stays in its state before
	// a soft transition (healthy→degraded, any promotion) is allowed;
	// demotion to down is exempt. 0 means ProbeInterval; negative
	// disables dwell entirely.
	MinDwell time.Duration

	// Clock supplies time for dwell accounting. Nil means a wall
	// clock; use the simnet clock in experiments.
	Clock vclock.Clock
}

// ProbeTimeout bounds one probe exchange: half the probe interval,
// capped at 2s.
func (c Config) ProbeTimeout() time.Duration { return min(c.ProbeInterval/2, 2*time.Second) }

// ewmaAlpha weighs the newest probe RTT in a target's smoothed latency
// score.
const ewmaAlpha = 0.2

// withDefaults resolves zero fields to their documented defaults.
func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 3
	}
	if c.UpAfter <= 0 {
		c.UpAfter = 2
	}
	if c.MinDwell == 0 {
		c.MinDwell = c.ProbeInterval
	}
	if c.MinDwell < 0 {
		c.MinDwell = 0
	}
	if c.Clock == nil {
		c.Clock = vclock.NewReal()
	}
	return c
}
