package health

import (
	"sort"
	"sync"
	"time"

	"github.com/meccdn/meccdn/internal/telemetry"
)

// target is one probed entity's live scorecard.
type target struct {
	name, addr  string
	state       State
	since       time.Duration // state entry time
	consecFail  int
	consecOK    int
	probes      uint64 // total probes reported
	failures    uint64 // total failed probes
	transitions uint64 // state changes since Add
	ewma        time.Duration
}

// TargetID names one registered target and its probe address.
type TargetID struct {
	Name string
	Addr string
}

// TargetStatus is one target's row in the /health admin view.
type TargetStatus struct {
	Name        string        `json:"name"`
	Addr        string        `json:"addr,omitempty"`
	State       string        `json:"state"`
	Routable    bool          `json:"routable"`
	InStateFor  time.Duration `json:"in_state_for"`
	ConsecFail  int           `json:"consecutive_failures"`
	ConsecOK    int           `json:"consecutive_successes"`
	Probes      uint64        `json:"probes"`
	Failures    uint64        `json:"failures"`
	Transitions uint64        `json:"transitions"`
	EWMA        time.Duration `json:"ewma_latency"`
}

// Status is the registry snapshot served at /health.
type Status struct {
	Targets []TargetStatus `json:"targets"`
}

// Registry is the health control plane's source of truth: target
// states and probe scores. All methods are safe for concurrent use;
// transition listeners are invoked without the registry lock held, so
// they may call back into the registry.
type Registry struct {
	cfg Config

	mu        sync.Mutex
	targets   map[string]*target
	listeners []func(name string, from, to State)

	// Instruments. Built once in New; Collectors hands them to a
	// telemetry.Registry.
	probes      *telemetry.Family // by probeSuccess, probeFailure
	transitions *telemetry.Family // by the State entered
	states      *telemetry.Family // by State
	probeRTT    *telemetry.Histogram
}

// Cells of meccdn_health_probes_total.
const (
	probeSuccess = iota
	probeFailure
)

// New returns an empty registry with cfg's zero fields defaulted.
func New(cfg Config) *Registry {
	return &Registry{
		cfg:     cfg.withDefaults(),
		targets: make(map[string]*target),
		probes: telemetry.NewCounters("meccdn_health_probes_total",
			"Active health probes by outcome.", "result", "success", "failure"),
		transitions: telemetry.NewCounters("meccdn_health_transitions_total",
			"Target state-machine transitions by new state; /health counts each target's.", "to", stateNames...),
		states: telemetry.NewGauges("meccdn_health_targets",
			"Registered targets by current state.", "state", stateNames...),
		probeRTT: telemetry.NewHistogram("meccdn_health_probe_rtt_seconds",
			"Round-trip time of successful health probes."),
	}
}

// Config returns the registry's resolved configuration (defaults
// applied); the Checker reads its cadence from here.
func (r *Registry) Config() Config { return r.cfg }

// Collectors returns the registry's metric families for registration
// on a telemetry.Registry.
func (r *Registry) Collectors() []telemetry.Collector {
	return []telemetry.Collector{r.probes, r.transitions, r.states, r.probeRTT}
}

// Add registers a probe target in the probing state. It is not
// routable until its first successful probe. Re-adding an existing
// name only updates its probe address.
func (r *Registry) Add(name, addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.targets[name]; ok {
		t.addr = addr
		return
	}
	r.targets[name] = &target{name: name, addr: addr, state: StateProbing, since: r.cfg.Clock.Now()}
	r.states.Inc(int(StateProbing))
}

// Remove deregisters a target.
func (r *Registry) Remove(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.targets[name]; ok {
		r.states.Dec(int(t.state))
		delete(r.targets, name)
	}
}

// Targets returns the registered targets sorted by name, for probe
// sweeps.
func (r *Registry) Targets() []TargetID {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TargetID, 0, len(r.targets))
	for _, t := range r.targets {
		out = append(out, TargetID{Name: t.name, Addr: t.addr})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// State returns the target's state; ok=false for unknown targets.
func (r *Registry) State(name string) (State, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.targets[name]
	if !ok {
		return StateProbing, false
	}
	return t.state, true
}

// Routable reports whether traffic may be routed to the target. An
// unknown target is routable (the registry only vetoes what it
// tracks).
func (r *Registry) Routable(name string) bool {
	ok, _ := r.Eligible(name)
	return ok
}

// Eligible is Routable plus the degraded distinction candidate
// selection needs: degraded targets serve only when no healthy
// candidate exists.
func (r *Registry) Eligible(name string) (routable, degraded bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.targets[name]
	if !ok {
		return true, false
	}
	return t.state.Routable(), t.state == StateDegraded
}

// OnTransition subscribes fn to state transitions. Listeners run
// synchronously on the goroutine that reported the probe result,
// after the registry lock is released.
func (r *Registry) OnTransition(fn func(name string, from, to State)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.listeners = append(r.listeners, fn)
}

// ReportSuccess records one successful probe of name with the
// measured round-trip time, advancing the state machine.
func (r *Registry) ReportSuccess(name string, rtt time.Duration) {
	r.report(name, true, rtt)
}

// ReportFailure records one failed probe of name.
func (r *Registry) ReportFailure(name string) {
	r.report(name, false, 0)
}

func (r *Registry) report(name string, ok bool, rtt time.Duration) {
	now := r.cfg.Clock.Now()
	r.mu.Lock()
	t, known := r.targets[name]
	if !known {
		r.mu.Unlock()
		return
	}
	t.probes++
	if ok {
		r.probes.Inc(probeSuccess)
		r.probeRTT.Observe(rtt)
		t.consecOK++
		t.consecFail = 0
		if t.ewma == 0 {
			t.ewma = rtt
		} else {
			t.ewma = time.Duration(ewmaAlpha*float64(rtt) + (1-ewmaAlpha)*float64(t.ewma))
		}
	} else {
		r.probes.Inc(probeFailure)
		t.failures++
		t.consecFail++
		t.consecOK = 0
	}
	from := t.state
	to := r.nextStateLocked(t, now)
	var listeners []func(string, State, State)
	if to != from {
		t.state = to
		t.since = now
		t.transitions++
		r.states.Dec(int(from))
		r.states.Inc(int(to))
		r.transitions.Inc(int(to))
		listeners = r.listeners
	}
	r.mu.Unlock()
	for _, fn := range listeners {
		fn(name, from, to)
	}
}

// nextStateLocked applies the hysteresis rules. Demotion to down is
// exempt from dwell (a dead target must leave routing within
// DownAfter probes); every other transition out of a routable state,
// and every promotion, waits out MinDwell so alternating results
// cannot flap the target.
func (r *Registry) nextStateLocked(t *target, now time.Duration) State {
	dwelled := now-t.since >= r.cfg.MinDwell
	switch t.state {
	case StateProbing:
		if t.consecOK >= 1 {
			// First successful probe admits the target.
			return StateHealthy
		}
		if t.consecFail >= r.cfg.DownAfter {
			return StateDown
		}
	case StateHealthy:
		if t.consecFail >= r.cfg.DownAfter {
			return StateDown
		}
		if t.consecFail >= 1 && dwelled {
			return StateDegraded
		}
	case StateDegraded:
		if t.consecFail >= r.cfg.DownAfter {
			return StateDown
		}
		if t.consecOK >= r.cfg.UpAfter && dwelled {
			return StateHealthy
		}
	case StateDown:
		if t.consecOK >= r.cfg.UpAfter && dwelled {
			return StateHealthy
		}
	}
	return t.state
}

// rank orders states for upstream scoring: untracked targets slot in
// just after healthy ones (no evidence against them), and anything
// not routable goes last.
func stateRank(s State, tracked bool) int {
	if !tracked {
		return 1
	}
	switch s {
	case StateHealthy:
		return 0
	case StateDegraded:
		return 2
	case StateProbing:
		return 3
	default: // StateDown
		return 4
	}
}

// Rank scores a target for candidate ordering: lower rank is better,
// ties break on EWMA probe latency (unknown latency sorts as zero,
// keeping configured order among fresh targets under a stable sort).
func (r *Registry) Rank(name string) (rank int, ewma time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.targets[name]
	if !ok {
		return stateRank(StateProbing, false), 0
	}
	return stateRank(t.state, true), t.ewma
}

// Snapshot renders the registry for the /health admin view.
func (r *Registry) Snapshot() Status {
	now := r.cfg.Clock.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Status{Targets: make([]TargetStatus, 0, len(r.targets))}
	for _, t := range r.targets {
		st.Targets = append(st.Targets, TargetStatus{
			Name:        t.name,
			Addr:        t.addr,
			State:       t.state.String(),
			Routable:    t.state.Routable(),
			InStateFor:  now - t.since,
			ConsecFail:  t.consecFail,
			ConsecOK:    t.consecOK,
			Probes:      t.probes,
			Failures:    t.failures,
			Transitions: t.transitions,
			EWMA:        t.ewma,
		})
	}
	sort.Slice(st.Targets, func(i, j int) bool { return st.Targets[i].Name < st.Targets[j].Name })
	return st
}
