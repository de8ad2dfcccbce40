package dnsserver

import (
	"context"
	"sync"
	"time"

	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/telemetry"
	"github.com/meccdn/meccdn/internal/vclock"
)

// LoadShed implements the paper's DoS-mitigation policy: the MEC
// orchestrator monitors ingress load at the MEC DNS and, above a
// threshold, switches answering to the provider's L-DNS path (or
// refuses outright), so best-effort MEC resolution never becomes an
// attack amplifier on the vRAN.
//
// Admission is a token bucket holding MaxQueries tokens refilled at
// MaxQueries per Window, so a burst straddling a window boundary can
// never admit more than one bucket's worth — the failure mode of a
// hard fixed-window reset.
type LoadShed struct {
	// Clock supplies time. Nil means a wall clock, initialized on
	// first use.
	Clock vclock.Clock
	// Window is the refill period for a full bucket. Zero means 1s.
	Window time.Duration
	// MaxQueries is the bucket capacity (and the refill amount per
	// Window). Zero disables shedding.
	MaxQueries int
	// Fallback, when non-nil, handles shed queries (e.g. a Forward to
	// the provider L-DNS). When nil, shed queries are REFUSED.
	Fallback Handler

	mu     sync.Mutex
	tokens float64
	last   time.Duration
	primed bool

	ctrOnce      sync.Once
	shed, served *telemetry.Counter
}

// Name implements Plugin.
func (l *LoadShed) Name() string { return "loadshed" }

// counters lazily builds the admission counters as telemetry
// instruments, so LoadShed keeps working as a plain struct literal.
func (l *LoadShed) counters() (shed, served *telemetry.Counter) {
	l.ctrOnce.Do(func() {
		l.shed = telemetry.NewCounter("meccdn_dns_loadshed_shed_total", "Queries diverted to the fallback or refused by admission control.")
		l.served = telemetry.NewCounter("meccdn_dns_loadshed_served_total", "Queries admitted past the token bucket.")
	})
	return l.shed, l.served
}

// Collectors returns the admission metric families for registration
// on a telemetry.Registry.
func (l *LoadShed) Collectors() []telemetry.Collector {
	shed, served := l.counters()
	return []telemetry.Collector{shed, served}
}

// Shed returns how many queries were diverted or refused, and how many
// passed through.
func (l *LoadShed) Shed() (shed, served uint64) {
	sc, vc := l.counters()
	return sc.Value(), vc.Value()
}

// RecordShed counts one query shed outside the plugin chain — a UDP
// query refused a place among those waiting on the network, a TCP
// connection over MaxConns — so ingress drops and admission drops
// share one shed family.
func (l *LoadShed) RecordShed() {
	sc, _ := l.counters()
	sc.Inc()
}

// overloaded records one arrival and reports whether it exceeds the
// token-bucket budget.
func (l *LoadShed) overloaded() bool {
	if l.MaxQueries <= 0 {
		return false
	}
	shedCtr, servedCtr := l.counters()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.Clock == nil {
		l.Clock = vclock.NewReal()
	}
	window := l.Window
	if window <= 0 {
		window = time.Second
	}
	now := l.Clock.Now()
	max := float64(l.MaxQueries)
	if !l.primed {
		l.tokens = max
		l.primed = true
	} else {
		l.tokens += float64(now-l.last) / float64(window) * max
		if l.tokens > max {
			l.tokens = max
		}
	}
	l.last = now
	if l.tokens >= 1 {
		l.tokens--
		servedCtr.Inc()
		return false
	}
	shedCtr.Inc()
	return true
}

// ServeDNS implements Plugin.
func (l *LoadShed) ServeDNS(ctx context.Context, w ResponseWriter, r *Request, next Handler) (dnswire.Rcode, error) {
	if l.overloaded() {
		telemetry.Annotate(ctx, "loadshed", "shed")
		if l.Fallback != nil {
			return l.Fallback.ServeDNS(ctx, w, r)
		}
		m := new(dnswire.Message)
		m.SetRcode(r.Msg, dnswire.RcodeRefused)
		if err := w.WriteMsg(m); err != nil {
			return dnswire.RcodeServerFailure, err
		}
		return dnswire.RcodeRefused, nil
	}
	return next.ServeDNS(ctx, w, r)
}

// Metrics counts queries by type and response code and observes each
// query's ServeDNS duration once, into a fixed-bucket telemetry
// histogram — the same series /metrics exposes and the shutdown
// summaries quote — so the Fig-5 latency decomposition is observable
// on a live server, not only in simnet traces.
type Metrics struct {
	// Clock supplies the duration measurements. Nil means a wall
	// clock; set the simnet clock so the histogram reflects virtual
	// time in experiments.
	Clock vclock.Clock

	ctrOnce  sync.Once
	queries  *telemetry.CounterVec
	rcodes   *telemetry.CounterVec
	duration *telemetry.Histogram
}

// wallClock times queries for every Metrics without a Clock of its
// own; only differences of its readings are used.
var wallClock vclock.Clock = vclock.NewReal()

// NewMetrics returns an empty counter set.
func NewMetrics() *Metrics {
	m := &Metrics{}
	m.instruments()
	return m
}

// instruments lazily builds the telemetry families, so Metrics also
// works as a plain struct literal.
func (m *Metrics) instruments() (queries, rcodes *telemetry.CounterVec, duration *telemetry.Histogram) {
	m.ctrOnce.Do(func() {
		m.queries = telemetry.NewCounterVec("meccdn_dns_queries_total", "Queries served, by question type.", "type")
		m.rcodes = telemetry.NewCounterVec("meccdn_dns_responses_total", "Responses produced, by response code.", "rcode")
		m.duration = telemetry.NewHistogram("meccdn_dns_handler_duration_seconds", "Plugin-chain ServeDNS duration per query.")
	})
	return m.queries, m.rcodes, m.duration
}

// Collectors returns the metric families for registration on a
// telemetry.Registry.
func (m *Metrics) Collectors() []telemetry.Collector {
	queries, rcodes, duration := m.instruments()
	return []telemetry.Collector{queries, rcodes, duration}
}

// Name implements Plugin.
func (m *Metrics) Name() string { return "metrics" }

// ServeDNS implements Plugin.
func (m *Metrics) ServeDNS(ctx context.Context, w ResponseWriter, r *Request, next Handler) (dnswire.Rcode, error) {
	queries, rcodes, duration := m.instruments()
	clock := m.Clock
	if clock == nil {
		clock = wallClock
	}

	start := clock.Now()
	rcode, err := next.ServeDNS(ctx, w, r)
	elapsed := clock.Now() - start

	// Inc1 avoids the variadic []string allocation Inc pays per call;
	// Type/Rcode String() return static strings for known values, so
	// this pair is allocation-free on the hot path.
	queries.Inc1(r.Type().String())
	rcodes.Inc1(rcode.String())
	duration.Observe(elapsed)
	return rcode, err
}

// Total returns the number of queries observed.
func (m *Metrics) Total() uint64 {
	_, rcodes, _ := m.instruments()
	return rcodes.Sum()
}

// CountByRcode returns the count for one response code.
func (m *Metrics) CountByRcode(rc dnswire.Rcode) uint64 {
	_, rcodes, _ := m.instruments()
	return rcodes.Value(rc.String())
}

// CountByType returns the count for one query type.
func (m *Metrics) CountByType(t dnswire.Type) uint64 {
	queries, _, _ := m.instruments()
	return queries.Value(t.String())
}

// Duration returns the ServeDNS duration histogram, for summaries
// (Count, Sum, Quantile) outside a /metrics scrape.
func (m *Metrics) Duration() *telemetry.Histogram {
	_, _, duration := m.instruments()
	return duration
}
