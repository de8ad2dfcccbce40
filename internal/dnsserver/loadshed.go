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
// MaxQueries per second, so a burst straddling a second boundary can
// never admit more than one bucket's worth — the failure mode of a
// hard fixed-window reset.
type LoadShed struct {
	// Clock supplies time. Nil means a wall clock, initialized on
	// first use.
	Clock vclock.Clock
	// MaxQueries is the bucket capacity (and the refill amount per
	// shedWindow). Zero disables shedding.
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

// shedWindow is the refill period for a full bucket.
const shedWindow = time.Second

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
	now := l.Clock.Now()
	max := float64(l.MaxQueries)
	if !l.primed {
		l.tokens = max
		l.primed = true
	} else {
		l.tokens += float64(now-l.last) / float64(shedWindow) * max
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
		return dnswire.RcodeRefused, nil // ResolveTo writes the refusal
	}
	return next.ServeDNS(ctx, w, r)
}

// Metrics counts queries by type and response code. It reads no
// clock: the telemetry hub's span times each query once, into
// meccdn_dns_serve_duration_seconds, on every ingress and under simnet.
type Metrics struct {
	queries *telemetry.Family // by qtypeLabels
	rcodes  *telemetry.Family // by rcodeLabels
}

// enumLabels are the label values of a family counting a protocol
// enum the client or an upstream chooses: one per value dnswire names,
// then "other" for every value it does not, so no query can mint a
// series.
type enumLabels struct {
	names []string // names[i] labels cell i; "other" is last
	cell  []uint8  // cell[v] for v below len(cell)
}

var (
	qtypeLabels = newEnumLabels(dnswire.NamedTypes())
	rcodeLabels = newEnumLabels(dnswire.NamedRcodes())
)

func newEnumLabels[T interface {
	~uint16
	String() string
}](named []T) enumLabels {
	e := enumLabels{cell: make([]uint8, int(named[len(named)-1])+1)}
	for v := range e.cell {
		e.cell[v] = uint8(len(named))
	}
	for i, v := range named {
		e.cell[v] = uint8(i)
		e.names = append(e.names, v.String())
	}
	e.names = append(e.names, "other")
	return e
}

// of returns v's cell.
func (e enumLabels) of(v uint16) int {
	if int(v) < len(e.cell) {
		return int(e.cell[v])
	}
	return len(e.names) - 1
}

// named returns v's name and whether dnswire knows it.
func (e enumLabels) named(v uint16) (string, bool) {
	i := e.of(v)
	return e.names[i], i < len(e.names)-1
}

// typeName and rcodeName are t.String() and rc.String(), read off the
// label tables for a value dnswire names instead of from String's map:
// serveQuery hands every span both.
func typeName(t dnswire.Type) string {
	if name, ok := qtypeLabels.named(uint16(t)); ok {
		return name
	}
	return t.String()
}

func rcodeName(rc dnswire.Rcode) string {
	if name, ok := rcodeLabels.named(uint16(rc)); ok {
		return name
	}
	return rc.String()
}

// NewMetrics returns an empty counter set.
func NewMetrics() *Metrics {
	return &Metrics{
		queries: telemetry.NewCounters("meccdn_dns_queries_total", "Queries served, by question type.", "type", qtypeLabels.names...),
		rcodes:  telemetry.NewCounters("meccdn_dns_responses_total", "Responses produced, by response code.", "rcode", rcodeLabels.names...),
	}
}

// Collectors returns the metric families for registration on a
// telemetry.Registry.
func (m *Metrics) Collectors() []telemetry.Collector {
	return []telemetry.Collector{m.queries, m.rcodes}
}

// Name implements Plugin.
func (m *Metrics) Name() string { return "metrics" }

// ServeDNS implements Plugin.
func (m *Metrics) ServeDNS(ctx context.Context, w ResponseWriter, r *Request, next Handler) (dnswire.Rcode, error) {
	rcode, err := next.ServeDNS(ctx, w, r)
	m.count(r, rcode)
	return rcode, err
}

// count counts r, answered with rcode.
func (m *Metrics) count(r *Request, rcode dnswire.Rcode) {
	m.queries.Inc(qtypeLabels.of(uint16(r.Type())))
	m.rcodes.Inc(rcodeLabels.of(uint16(rcode)))
}

// Total returns the number of queries observed.
func (m *Metrics) Total() uint64 { return m.rcodes.Sum() }

// CountByRcode returns the count for one response code; a code dnswire
// does not name reads the count of every such code.
func (m *Metrics) CountByRcode(rc dnswire.Rcode) uint64 {
	return m.rcodes.Values()[rcodeLabels.of(uint16(rc))]
}

// CountByType returns the count for one query type; a type dnswire
// does not name reads the count of every such type.
func (m *Metrics) CountByType(t dnswire.Type) uint64 {
	return m.queries.Values()[qtypeLabels.of(uint16(t))]
}
