// Package telemetry is the runtime observability substrate of the
// MEC-CDN stack: a lock-cheap metrics registry with Prometheus text
// exposition, per-query spans propagated through context.Context that
// decompose one resolution into its hops (the live counterpart of the
// paper's Fig 5 wireless-vs-resolver breakdown), and a bounded,
// head-sampled structured query log in the spirit of dnstap.
//
// Everything here is stdlib-only. Hot-path instruments (Counter,
// Gauge, Histogram) are single atomic operations; exposition and log
// draining take locks only on the slow, operator-facing path.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Collector is one metric family that can describe itself and render
// its current samples in Prometheus text format. All instruments in
// this package implement it; register the ones a process should
// expose on a Registry.
type Collector interface {
	// MetricName returns the family name, e.g. "meccdn_dns_cache_hits_total".
	MetricName() string
	metricHelp() string
	metricType() string
	writeSamples(b *strings.Builder)
}

// Registry is a named set of metric families. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Collector)}
}

// Register adds collectors, rejecting duplicate family names so two
// components cannot silently alias each other's series.
func (r *Registry) Register(cs ...Collector) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range cs {
		name := c.MetricName()
		if _, dup := r.byName[name]; dup {
			return fmt.Errorf("telemetry: duplicate metric %q", name)
		}
		r.byName[name] = c
	}
	return nil
}

// MustRegister is Register that panics on duplicates — misconfigured
// telemetry is a programming error, not a runtime condition.
func (r *Registry) MustRegister(cs ...Collector) {
	if err := r.Register(cs...); err != nil {
		panic(err)
	}
}

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4), sorted by family name so output
// is stable for golden tests and diffable for operators.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	collectors := make([]Collector, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		collectors = append(collectors, r.byName[n])
	}
	r.mu.RUnlock()

	var b strings.Builder
	for _, c := range collectors {
		fmt.Fprintf(&b, "# HELP %s %s\n", c.MetricName(), escapeHelp(c.metricHelp()))
		fmt.Fprintf(&b, "# TYPE %s %s\n", c.MetricName(), c.metricType())
		c.writeSamples(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// NewCounter returns a counter family with a single unlabelled series.
func NewCounter(name, help string) *Counter {
	return &Counter{name: name, help: help}
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increments by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// MetricName implements Collector.
func (c *Counter) MetricName() string { return c.name }

func (c *Counter) metricHelp() string { return c.help }
func (c *Counter) metricType() string { return "counter" }
func (c *Counter) writeSamples(b *strings.Builder) {
	b.WriteString(c.name)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatUint(c.v.Load(), 10))
	b.WriteByte('\n')
}

// Gauge is an atomic instantaneous value.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// NewGauge returns a gauge family with a single unlabelled series.
func NewGauge(name, help string) *Gauge {
	return &Gauge{name: name, help: help}
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add increments by n (negative to decrement).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// MetricName implements Collector.
func (g *Gauge) MetricName() string { return g.name }

func (g *Gauge) metricHelp() string { return g.help }
func (g *Gauge) metricType() string { return "gauge" }
func (g *Gauge) writeSamples(b *strings.Builder) {
	b.WriteString(g.name)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(g.v.Load(), 10))
	b.WriteByte('\n')
}

// FuncMetric adapts a snapshot function into a collector, for values
// that live in existing structures (cache entry counts, route table
// sizes) and are only materialized at exposition time.
type FuncMetric struct {
	name, help, typ string
	fn              func() float64
}

// NewGaugeFunc returns a gauge family whose value is fn at scrape time.
func NewGaugeFunc(name, help string, fn func() float64) *FuncMetric {
	return &FuncMetric{name: name, help: help, typ: "gauge", fn: fn}
}

// NewCounterFunc returns a counter family whose value is fn at scrape
// time; fn must be monotonic.
func NewCounterFunc(name, help string, fn func() float64) *FuncMetric {
	return &FuncMetric{name: name, help: help, typ: "counter", fn: fn}
}

// MetricName implements Collector.
func (f *FuncMetric) MetricName() string { return f.name }

func (f *FuncMetric) metricHelp() string { return f.help }
func (f *FuncMetric) metricType() string { return f.typ }
func (f *FuncMetric) writeSamples(b *strings.Builder) {
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(formatFloat(f.fn()))
	b.WriteByte('\n')
}

// FuncsMetric adapts a snapshot function returning one value per index
// into a counter family with one sample per index, labelled by it —
// the per-shard view of values a FuncMetric exposes summed.
type FuncsMetric struct {
	name, help, label string
	fn                func() []uint64
}

// NewCounterFuncs returns a counter family whose sample i, labelled
// label="i", is fn()[i] at scrape time; each must be monotonic.
func NewCounterFuncs(name, help, label string, fn func() []uint64) *FuncsMetric {
	return &FuncsMetric{name: name, help: help, label: label, fn: fn}
}

// MetricName implements Collector.
func (f *FuncsMetric) MetricName() string { return f.name }

func (f *FuncsMetric) metricHelp() string { return f.help }
func (f *FuncsMetric) metricType() string { return "counter" }
func (f *FuncsMetric) writeSamples(b *strings.Builder) {
	for i, v := range f.fn() {
		fmt.Fprintf(b, "%s{%s=\"%d\"} %d\n", f.name, f.label, i, v)
	}
}

// CounterVec is a counter family partitioned by label values, e.g.
// queries by qtype or responses by rcode. Children are created on
// first use and live forever (label cardinality here is protocol
// enums, not user input).
type CounterVec struct {
	name, help string
	labels     []string
	mu         sync.RWMutex
	children   map[string]*vecChild
}

type vecChild struct {
	values []string
	v      atomic.Uint64
}

// NewCounterVec returns a labelled counter family.
func NewCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{
		name:     name,
		help:     help,
		labels:   labels,
		children: make(map[string]*vecChild),
	}
}

func vecKey(values []string) string { return strings.Join(values, "\x1f") }

func (v *CounterVec) child(values []string) *vecChild {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("telemetry: %s wants %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	key := vecKey(values)
	v.mu.RLock()
	ch := v.children[key]
	v.mu.RUnlock()
	if ch != nil {
		return ch
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if ch = v.children[key]; ch == nil {
		ch = &vecChild{values: append([]string(nil), values...)}
		v.children[key] = ch
	}
	return ch
}

// Inc adds one to the series for the given label values.
func (v *CounterVec) Inc(values ...string) { v.child(values).v.Add(1) }

// Add increments the series for the given label values by n.
func (v *CounterVec) Add(n uint64, values ...string) { v.child(values).v.Add(n) }

// Inc1 is Inc for single-label families. The variadic Inc builds a
// []string per call; on the per-packet path (queries by qtype,
// responses by rcode) that is one heap allocation per packet, so the
// serve loop uses this form, which looks the child up by the bare
// value and allocates only on first use of a new series.
func (v *CounterVec) Inc1(value string) { v.child1(value).v.Add(1) }

// child1 is child for single-label families: the map key of a
// one-element label set is the bare value (strings.Join of one
// element), so the common lookup needs no slice and no join.
func (v *CounterVec) child1(value string) *vecChild {
	v.mu.RLock()
	ch := v.children[value]
	v.mu.RUnlock()
	if ch != nil {
		return ch
	}
	return v.child([]string{value})
}

// Value returns the count for the given label values (0 if the series
// was never incremented).
func (v *CounterVec) Value(values ...string) uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if ch := v.children[vecKey(values)]; ch != nil {
		return ch.v.Load()
	}
	return 0
}

// Sum returns the total across all series.
func (v *CounterVec) Sum() uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	var total uint64
	for _, ch := range v.children {
		total += ch.v.Load()
	}
	return total
}

// Snapshot returns the current series as a map keyed by the joined
// label values (single-label vecs key by the bare value).
func (v *CounterVec) Snapshot() map[string]uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[string]uint64, len(v.children))
	for _, ch := range v.children {
		out[strings.Join(ch.values, ",")] = ch.v.Load()
	}
	return out
}

// MetricName implements Collector.
func (v *CounterVec) MetricName() string { return v.name }

func (v *CounterVec) metricHelp() string { return v.help }
func (v *CounterVec) metricType() string { return "counter" }
func (v *CounterVec) writeSamples(b *strings.Builder) {
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ch := v.children[k]
		b.WriteString(v.name)
		b.WriteByte('{')
		for i, lbl := range v.labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(lbl)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(ch.values[i]))
			b.WriteByte('"')
		}
		b.WriteString("} ")
		b.WriteString(strconv.FormatUint(ch.v.Load(), 10))
		b.WriteByte('\n')
	}
	v.mu.RUnlock()
}

// GaugeVec is a gauge family partitioned by label values, e.g.
// health targets by state. Children are created on first use and live
// forever, like CounterVec.
type GaugeVec struct {
	name, help string
	labels     []string
	mu         sync.RWMutex
	children   map[string]*gaugeChild
}

type gaugeChild struct {
	values []string
	v      atomic.Int64
}

// NewGaugeVec returns a labelled gauge family.
func NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{
		name:     name,
		help:     help,
		labels:   labels,
		children: make(map[string]*gaugeChild),
	}
}

func (v *GaugeVec) child(values []string) *gaugeChild {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("telemetry: %s wants %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	key := vecKey(values)
	v.mu.RLock()
	ch := v.children[key]
	v.mu.RUnlock()
	if ch != nil {
		return ch
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if ch = v.children[key]; ch == nil {
		ch = &gaugeChild{values: append([]string(nil), values...)}
		v.children[key] = ch
	}
	return ch
}

// Set stores n in the series for the given label values.
func (v *GaugeVec) Set(n int64, values ...string) { v.child(values).v.Store(n) }

// Add increments the series for the given label values by n (negative
// to decrement).
func (v *GaugeVec) Add(n int64, values ...string) { v.child(values).v.Add(n) }

// Value returns the gauge for the given label values (0 if the series
// was never touched).
func (v *GaugeVec) Value(values ...string) int64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if ch := v.children[vecKey(values)]; ch != nil {
		return ch.v.Load()
	}
	return 0
}

// Snapshot returns the current series as a map keyed by the joined
// label values (single-label vecs key by the bare value).
func (v *GaugeVec) Snapshot() map[string]int64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[string]int64, len(v.children))
	for _, ch := range v.children {
		out[strings.Join(ch.values, ",")] = ch.v.Load()
	}
	return out
}

// MetricName implements Collector.
func (v *GaugeVec) MetricName() string { return v.name }

func (v *GaugeVec) metricHelp() string { return v.help }
func (v *GaugeVec) metricType() string { return "gauge" }
func (v *GaugeVec) writeSamples(b *strings.Builder) {
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ch := v.children[k]
		b.WriteString(v.name)
		b.WriteByte('{')
		for i, lbl := range v.labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(lbl)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(ch.values[i]))
			b.WriteByte('"')
		}
		b.WriteString("} ")
		b.WriteString(strconv.FormatInt(ch.v.Load(), 10))
		b.WriteByte('\n')
	}
	v.mu.RUnlock()
}

// DefBuckets are the default latency histogram bounds: 100µs to 5s,
// spanning an edge cache hit (~sub-millisecond) through a WAN
// recursive resolution (~hundreds of ms) to a timed-out upstream.
var DefBuckets = []time.Duration{
	100 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond,
	time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
	time.Second, 2500 * time.Millisecond, 5 * time.Second,
}

// Histogram is a fixed-bucket latency histogram. Observations are two
// atomic adds; there is no lock and no allocation on the hot path.
// Exposition follows the Prometheus convention: cumulative buckets
// with le bounds in seconds, plus _sum and _count series.
type Histogram struct {
	name, help string
	bounds     []time.Duration
	counts     []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum        atomic.Int64    // nanoseconds
}

// NewHistogram returns a histogram with the given ascending upper
// bounds; nil bounds means DefBuckets.
func NewHistogram(name, help string, bounds ...time.Duration) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	return &Histogram{
		name:   name,
		help:   help,
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	i := 0
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Quantile returns the upper bound of the bucket the q-quantile
// (0 < q ≤ 1) observation fell in — an upper estimate as coarse as the
// buckets are. It is 0 with no observations and the last finite bound
// when the quantile lies in the +Inf bucket.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, bound := range h.bounds {
		if cum += h.counts[i].Load(); cum >= rank {
			return bound
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// MetricName implements Collector.
func (h *Histogram) MetricName() string { return h.name }

func (h *Histogram) metricHelp() string { return h.help }
func (h *Histogram) metricType() string { return "histogram" }
func (h *Histogram) writeSamples(b *strings.Builder) {
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{le=\"%s\"} %d\n", h.name, formatFloat(bound.Seconds()), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum)
	fmt.Fprintf(b, "%s_sum %s\n", h.name, formatFloat(h.Sum().Seconds()))
	fmt.Fprintf(b, "%s_count %d\n", h.name, cum)
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
