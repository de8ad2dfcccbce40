// Package telemetry is the runtime observability substrate of the
// MEC-CDN stack: a lock-cheap metrics registry with Prometheus text
// exposition, per-query spans propagated through context.Context that
// decompose one resolution into its hops (the live counterpart of the
// paper's Fig 5 wireless-vs-resolver breakdown), and a bounded,
// head-sampled structured query log in the spirit of dnstap.
//
// Everything here is stdlib-only. Hot-path instruments (Counter,
// Family, Histogram) are single atomic operations; exposition and log
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

// cellPad is the size of one Family cell: two typical cache lines, so
// two cells' counts are never on one line and the adjacent-line
// prefetcher on x86 does not pair them either.
const cellPad = 128

// cell is one padded series of a Family.
type cell struct {
	v atomic.Uint64
	_ [cellPad - 8]byte
}

// Family is a counter or gauge family whose label values are fixed when
// it is built: cell i holds the series labelled values[i], so an
// increment is one atomic add on a cache line of its own — no lock, no
// map, and no series a caller can mint. Call sites name their values
// once as index constants.
//
// A counter family exposes only the values it has counted and a gauge
// family every value, both sorted by value. An unlabelled family
// (NewCounterCells) exposes the sum of its cells: one logical counter
// that several workers increment, each in its own cell.
type Family struct {
	name, help, typ string
	label           string   // "" for an unlabelled family
	values          []string // values[i] labels cells[i]
	order           []int    // cell indices sorted by value
	cells           []cell
}

func newFamily(typ, name, help, label string, values []string) *Family {
	order := make([]int, len(values))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return values[order[a]] < values[order[b]] })
	return &Family{name: name, help: help, typ: typ, label: label,
		values: values, order: order, cells: make([]cell, len(values))}
}

// NewCounters returns a counter family with one series per label value.
func NewCounters(name, help, label string, values ...string) *Family {
	return newFamily("counter", name, help, label, values)
}

// NewGauges returns a gauge family with one series per label value.
func NewGauges(name, help, label string, values ...string) *Family {
	return newFamily("gauge", name, help, label, values)
}

// NewCounterCells returns an unlabelled counter family of n cells (at
// least one) whose one series is their sum.
func NewCounterCells(name, help string, n int) *Family {
	return newFamily("counter", name, help, "", make([]string, max(n, 1)))
}

// Inc adds one to cell i.
func (f *Family) Inc(i int) { f.cells[i].v.Add(1) }

// Add adds n to cell i.
func (f *Family) Add(i int, n uint64) { f.cells[i].v.Add(n) }

// Dec subtracts one from cell i of a gauge family.
func (f *Family) Dec(i int) { f.cells[i].v.Add(^uint64(0)) }

// Values returns every cell, in index order. Each is one atomic load,
// so the set is exact once the writers have quiesced.
func (f *Family) Values() []uint64 {
	vals := make([]uint64, len(f.cells))
	for i := range f.cells {
		vals[i] = f.cells[i].v.Load()
	}
	return vals
}

// Sum returns the total across all cells.
func (f *Family) Sum() uint64 {
	var total uint64
	for i := range f.cells {
		total += f.cells[i].v.Load()
	}
	return total
}

// MetricName implements Collector.
func (f *Family) MetricName() string { return f.name }

func (f *Family) metricHelp() string { return f.help }
func (f *Family) metricType() string { return f.typ }
func (f *Family) writeSamples(b *strings.Builder) {
	if f.label == "" {
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(strconv.FormatUint(f.Sum(), 10))
		b.WriteByte('\n')
		return
	}
	for _, i := range f.order {
		v := f.cells[i].v.Load()
		if v == 0 && f.typ == "counter" {
			continue
		}
		b.WriteString(f.name)
		b.WriteByte('{')
		b.WriteString(f.label)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(f.values[i]))
		b.WriteString(`"} `)
		if f.typ == "gauge" {
			b.WriteString(strconv.FormatInt(int64(v), 10))
		} else {
			b.WriteString(strconv.FormatUint(v, 10))
		}
		b.WriteByte('\n')
	}
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
