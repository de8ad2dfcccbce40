// Package stats provides the summary statistics the paper's figures
// use: means, percentiles, the 8th–92nd percentile trimming of
// Figure 2's bars, and min/max whiskers.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Sample is a collection of latency observations.
type Sample struct {
	values []time.Duration
	sorted bool
}

// New returns an empty sample.
func New() *Sample { return &Sample{} }

// Add appends an observation.
func (s *Sample) Add(d time.Duration) {
	s.values = append(s.values, d)
	s.sorted = false
}

// Len returns the number of observations.
func (s *Sample) Len() int { return len(s.values) }

// Values returns a copy of the observations. Insertion order is not
// guaranteed once percentile methods have been called (they sort in
// place). The copy is independent of the sample: callers may keep it
// across later Add calls, and Add never mutates a returned slice.
func (s *Sample) Values() []time.Duration {
	return append([]time.Duration(nil), s.values...)
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Slice(s.values, func(i, j int) bool { return s.values[i] < s.values[j] })
		s.sorted = true
	}
}

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() time.Duration {
	if len(s.values) == 0 {
		return 0
	}
	var total time.Duration
	for _, v := range s.values {
		total += v
	}
	return total / time.Duration(len(s.values))
}

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() time.Duration {
	if len(s.values) == 0 {
		return 0
	}
	s.sort()
	return s.values[0]
}

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() time.Duration {
	if len(s.values) == 0 {
		return 0
	}
	s.sort()
	return s.values[len(s.values)-1]
}

// Percentile returns the p-th percentile (0–100) by nearest-rank with
// linear interpolation between adjacent observations. An empty sample
// or a NaN p yields 0; p outside [0, 100] clamps to the extremes.
func (s *Sample) Percentile(p float64) time.Duration {
	if len(s.values) == 0 || math.IsNaN(p) {
		return 0
	}
	s.sort()
	if p <= 0 {
		return s.values[0]
	}
	if p >= 100 {
		return s.values[len(s.values)-1]
	}
	rank := p / 100 * float64(len(s.values)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.values[lo]
	}
	frac := rank - float64(lo)
	return s.values[lo] + time.Duration(frac*float64(s.values[hi]-s.values[lo]))
}

// Stddev returns the population standard deviation.
func (s *Sample) Stddev() time.Duration {
	if len(s.values) < 2 {
		return 0
	}
	mean := float64(s.Mean())
	var sum float64
	for _, v := range s.values {
		d := float64(v) - mean
		sum += d * d
	}
	return time.Duration(math.Sqrt(sum / float64(len(s.values))))
}

// TrimmedMean returns the mean of observations between the lo-th and
// hi-th percentiles inclusive — Figure 2 averages the 8th to 92nd
// percentile of at least 12 runs.
func (s *Sample) TrimmedMean(lo, hi float64) time.Duration {
	if len(s.values) == 0 {
		return 0
	}
	s.sort()
	loV, hiV := s.Percentile(lo), s.Percentile(hi)
	var total time.Duration
	n := 0
	for _, v := range s.values {
		if v >= loV && v <= hiV {
			total += v
			n++
		}
	}
	if n == 0 {
		return s.Mean()
	}
	return total / time.Duration(n)
}

// Bar summarizes a sample the way the paper's bar charts do.
type Bar struct {
	// Mean is the 8th–92nd percentile trimmed mean (the bar height).
	Mean time.Duration
	// Min and Max are the whiskers.
	Min, Max time.Duration
	// N is the number of observations.
	N int
}

// PaperBar computes the Figure 2 methodology bar: trimmed mean with
// min/max whiskers.
func (s *Sample) PaperBar() Bar {
	return Bar{
		Mean: s.TrimmedMean(8, 92),
		Min:  s.Min(),
		Max:  s.Max(),
		N:    s.Len(),
	}
}

// String renders the bar in milliseconds.
func (b Bar) String() string {
	return fmt.Sprintf("%7.2fms  [min %7.2fms, max %7.2fms]  n=%d",
		ms(b.Mean), ms(b.Min), ms(b.Max), b.N)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Ms converts a duration to float milliseconds for reporting.
func Ms(d time.Duration) float64 { return ms(d) }

// Distribution counts categorical outcomes (Figure 3's response
// distribution across cache-server CIDR pools).
type Distribution struct {
	counts map[string]int
	total  int
}

// NewDistribution returns an empty distribution.
func NewDistribution() *Distribution {
	return &Distribution{counts: make(map[string]int)}
}

// Add records one outcome.
func (d *Distribution) Add(category string) {
	d.counts[category]++
	d.total++
}

// Total returns the number of recorded outcomes.
func (d *Distribution) Total() int { return d.total }

// Share returns the fraction of outcomes in category.
func (d *Distribution) Share(category string) float64 {
	if d.total == 0 {
		return 0
	}
	return float64(d.counts[category]) / float64(d.total)
}

// Categories returns all categories, sorted by descending share then
// name.
func (d *Distribution) Categories() []string {
	cats := make([]string, 0, len(d.counts))
	for c := range d.counts {
		cats = append(cats, c)
	}
	sort.Slice(cats, func(i, j int) bool {
		if d.counts[cats[i]] != d.counts[cats[j]] {
			return d.counts[cats[i]] > d.counts[cats[j]]
		}
		return cats[i] < cats[j]
	})
	return cats
}
