package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func sampleOf(values ...time.Duration) *Sample {
	s := New()
	for _, v := range values {
		s.Add(v)
	}
	return s
}

func TestBasicStats(t *testing.T) {
	s := sampleOf(10*time.Millisecond, 20*time.Millisecond, 30*time.Millisecond)
	if s.Len() != 3 {
		t.Errorf("len = %d", s.Len())
	}
	if s.Mean() != 20*time.Millisecond {
		t.Errorf("mean = %v", s.Mean())
	}
	if s.Min() != 10*time.Millisecond || s.Max() != 30*time.Millisecond {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestEmptySample(t *testing.T) {
	s := New()
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Percentile(50) != 0 ||
		s.TrimmedMean(8, 92) != 0 {
		t.Error("empty sample should be all zeros")
	}
	bar := s.PaperBar()
	if bar.N != 0 {
		t.Errorf("bar = %+v", bar)
	}
}

func TestPercentiles(t *testing.T) {
	s := New()
	for i := 1; i <= 100; i++ {
		s.Add(time.Duration(i) * time.Millisecond)
	}
	if got := s.Percentile(0); got != time.Millisecond {
		t.Errorf("p0 = %v", got)
	}
	if got := s.Percentile(100); got != 100*time.Millisecond {
		t.Errorf("p100 = %v", got)
	}
	p50 := s.Percentile(50)
	if p50 < 50*time.Millisecond || p50 > 51*time.Millisecond {
		t.Errorf("p50 = %v", p50)
	}
	if s.Percentile(8) >= s.Percentile(92) {
		t.Error("p8 >= p92")
	}
}

func TestTrimmedMeanDropsTails(t *testing.T) {
	s := New()
	for i := 0; i < 20; i++ {
		s.Add(10 * time.Millisecond)
	}
	s.Add(10 * time.Second) // wild outlier
	trimmed := s.TrimmedMean(8, 92)
	if trimmed != 10*time.Millisecond {
		t.Errorf("trimmed mean = %v, want 10ms", trimmed)
	}
	if s.Mean() <= trimmed {
		t.Error("untrimmed mean should exceed trimmed")
	}
	bar := s.PaperBar()
	if bar.Max != 10*time.Second || bar.Mean != 10*time.Millisecond {
		t.Errorf("bar = %+v", bar)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint32, aSeed int64) bool {
		if len(raw) == 0 {
			return true
		}
		s := New()
		for _, v := range raw {
			s.Add(time.Duration(v))
		}
		rng := rand.New(rand.NewSource(aSeed))
		p1, p2 := rng.Float64()*100, rng.Float64()*100
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return s.Percentile(p1) <= s.Percentile(p2) &&
			s.Percentile(0) == s.Min() && s.Percentile(100) == s.Max() &&
			s.Min() <= s.TrimmedMean(8, 92) && s.TrimmedMean(8, 92) <= s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBarString(t *testing.T) {
	bar := sampleOf(5*time.Millisecond, 15*time.Millisecond).PaperBar()
	if got := bar.String(); got == "" {
		t.Error("empty bar string")
	}
	if Ms(1500*time.Microsecond) != 1.5 {
		t.Error("Ms conversion")
	}
}

func TestDistribution(t *testing.T) {
	d := NewDistribution()
	if d.Total() != 0 || d.Share("x") != 0 {
		t.Error("empty distribution")
	}
	for i := 0; i < 7; i++ {
		d.Add("akamai")
	}
	for i := 0; i < 3; i++ {
		d.Add("fastly")
	}
	if d.Total() != 10 {
		t.Errorf("total = %d", d.Total())
	}
	if d.Share("akamai") != 0.7 || d.Share("fastly") != 0.3 {
		t.Errorf("shares = %v/%v", d.Share("akamai"), d.Share("fastly"))
	}
}

func TestValuesCopy(t *testing.T) {
	s := sampleOf(time.Millisecond)
	v := s.Values()
	v[0] = time.Hour
	if s.Min() != time.Millisecond {
		t.Error("Values leaked internal slice")
	}
}

func TestPercentileNaNAndEmptyGuards(t *testing.T) {
	empty := New()
	for _, p := range []float64{math.NaN(), math.Inf(-1), -5, 0, 50, 100, 200, math.Inf(1)} {
		if got := empty.Percentile(p); got != 0 {
			t.Errorf("empty.Percentile(%v) = %v, want 0", p, got)
		}
	}
	s := sampleOf(time.Millisecond, 2*time.Millisecond, 3*time.Millisecond)
	if got := s.Percentile(math.NaN()); got != 0 {
		t.Errorf("Percentile(NaN) = %v, want 0", got)
	}
	if got := s.Percentile(math.Inf(-1)); got != time.Millisecond {
		t.Errorf("Percentile(-Inf) = %v, want clamp to min", got)
	}
	if got := s.Percentile(math.Inf(1)); got != 3*time.Millisecond {
		t.Errorf("Percentile(+Inf) = %v, want clamp to max", got)
	}
	if got := s.TrimmedMean(math.NaN(), math.NaN()); got != 2*time.Millisecond {
		t.Errorf("TrimmedMean(NaN, NaN) = %v, want fallback mean", got)
	}
}

func TestAddAfterValuesIsIndependent(t *testing.T) {
	s := sampleOf(3*time.Millisecond, time.Millisecond, 2*time.Millisecond)
	v := s.Values()
	// Growing and re-sorting the sample must not disturb the copy.
	s.Add(10 * time.Millisecond)
	s.Add(500 * time.Microsecond)
	_ = s.Percentile(50)
	want := []time.Duration{3 * time.Millisecond, time.Millisecond, 2 * time.Millisecond}
	for i, d := range want {
		if v[i] != d {
			t.Fatalf("Values copy mutated at %d: got %v, want %v", i, v[i], d)
		}
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5", s.Len())
	}
	if s.Min() != 500*time.Microsecond || s.Max() != 10*time.Millisecond {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
}
