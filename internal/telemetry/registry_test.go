package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestPrometheusExpositionGolden pins the exact text exposition: HELP
// and TYPE lines, sorted families, labelled series, and the cumulative
// histogram with le bounds in seconds.
func TestPrometheusExpositionGolden(t *testing.T) {
	reg := NewRegistry()

	c := NewCounter("test_requests_total", "Requests handled.")
	c.Add(3)

	g := NewGauge("test_inflight", "In-flight requests.")
	g.Set(2)

	f := NewGaugeFunc("test_entries", "Entries right now.", func() float64 { return 7 })

	v := NewCounterVec("test_responses_total", "Responses by rcode.", "rcode")
	v.Inc("NOERROR")
	v.Inc("NOERROR")
	v.Inc("SERVFAIL")

	h := NewHistogram("test_latency_seconds", "Latency.", 10*time.Millisecond, 100*time.Millisecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(50 * time.Millisecond)
	h.Observe(time.Second)

	reg.MustRegister(c, g, f, v, h)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_entries Entries right now.
# TYPE test_entries gauge
test_entries 7
# HELP test_inflight In-flight requests.
# TYPE test_inflight gauge
test_inflight 2
# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.01"} 1
test_latency_seconds_bucket{le="0.1"} 2
test_latency_seconds_bucket{le="+Inf"} 3
test_latency_seconds_sum 1.055
test_latency_seconds_count 3
# HELP test_requests_total Requests handled.
# TYPE test_requests_total counter
test_requests_total 3
# HELP test_responses_total Responses by rcode.
# TYPE test_responses_total counter
test_responses_total{rcode="NOERROR"} 2
test_responses_total{rcode="SERVFAIL"} 1
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register(NewCounter("dup_total", "a")); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(NewCounter("dup_total", "b")); err == nil {
		t.Error("duplicate family name accepted")
	}
}

func TestEscaping(t *testing.T) {
	reg := NewRegistry()
	v := NewCounterVec("esc_total", "line one\nline two", "who")
	v.Inc(`quo"te\slash`)
	reg.MustRegister(v)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `line one\nline two`) {
		t.Errorf("help not escaped: %q", out)
	}
	if !strings.Contains(out, `who="quo\"te\\slash"`) {
		t.Errorf("label not escaped: %q", out)
	}
}

func TestCounterVecValueSumSnapshot(t *testing.T) {
	v := NewCounterVec("vec_total", "h", "a")
	v.Add(5, "x")
	v.Inc("y")
	if v.Value("x") != 5 || v.Value("y") != 1 || v.Value("z") != 0 {
		t.Errorf("values = %d/%d/%d", v.Value("x"), v.Value("y"), v.Value("z"))
	}
	if v.Sum() != 6 {
		t.Errorf("sum = %d", v.Sum())
	}
	snap := v.Snapshot()
	if snap["x"] != 5 || snap["y"] != 1 || len(snap) != 2 {
		t.Errorf("snapshot = %v", snap)
	}
}

func TestGaugeVecSetAddSnapshot(t *testing.T) {
	v := NewGaugeVec("gvec", "h", "state")
	v.Set(3, "healthy")
	v.Add(2, "healthy")
	v.Add(1, "down")
	v.Add(-1, "down")
	if v.Value("healthy") != 5 || v.Value("down") != 0 || v.Value("never") != 0 {
		t.Errorf("values = %d/%d/%d", v.Value("healthy"), v.Value("down"), v.Value("never"))
	}
	snap := v.Snapshot()
	if snap["healthy"] != 5 || snap["down"] != 0 || len(snap) != 2 {
		t.Errorf("snapshot = %v", snap)
	}
	reg := NewRegistry()
	reg.MustRegister(v)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE gvec gauge",
		`gvec{state="healthy"} 5`,
		`gvec{state="down"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram("hb_seconds", "h") // DefBuckets
	h.Observe(50 * time.Microsecond)     // first bucket
	h.Observe(10 * time.Second)          // +Inf
	if h.Count() != 2 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Sum() != 10*time.Second+50*time.Microsecond {
		t.Errorf("sum = %v", h.Sum())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram("hq_seconds", "h") // DefBuckets
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	for i := 0; i < 90; i++ {
		h.Observe(80 * time.Microsecond) // ≤ 100µs
	}
	for i := 0; i < 9; i++ {
		h.Observe(2 * time.Millisecond) // ≤ 2.5ms
	}
	h.Observe(time.Minute) // +Inf
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 100 * time.Microsecond},
		{0.90, 100 * time.Microsecond},
		{0.91, 2500 * time.Microsecond},
		{0.99, 2500 * time.Microsecond},
		{1.00, 5 * time.Second}, // +Inf reads as the last finite bound
	} {
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

// TestRegistryConcurrent hammers every instrument type from parallel
// goroutines while the exposition path scrapes; run with -race.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := NewCounter("conc_total", "h")
	g := NewGauge("conc_gauge", "h")
	v := NewCounterVec("conc_vec_total", "h", "l")
	h := NewHistogram("conc_seconds", "h")
	reg.MustRegister(c, g, v, h)

	const workers, iters = 8, 500
	var wg sync.WaitGroup
	labels := []string{"a", "b", "c"}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				v.Inc(labels[i%len(labels)])
				h.Observe(time.Duration(i) * time.Microsecond)
				if i%100 == 0 {
					var b strings.Builder
					_ = reg.WritePrometheus(&b)
				}
			}
		}(w)
	}
	wg.Wait()

	if c.Value() != workers*iters {
		t.Errorf("counter = %d, want %d", c.Value(), workers*iters)
	}
	if v.Sum() != workers*iters {
		t.Errorf("vec sum = %d, want %d", v.Sum(), workers*iters)
	}
	if h.Count() != workers*iters {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*iters)
	}
}
