package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/meccdn/meccdn/internal/dnsserver"
	"github.com/meccdn/meccdn/internal/telemetry"
)

// metricDef names one metric the benchmark prints; BENCHMARK.json
// lists the same names, units and directions (a test compares them).
type metricDef struct {
	name, unit, better string
	// bound is the share of the median by which an end-to-end metric
	// may worsen before it is a regression, abs an allowance on top of
	// it in the metric's own unit; both 0 for per-layer metrics.
	bound, abs float64
}

// contract reports whether the metric is listed in BENCHMARK.json.
// fail_ratio is not: it is 0 at this commit, and the contract wants
// metrics that never are (a bound that is a share of 0 means nothing).
// There failed/attempted carries it, and client.fail_ratio in the
// per-layer list.
func (m metricDef) contract() bool { return m.name != "fail_ratio" }

// endToEnd is what a user of the site sees.
var endToEnd = []metricDef{
	{"qps", "1/s", "higher", 0.25, 0},
	{"rtt_p50_us", "us", "lower", 0.25, 0},
	{"rtt_p90_us", "us", "lower", 0.25, 0},
	{"cpu_us_per_query", "us", "lower", 0.25, 0},
	{"allocs_per_query", "count", "lower", 0.02, 0},
	{"fail_ratio", "ratio", "lower", 0, 0.001},
	{"setup_s", "s", "lower", 0.25, 0},
}

var perLayer = []metricDef{
	{"dnswire.unpack_ns", "ns/query", "lower", 0, 0},
	{"dnswire.pack_ns", "ns/query", "lower", 0, 0},
	{"dnswire.wire_write_ratio", "ratio", "higher", 0, 0},
	{"dnsserver.metrics_ns", "ns/query", "lower", 0, 0},
	{"dnsserver.cache_ns", "ns/query", "lower", 0, 0},
	{"dnsserver.zone_ns", "ns/query", "lower", 0, 0},
	{"dnsserver.cache.hit_ratio", "ratio", "higher", 0, 0},
	{"dnsserver.cache.evictions_per_kq", "count", "lower", 0, 0},
	{"dnsserver.cache.coalesced_per_kq", "count", "higher", 0, 0},
	{"dnsserver.cache.entries", "count", "higher", 0, 0},
	{"dnsserver.stub_us", "us/query", "lower", 0, 0},
	{"dnsserver.forward_us", "us/query", "lower", 0, 0},
	{"dnsserver.forward.upstream_per_kq", "count", "lower", 0, 0},
	{"dnsclient.exchange_us", "us", "lower", 0, 0},
	{"cdn.router_ns", "ns/query", "lower", 0, 0},
	{"cdn.router_samples", "count", "higher", 0, 0},
	{"cdn.route_ns", "ns/call", "lower", 0, 0},
	{"cdn.ring_owners_ns", "ns/call", "lower", 0, 0},
	{"cdn.routed.subnet_ratio", "ratio", "higher", 0, 0},
	{"cdn.routed.ring_ratio", "ratio", "lower", 0, 0},
	{"cdn.routed.peer_ratio", "ratio", "lower", 0, 0},
	{"lpm.lookup_ns", "ns/call", "lower", 0, 0},
	{"mesh.view_lookup_ns", "ns/call", "lower", 0, 0},
	{"telemetry.span_ns", "ns/query", "lower", 0, 0},
	{"telemetry.allocs_per_query", "count", "lower", 0, 0},
	{"inproc.ns_per_query", "ns/query", "lower", 0, 0},
	{"inproc.allocs_per_query", "count", "lower", 0, 0},
	{"dnsserver.io.residual_us", "us", "lower", 0, 0},
	{"dnsserver.io.pkts_per_batch", "ratio", "higher", 0, 0},
	{"dnsserver.io.dropped", "count", "lower", 0, 0},
	{"dnsserver.io.bare_us_per_query", "us", "lower", 0, 0},
	{"dnsserver.io.burst64_drop_ratio", "ratio", "lower", 0, 0},
	{"dnsserver.io.burst64_pkts_per_batch", "ratio", "higher", 0, 0},
	{"dnsserver.io.burst64_round_us_p50", "us", "lower", 0, 0},
	{"client.rtt_p99_us", "us", "lower", 0, 0},
	{"client.rtt_p999_us", "us", "lower", 0, 0},
	{"client.rtt_max_us", "us", "lower", 0, 0},
	{"client.timeouts", "count", "lower", 0, 0},
	{"client.fail_ratio", "ratio", "lower", 0, 0},
	{"client.slice_qps_cv", "ratio", "lower", 0, 0},
	{"runtime.alloc_bytes_per_query", "B", "lower", 0, 0},
	{"runtime.gc_cycles", "count", "lower", 0, 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0, 0},
	{"runtime.heap_mb", "MB", "lower", 0, 0},
	{"trace.overhead_ratio", "ratio", "lower", 0, 0},
	{"trace.unattributed_ratio", "ratio", "lower", 0, 0},
}

// percentile is the nearest-rank percentile of an ascending sample:
// the smallest value with at least p percent of the sample at or below
// it. An empty sample gives 0.
func percentile(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return float64(sorted[rank-1])
}

// median of xs; the mean of the middle two for an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// meanStddev returns the mean and the population standard deviation.
func meanStddev(xs []float64) (mean, sd float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		sd += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(sd / float64(len(xs)))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// scrape reads every sample of a registry's Prometheus exposition,
// keyed by the series as written, labels included.
func scrape(reg *telemetry.Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scraping %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// snapshot is every count read at a phase boundary; metrics are
// deltas between two of them.
type snapshot struct {
	mem              runtime.MemStats
	cache            dnsserver.CacheStats
	packets, batches uint64
	dropped          uint64
	upstream         uint64
	router           map[string]float64
}

func takeSnapshot(s *site) (snapshot, error) {
	var sn snapshot
	var err error
	runtime.ReadMemStats(&sn.mem)
	sn.cache = s.cache.Stats()
	sn.packets, sn.batches = s.ldns.BatchStats()
	sn.dropped = s.ldns.DroppedPackets()
	sn.upstream = s.fwd.Stats().Queries
	sn.router, err = scrape(s.cdnsHub.Registry)
	return sn, err
}

// sliceStats summarises the per-second answered counts.
type sliceStats struct {
	min, median, mean, stddev float64
}

func summarise(xs []float64) sliceStats {
	mean, sd := meanStddev(xs)
	return sliceStats{min: slices.Min(xs), median: median(xs), mean: mean, stddev: sd}
}

// perSlice is each one-second slice's own figures. Every timed
// end-to-end metric is the median of one of these columns: the host
// slows for seconds at a time, and a median over slices ignores the
// slow ones where a figure pooled over the phase would average them
// in.
type perSlice struct {
	qps, p50us, p90us, cpuUs []float64
}

// slicesOf differences the marks into per-slice figures; cpu0 is the
// CPU time when the first slice began. It sorts each slice's segment
// of rtts in place.
func slicesOf(t *tally, cpu0 time.Duration) perSlice {
	var ps perSlice
	prev := mark{cpu: cpu0}
	for _, m := range t.marks {
		answered := float64(m.answered - prev.answered)
		seg := t.rtts[prev.rtts:m.rtts]
		slices.Sort(seg)
		ps.qps = append(ps.qps, answered)
		ps.p50us = append(ps.p50us, percentile(seg, 50)/1e3)
		ps.p90us = append(ps.p90us, percentile(seg, 90)/1e3)
		ps.cpuUs = append(ps.cpuUs, ratio(float64(m.cpu-prev.cpu)/1e3, answered))
		prev = m
	}
	return ps
}

// result is one workload's run.
type result struct {
	workload string
	seed     int64
	seconds  int

	tally    tally
	perSlice perSlice
	slices   sliceStats // of perSlice.qps
	setups   []float64  // seconds, one per set-up performed

	e2e    map[string]float64
	layers map[string]float64 // nil unless the traced run was made
}

func (r *result) failed() uint64 { return r.tally.timeouts + r.tally.wrong }

// setUp is what setup_s times: assembling the site, generating the
// stream from the seed, and warming the caches through the sockets.
func setUp(w workload, seed int64) (*site, *client, error) {
	s, err := newSite()
	if err != nil {
		return nil, nil, err
	}
	c, err := newClient(w.gen(seed), s, s.ldns.LocalAddr())
	if err != nil {
		s.close()
		return nil, nil, err
	}
	if err := c.warmup(); err != nil {
		c.close()
		s.close()
		return nil, nil, err
	}
	// A warm-up query that timed out only leaves its name uncached; a
	// wrong answer means the site is not the one the oracle describes.
	if c.wrong > 0 {
		c.close()
		s.close()
		return nil, nil, fmt.Errorf("warm-up: %d wrong answers (first: %s)", c.wrong, c.firstBad)
	}
	return s, c, nil
}

// runWorkload sets the site up setups times (the last one is kept and
// measured), runs the timed phase with tracing off, and, when traced
// is set, follows it with the traced run for the per-layer metrics.
func runWorkload(w workload, seed int64, seconds, setups int, traced bool, outDir string) (*result, error) {
	res := &result{workload: w.name, seed: seed, seconds: seconds}
	var s *site
	var c *client
	for i := 0; i < setups; i++ {
		if s != nil {
			c.close()
			s.close()
		}
		// Each set-up starts from a collected heap, so none pays for
		// the garbage of the one before.
		runtime.GC()
		begin := time.Now()
		var err error
		if s, c, err = setUp(w, seed); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		res.setups = append(res.setups, time.Since(begin).Seconds())
	}
	defer s.close()
	defer c.close()

	c.prepare(seconds)
	runtime.GC()
	before, err := takeSnapshot(s)
	if err != nil {
		return nil, err
	}
	cpu0, err := c.measure()
	if err != nil {
		return nil, fmt.Errorf("%s: measured phase: %w", w.name, err)
	}
	after, err := takeSnapshot(s)
	if err != nil {
		return nil, err
	}

	res.tally = c.tally
	ps := slicesOf(&c.tally, cpu0)
	res.perSlice = ps
	res.slices = summarise(ps.qps)
	answered := float64(c.answered)
	res.e2e = map[string]float64{
		"qps":              res.slices.median,
		"rtt_p50_us":       median(ps.p50us),
		"rtt_p90_us":       median(ps.p90us),
		"cpu_us_per_query": median(ps.cpuUs),
		"allocs_per_query": ratio(float64(after.mem.Mallocs-before.mem.Mallocs), answered),
		"fail_ratio":       ratio(float64(res.failed()), float64(c.sent)),
		"setup_s":          median(res.setups),
	}
	if !traced {
		return res, nil
	}

	// The tail percentiles need every sample of the phase in one sorted
	// run; they are diagnostics, so pooling the slow slices in is right.
	rtts := c.rtts
	slices.Sort(rtts)
	res.layers = map[string]float64{
		"client.rtt_p99_us":    percentile(rtts, 99) / 1e3,
		"client.rtt_p999_us":   percentile(rtts, 99.9) / 1e3,
		"client.rtt_max_us":    percentile(rtts, 100) / 1e3,
		"client.timeouts":      float64(c.timeouts),
		"client.fail_ratio":    res.e2e["fail_ratio"],
		"client.slice_qps_cv":  ratio(res.slices.stddev, res.slices.mean),
		"dnsserver.io.dropped": float64(after.dropped - before.dropped),
		"dnsserver.io.pkts_per_batch": ratio(float64(after.packets-before.packets),
			float64(after.batches-before.batches)),
		"runtime.alloc_bytes_per_query": ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc), answered),
		"runtime.gc_cycles":             float64(after.mem.NumGC - before.mem.NumGC),
		"runtime.gc_pause_ms":           float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6,
		"runtime.heap_mb":               float64(after.mem.HeapAlloc) / 1e6,
	}
	cacheCounts(res.layers, before, after, answered)
	routedCounts(res.layers, before.router, after.router)
	if err := tracedRun(res, s, c.st, outDir); err != nil {
		return nil, fmt.Errorf("%s: traced run: %w", w.name, err)
	}
	for _, m := range perLayer {
		if _, ok := res.layers[m.name]; !ok {
			return nil, fmt.Errorf("%s: per-layer metric %s was not measured", w.name, m.name)
		}
	}
	return res, nil
}

func cacheCounts(out map[string]float64, before, after snapshot, answered float64) {
	b, a := before.cache, after.cache
	hits := float64(a.Hits - b.Hits)
	lookups := hits + float64(a.Misses-b.Misses) + float64(a.Expired-b.Expired)
	out["dnsserver.cache.hit_ratio"] = ratio(hits, lookups)
	out["dnsserver.cache.evictions_per_kq"] = ratio(1000*float64(a.Evictions-b.Evictions), answered)
	out["dnsserver.cache.coalesced_per_kq"] = ratio(1000*float64(a.Coalesced-b.Coalesced), answered)
	out["dnsserver.cache.entries"] = float64(a.Entries)
	out["dnsserver.forward.upstream_per_kq"] = ratio(1000*float64(after.upstream-before.upstream), answered)
}

// routedCounts splits the C-DNS routing decisions of the phase into
// those the subnet table answered, those that fell through to ring
// and policy, and those the mesh steered to a peer.
func routedCounts(out map[string]float64, before, after map[string]float64) {
	delta := func(series string) float64 { return after[series] - before[series] }
	var total float64
	for series := range after {
		if strings.HasPrefix(series, "meccdn_cdn_routed_total{") {
			total += delta(series)
		}
	}
	subnet := delta(`meccdn_route_lookups_total{result="hit"}`)
	out["cdn.routed.subnet_ratio"] = ratio(subnet, total)
	out["cdn.routed.ring_ratio"] = ratio(delta(`meccdn_cdn_routed_total{result="selected"}`)-subnet, total)
	out["cdn.routed.peer_ratio"] = ratio(delta(`meccdn_cdn_routed_total{result="peer"}`), total)
}
