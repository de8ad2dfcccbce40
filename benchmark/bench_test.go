package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/netip"
	"os"
	"reflect"
	"slices"
	"testing"

	"github.com/meccdn/meccdn/internal/dnswire"
)

func TestStreamsFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, other := w.gen(1), w.gen(1), w.gen(2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 generated two different streams", w.name)
		}
		if bytes.Equal(a.buf, other.buf) && slices.Equal(a.seq, other.seq) {
			t.Errorf("%s: seeds 1 and 2 generated the same stream", w.name)
		}
		if a.length() <= a.warm {
			t.Errorf("%s: stream of %d positions is all warm-up (%d)", w.name, a.length(), a.warm)
		}
	}
}

func TestAppendQueryMatchesPack(t *testing.T) {
	subnet := [4]byte{10, 200, 3, 0}
	for _, tc := range []struct {
		name string
		edns bool
		ecs  *[4]byte
	}{
		{"svc-17.mec.test.", false, nil},
		{"host-4999.example.test.", true, nil},
		{"obj-1-0000042.cdn.test.", true, &subnet},
	} {
		m := new(dnswire.Message)
		m.SetQuestion(tc.name, dnswire.TypeA)
		if tc.edns {
			opt := m.SetEDNS(ednsPayload)
			if tc.ecs != nil {
				opt.Options = append(opt.Options, dnswire.NewECSOption(netip.PrefixFrom(netip.AddrFrom4(*tc.ecs), 24)))
			}
		}
		want, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if got := appendQuery(nil, []byte(tc.name), tc.edns, tc.ecs); !bytes.Equal(got, want) {
			t.Errorf("%s: appendQuery = %x, Pack = %x", tc.name, got, want)
		}
	}
}

// TestRouteRule holds the arithmetic oracle against the table it
// stands in for.
func TestRouteRule(t *testing.T) {
	table, err := buildRoutes()
	if err != nil {
		t.Fatal(err)
	}
	if table.Rows() != routes16+routes24 {
		t.Fatalf("table has %d rows, want %d", table.Rows(), routes16+routes24)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20_000; i++ {
		n := uint32(rng.Intn(1 << subnetBits))
		pop, bits, ok := table.Lookup(netip.AddrFrom4(subnetAddr(n)))
		addr, scope := routeAnswer(n)
		if !ok || popAddr(pop) != addr || bits != int(scope) {
			t.Fatalf("subnet %d: table says PoP %d /%d (%v), oracle says %v /%d", n, pop, bits, ok, addr, scope)
		}
	}
	if _, _, ok := table.Lookup(netip.MustParseAddr("198.18.7.0")); ok {
		t.Error("198.18.7.0 is routed; the ring share must miss the table")
	}
}

func TestPercentileAndMedian(t *testing.T) {
	sample := []uint32{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 100}, {100, 100}, {1, 10}, {0, 10}} {
		if got := percentile(sample, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("median of three = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 9, 2}); got != 3 {
		t.Errorf("median of four = %v, want 3", got)
	}
	if mean, sd := meanStddev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); mean != 5 || sd != 2 {
		t.Errorf("meanStddev = %v, %v, want 5, 2", mean, sd)
	}
}

func TestSlicesOf(t *testing.T) {
	tl := &tally{
		rtts: []uint32{3000, 1000, 2000, 9000, 7000},
		marks: []mark{
			{answered: 3, rtts: 3, cpu: 130_000},
			{answered: 5, rtts: 5, cpu: 150_000},
		},
	}
	ps := slicesOf(tl, 100_000)
	want := perSlice{
		qps:   []float64{3, 2},
		p50us: []float64{2, 7},
		p90us: []float64{3, 9},
		cpuUs: []float64{10, 10},
	}
	if !reflect.DeepEqual(ps, want) {
		t.Errorf("slicesOf = %+v, want %+v", ps, want)
	}
}

// checkSelfTimes asserts the two properties the layer table rests on:
// a span's self time is its duration minus its children's, and the
// self times of one query add up to its root span exactly.
func checkSelfTimes(t *testing.T, spans []span) {
	t.Helper()
	self := selfTimes(spans)
	perQuery := make(map[int32]int64)
	roots := make(map[int32]int64)
	for i, sp := range spans {
		want := sp.end - sp.start
		for _, child := range spans {
			if child.parent == int32(i) {
				want -= child.end - child.start
			}
		}
		if self[i] != want {
			t.Fatalf("span %d: self %d, want %d", i, self[i], want)
		}
		if self[i] < 0 {
			t.Fatalf("span %d: negative self time %d", i, self[i])
		}
		perQuery[sp.query] += self[i]
		if sp.parent < 0 {
			roots[sp.query] = sp.end - sp.start
		}
	}
	for q, root := range roots {
		if perQuery[q] != root {
			t.Fatalf("query %d: self times sum to %d, root span is %d", q, perQuery[q], root)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// query(0..100) { unpack(0..10) metrics(20..90) { cache(25..80) { pack(60..70) } } }
	spans := []span{
		{start: 0, end: 100, parent: -1, layer: layerQuery},
		{start: 0, end: 10, parent: 0, layer: layerUnpack},
		{start: 20, end: 90, parent: 0, layer: layerMetrics},
		{start: 25, end: 80, parent: 2, layer: layerCache},
		{start: 60, end: 70, parent: 3, layer: layerPack},
	}
	checkSelfTimes(t, spans)
	if got, want := selfTimes(spans), []int64{20, 10, 15, 45, 10}; !slices.Equal(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	totals := aggregate(spans)
	if totals[layerCache].selfNs != 45 || totals[layerCache].inclusive != 55 || totals[layerCache].spans != 1 {
		t.Errorf("cache totals %+v", totals[layerCache])
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer(8)
	root := tr.begin(layerQuery)
	child := tr.begin(layerCache)
	leaf := tr.begin(layerPack)
	tr.end(leaf)
	tr.end(child)
	sibling := tr.begin(layerTelemetry)
	tr.end(sibling)
	tr.end(root)
	parents := []int32{-1, root, child, root}
	for i, sp := range tr.spans {
		if sp.parent != parents[i] {
			t.Errorf("span %d has parent %d, want %d", i, sp.parent, parents[i])
		}
	}
	checkSelfTimes(t, tr.spans)
}

// TestOracleAgreesWithSite decodes every reply of 1000 queries per
// workload from a live site and holds each against the oracle.
func TestOracleAgreesWithSite(t *testing.T) {
	for _, w := range workloads {
		s, err := newSite()
		if err != nil {
			t.Fatal(err)
		}
		c, err := newClient(w.gen(1), s, s.ldns.LocalAddr())
		if err != nil {
			s.close()
			t.Fatal(err)
		}
		c.decode = 1
		if err := c.play(1000, false); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		if c.wrong != 0 || c.timeouts != 0 || c.decoded != 1000 || c.answered != 1000 {
			t.Errorf("%s: %d answered, %d decoded, %d timeouts, %d wrong (first: %s)",
				w.name, c.answered, c.decoded, c.timeouts, c.wrong, c.firstBad)
		}
		c.close()
		s.close()
	}
}

// TestOracleRejects makes sure the check is not vacuous: a site whose
// zone hands out another address fails it.
func TestOracleRejects(t *testing.T) {
	s, err := newSite()
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	st := probeStream()
	st.addr[0] = [4]byte{192, 0, 2, 1} // not what the zone holds
	c, err := newClient(st, s, s.ldns.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	c.decode = 1
	if err := c.play(4, false); err != nil {
		t.Fatal(err)
	}
	if c.wrong != 4 || c.answered != 0 {
		t.Errorf("%d wrong, %d answered; want 4 wrong answers", c.wrong, c.answered)
	}
}

func TestSmokeEachWorkload(t *testing.T) {
	for _, w := range workloads {
		res, err := runWorkload(w, 1, 1, 1, false, "")
		if err != nil {
			t.Fatal(err)
		}
		if res.e2e["fail_ratio"] != 0 || res.tally.answered == 0 {
			t.Errorf("%s: fail_ratio %v with %d answered (first wrong: %s)",
				w.name, res.e2e["fail_ratio"], res.tally.answered, res.tally.firstBad)
		}
		for _, m := range endToEnd {
			if v, ok := res.e2e[m.name]; !ok || (v <= 0 && m.name != "fail_ratio") {
				t.Errorf("%s: %s = %v", w.name, m.name, v)
			}
		}
	}
}

// TestTracedRun makes the whole traced run on the workload that takes
// the cache's decode path, and checks what the layer table promises.
func TestTracedRun(t *testing.T) {
	w, err := findWorkload("hit-ecs")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	res, err := runWorkload(w, 1, 1, 1, true, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range perLayer {
		if _, ok := res.layers[m.name]; !ok {
			t.Errorf("%s missing", m.name)
		}
	}
	if got := res.layers["dnswire.wire_write_ratio"]; got != 0 {
		t.Errorf("wire_write_ratio = %v on hit-ecs, want 0", got)
	}
	if got := res.layers["dnsserver.cache.hit_ratio"]; got < 0.99 {
		t.Errorf("cache hit ratio = %v on hit-ecs, want >= 0.99", got)
	}
	if got := res.layers["cdn.router_samples"]; got != 0 {
		t.Errorf("%v queries reached the router on hit-ecs, want 0", got)
	}
	if got := res.layers["trace.unattributed_ratio"]; got > 0.10 {
		t.Errorf("unattributed ratio %v, want <= 0.10", got)
	}
	want := res.e2e["cpu_us_per_query"] - res.layers["inproc.ns_per_query"]/1000
	if got := res.layers["dnsserver.io.residual_us"]; got != want {
		t.Errorf("residual %v, want cpu_us_per_query - inproc.ns_per_query/1000 = %v", got, want)
	}

	data, err := os.ReadFile(dir + "/trace-hit-ecs.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Queries int
		Layers  []struct {
			Name   string
			SelfNs int64 `json:"self_ns"`
		}
		Spans [][6]int64
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("trace file: %v", err)
	}
	if len(file.Layers) != int(numLayers) || len(file.Spans) == 0 {
		t.Fatalf("trace file has %d layers and %d spans", len(file.Layers), len(file.Spans))
	}
	// The file's spans are whole trees; rebuild them and check that
	// self times sum to the roots.
	var spans []span
	for i, f := range file.Spans {
		if f[1] != int64(i) {
			t.Fatalf("span %d has id %d", i, f[1])
		}
		if f[0] >= 50 {
			break // fifty whole trees are enough for the quadratic check
		}
		spans = append(spans, span{query: int32(f[0]), parent: int32(f[2]), layer: layer(f[3]), start: f[4], end: f[5]})
	}
	checkSelfTimes(t, spans)
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables the program
// prints from.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", file.RunSeconds, defaultSeconds)
	}
	if !slices.Equal(file.Paths, []string{"benchmark"}) {
		t.Errorf("paths %v", file.Paths)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v, want %s: %s", i, file.Workloads[i], w.name, w.why)
		}
	}
	compare := func(kind string, listed []metric, defs []metricDef) {
		var want []metric
		for _, m := range defs {
			if m.contract() {
				want = append(want, metric{m.name, m.unit, m.better, m.bound})
			}
		}
		if !reflect.DeepEqual(listed, want) {
			t.Errorf("%s metrics differ:\n listed %+v\n program %+v", kind, listed, want)
		}
	}
	compare("end_to_end", file.EndToEnd, endToEnd)
	compare("per_layer", file.PerLayer, perLayer)
}
