package telemetry

import (
	"encoding/json"
	"net/netip"
	"testing"
	"time"
	"unsafe"

	"github.com/meccdn/meccdn/internal/racecheck"
	"github.com/meccdn/meccdn/internal/vclock"
)

func TestClassifyPath(t *testing.T) {
	cases := []struct {
		name  string
		hops  []Hop
		rcode string
		want  string
	}{
		{"cache hit", []Hop{{Layer: "cache", Note: "hit"}}, "NOERROR", PathCacheHit},
		{"zone answer", []Hop{{Layer: "cache", Note: "miss"}, {Layer: "zone", Note: "x."}}, "NOERROR", PathEdge},
		{"cdn answer", []Hop{{Layer: "cache", Note: "miss"}, {Layer: "cdn-router", Note: "edge-0"}}, "NOERROR", PathEdge},
		{"forwarded", []Hop{{Layer: "cache", Note: "miss"}, {Layer: "forward"}, {Layer: "upstream", Note: "a"}}, "NOERROR", PathUpstream},
		{"stub to the collocated C-DNS", []Hop{{Layer: "cache", Note: "miss"}, {Layer: "stub", Note: "cdn."}, {Layer: "forward"}, {Layer: "upstream", Note: "a"}}, "NOERROR", PathEdge},
		{"coalesced", []Hop{{Layer: "cache", Note: "miss"}, {Layer: "coalesce", Note: "shared"}}, "NOERROR", PathUpstream},
		{"refused", nil, "REFUSED", PathRefused},
		{"opcode refused", nil, "NOTIMP", PathRefused},
		{"malformed refused", nil, "FORMERR", PathRefused},
		{"EDNS version refused", nil, "BADVERS", PathRefused},
		{"servfail", []Hop{{Layer: "cache", Note: "miss"}}, "SERVFAIL", PathError},
	}
	for _, c := range cases {
		if got := pathNames[classifyPath(c.hops, c.rcode)]; got != c.want {
			t.Errorf("%s: classifyPath = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestHubFinishFeedsInstrumentsAndLog(t *testing.T) {
	clk := &vclock.Fixed{}
	h := NewHub(clk)
	h.SampleEvery = 1

	sp := h.BeginAddr("q.example.", "A", "udp", netip.MustParseAddrPort("127.0.0.1:9999"))
	hop := sp.StartHop("cache")
	clk.Time += time.Millisecond
	hop.End("hit")
	h.Finish(sp, "NOERROR")
	// sp is the hub's again: what Finish saw is in the instruments and
	// the log.

	if h.ServeDuration.Count() != 1 || h.ServeDuration.Sum() != time.Millisecond {
		t.Errorf("histogram = %d obs / %v", h.ServeDuration.Count(), h.ServeDuration.Sum())
	}
	if h.Path.Values()[pathCacheHit] != 1 {
		t.Errorf("path counts = %v", h.Path.Values())
	}
	recs := h.Log.Drain()
	if len(recs) != 1 || recs[0].Path != PathCacheHit || recs[0].Client != "127.0.0.1:9999" || recs[0].Transport != "udp" {
		t.Fatalf("log = %+v", recs)
	}
	if r := recs[0]; r.Name != "q.example." || r.Type != "A" || r.Rcode != "NOERROR" || r.DurUS != 1000 ||
		len(r.Hops) != 1 || r.Hops[0] != (HopRecord{Layer: "cache", Note: "hit", DurUS: 1000}) {
		t.Errorf("record = %+v", r)
	}
}

// TestRecordTimeFromHubClock: a record is stamped from the hub's own
// clock, not the wall: simEpoch plus the virtual time its query
// finished at on a simulated clock, and wall time on vclock.Real.
func TestRecordTimeFromHubClock(t *testing.T) {
	clk := &vclock.Fixed{Time: 90 * time.Second}
	h := NewHub(clk)
	h.SampleEvery = 1
	sp := h.BeginAddr("q.example.", "A", "udp", netip.AddrPort{})
	clk.Time += 3 * time.Millisecond
	h.Finish(sp, "NOERROR")
	if recs := h.Log.Drain(); len(recs) != 1 || !recs[0].Time.Equal(simEpoch.Add(90*time.Second+3*time.Millisecond)) {
		t.Errorf("simulated record = %+v, want time %v", recs, simEpoch.Add(90*time.Second+3*time.Millisecond))
	}

	h = NewHub(vclock.NewReal())
	h.SampleEvery = 1
	before := time.Now()
	h.Finish(h.BeginAddr("q.example.", "A", "udp", netip.AddrPort{}), "NOERROR")
	after := time.Now()
	if recs := h.Log.Drain(); len(recs) != 1 || recs[0].Time.Before(before) || recs[0].Time.After(after) {
		t.Errorf("wall-clock record = %+v, want a time in [%v, %v]", recs, before, after)
	}
}

func TestHubHeadSampling(t *testing.T) {
	h := NewHub(&vclock.Fixed{})
	h.SampleEvery = 4
	sampled := 0
	for i := 0; i < 40; i++ {
		sp := h.BeginAddr("q.", "A", "udp", netip.AddrPort{})
		if sp.Sampled() {
			sampled++
		}
		h.Finish(sp, "NOERROR")
	}
	if sampled != 10 {
		t.Errorf("sampled %d of 40 with SampleEvery=4, want 10", sampled)
	}
	if got := h.Log.Len(); got != 10 {
		t.Errorf("log kept %d records, want 10", got)
	}
	if h.Path.Sum() != 40 {
		t.Errorf("path counter saw %d, want all 40", h.Path.Sum())
	}
}

func TestNilHubSafe(t *testing.T) {
	var h *Hub
	sp := h.BeginAddr("q.", "A", "udp", netip.AddrPort{})
	if sp != nil {
		t.Error("nil hub returned a span")
	}
	h.Finish(sp, "NOERROR") // must not panic
}

// TestSampledFinishAllocs: once the ring has gone round, logging a
// sampled query allocates nothing — its slot keeps the backing arrays of
// the hops and the name it held before, and the name and client address
// are rendered only when the log is read — and what the log gives back
// is what RecordFromSpan renders, byte for byte as /querylog writes it,
// in a name of its own: a record must not keep the query's bytes alive.
func TestSampledFinishAllocs(t *testing.T) {
	clk := &vclock.Fixed{}
	h := NewHub(clk)
	h.SampleEvery = 1
	h.Log = NewQueryLog(8)
	client := netip.MustParseAddrPort("198.51.100.7:4242")
	name := "v.cdn.example."
	query := func() {
		sp := h.BeginAddr(name, "A", "udp", client)
		hop := sp.StartHop("cache")
		clk.Time += time.Millisecond
		hop.End("miss")
		sp.StartHop("upstream").End("10.0.0.1")
		h.Finish(sp, "NOERROR")
	}
	for i := 0; i < 2*8; i++ {
		query()
	}
	if allocs := testing.AllocsPerRun(1000, query); racecheck.Enabled {
		t.Logf("a sampled Finish allocates %v times (not checked under -race, whose sync.Pool drops spans)", allocs)
	} else if allocs != 0 {
		t.Errorf("a sampled Finish on a warm ring allocates %v times, want 0", allocs)
	}

	sp := NewSpan(clk, "v.cdn.example.", "A")
	sp.transport, sp.client = "udp", client
	sp.start = clk.Now() - time.Millisecond
	sp.hops = append(sp.hops, Hop{Layer: "cache", Note: "miss", Start: 0, Dur: time.Millisecond}, Hop{Layer: "upstream", Note: "10.0.0.1", Start: time.Millisecond})
	sp.finish(PathUpstream)
	recs := h.Log.Drain()
	want := RecordFromSpan(sp, "NOERROR", PathUpstream, recs[len(recs)-1].Time)
	got, _ := json.Marshal(recs[len(recs)-1])
	wantJSON, _ := json.Marshal(want)
	if len(recs) != 8 || string(got) != string(wantJSON) {
		t.Errorf("%d records; the last is\n%s\nwant\n%s", len(recs), got, wantJSON)
	}
	if unsafe.StringData(recs[0].Name) == unsafe.StringData(name) {
		t.Error("a logged record shares its name's bytes with the query's")
	}
}
