package telemetry

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/vclock"
)

func rec(i int) Record {
	return Record{Name: fmt.Sprintf("q%d.example.", i), Type: "A", Rcode: "NOERROR", Path: PathEdge}
}

func TestQueryLogRingWrap(t *testing.T) {
	l := NewQueryLog(3)
	for i := 0; i < 5; i++ {
		l.add(rec(i))
	}
	if l.Len() != 3 {
		t.Fatalf("len = %d, want 3", l.Len())
	}
	added, dropped := l.Stats()
	if added != 5 || dropped != 2 {
		t.Errorf("stats = %d added / %d dropped, want 5/2", added, dropped)
	}
	out := l.Drain()
	if len(out) != 3 {
		t.Fatalf("drained %d", len(out))
	}
	// Oldest-first after overwriting q0 and q1.
	for i, want := range []string{"q2.example.", "q3.example.", "q4.example."} {
		if out[i].Name != want {
			t.Errorf("out[%d] = %q, want %q", i, out[i].Name, want)
		}
	}
	if l.Len() != 0 {
		t.Error("drain did not empty the log")
	}
	// The ring must keep working after a post-wrap drain.
	l.add(rec(9))
	if got := l.Drain(); len(got) != 1 || got[0].Name != "q9.example." {
		t.Errorf("post-drain add = %+v", got)
	}
}

func TestQueryLogNoWrapDrain(t *testing.T) {
	l := NewQueryLog(8)
	l.add(rec(0))
	l.add(rec(1))
	out := l.Drain()
	if len(out) != 2 || out[0].Name != "q0.example." || out[1].Name != "q1.example." {
		t.Errorf("out = %+v", out)
	}
}

func TestWriteJSONL(t *testing.T) {
	l := NewQueryLog(4)
	l.add(Record{Name: "a.example.", Type: "A", Rcode: "NOERROR", Path: PathCacheHit, DurUS: 42,
		Hops: []HopRecord{{Layer: "cache", Note: "hit", DurUS: 40}}})
	var b strings.Builder
	if err := l.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("lines = %d", len(lines))
	}
	var got Record
	if err := json.Unmarshal([]byte(lines[0]), &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "a.example." || got.Path != PathCacheHit || len(got.Hops) != 1 || got.Hops[0].Note != "hit" {
		t.Errorf("round-trip = %+v", got)
	}
}

func TestRecordFromSpan(t *testing.T) {
	clk := &vclock.Fixed{}
	sp := NewSpan(clk, "v.cdn.example.", "A")
	hop := sp.StartHop("cache")
	clk.Time += 250 * time.Microsecond
	hop.End("hit")
	sp.finish(PathCacheHit)

	now := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	r := RecordFromSpan(sp, "NOERROR", PathCacheHit, now)
	if r.Name != "v.cdn.example." || r.Type != "A" || r.Rcode != "NOERROR" || r.Path != PathCacheHit {
		t.Errorf("record = %+v", r)
	}
	if r.DurUS != 250 {
		t.Errorf("dur_us = %d", r.DurUS)
	}
	if len(r.Hops) != 1 || r.Hops[0].Layer != "cache" || r.Hops[0].DurUS != 250 {
		t.Errorf("hops = %+v", r.Hops)
	}
	if !r.Time.Equal(now) {
		t.Errorf("time = %v", r.Time)
	}
}

// add appends a copy of rec, overwriting the oldest record when full:
// a record a test writes directly, where the hub would write a span's.
func (l *QueryLog) add(rec Record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	slot := l.slotLocked()
	slot.rec, slot.client = rec, netip.AddrPort{}
	slot.rec.Name, slot.name = "", append(slot.name[:0], rec.Name...)
	slot.rec.Hops = append(slot.rec.Hops[:0], rec.Hops...)
}
