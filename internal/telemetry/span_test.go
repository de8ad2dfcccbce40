package telemetry

import (
	"context"
	"net/netip"
	"sync"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/vclock"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// finish closes a span outside a Hub, as Hub.Finish does; only the first
// finish takes effect.
func (s *Span) finish(outcome string) {
	s.mu.Lock()
	s.endLocked(outcome)
	s.mu.Unlock()
}

func TestSpanEndIdempotent(t *testing.T) {
	clk := &vclock.Fixed{}
	sp := NewSpan(clk, "q.", "A")
	clk.Time += ms(2)
	sp.finish("edge")
	clk.Time += ms(7)
	sp.finish("error")
	if sp.Total() != ms(2) {
		t.Errorf("total moved after second End: %v", sp.Total())
	}
	if sp.Outcome() != "edge" {
		t.Errorf("outcome overwritten: %q", sp.Outcome())
	}
}

// TestNilSpanSafe: every method must be a no-op on a nil span, and the
// context helpers must tolerate a context with no span — the plugin
// chain runs un-instrumented (simnet, tests) with exactly that.
func TestNilSpanSafe(t *testing.T) {
	var sp *Span
	sp.StartHop("cache").End("hit")
	sp.Annotate("x", "y")
	if sp.Total() != 0 || sp.Hops() != nil || sp.Outcome() != "" || sp.Sampled() {
		t.Error("nil span leaked state")
	}

	ctx := context.Background()
	StartHop(ctx, "cache").End("hit")
	Annotate(ctx, "x", "y")
	if FromContext(ctx) != nil {
		t.Error("empty context carried a span")
	}
}

func TestContextRoundTrip(t *testing.T) {
	sp := NewSpan(&vclock.Fixed{}, "q.", "A")
	ctx := ContextWith(context.Background(), sp)
	if FromContext(ctx) != sp {
		t.Error("span lost in context")
	}
	StartHop(ctx, "zone").End("example.org.")
	if hops := sp.Hops(); len(hops) != 1 || hops[0].Layer != "zone" || hops[0].Note != "example.org." {
		t.Errorf("hops = %+v", sp.Hops())
	}
}

// TestSpanConcurrentHops mirrors hedged forwarding: multiple goroutines
// appending hops to one span; run with -race.
func TestSpanConcurrentHops(t *testing.T) {
	sp := NewSpan(nil, "q.", "A")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				sp.StartHop("upstream").End("addr")
				sp.Annotate("note", "x")
			}
		}()
	}
	wg.Wait()
	sp.finish("upstream")
	if len(sp.Hops()) != 8*100*2 {
		t.Errorf("hops = %d, want %d", len(sp.Hops()), 8*100*2)
	}
}

// TestLateHopDroppedAfterFinish: a hop still open when its query
// finishes belongs to a generation that is over. Closing it later must
// not record it in the span, which the hub may have handed to another
// query by then.
func TestLateHopDroppedAfterFinish(t *testing.T) {
	h := NewHub(&vclock.Fixed{})
	sp := h.BeginAddr("a.", "A", "udp", netip.AddrPort{})
	late := sp.StartHop("upstream")
	h.Finish(sp, "NOERROR")
	late.End("straggler")
	if hops := sp.Hops(); len(hops) != 0 {
		t.Errorf("finished span recorded a late hop: %+v", hops)
	}
	sp.StartHop("cache").End("hit") // the span's next generation records
	if hops := sp.Hops(); len(hops) != 1 || hops[0].Note != "hit" {
		t.Errorf("hops = %+v, want the one hit", hops)
	}
}

// TestForkJoin: a fork shares its parent's clock and start, its context
// leads back to the fork alone, and Join copies in what the fork holds
// by then — nothing it records afterwards.
func TestForkJoin(t *testing.T) {
	clk := &vclock.Fixed{}
	sp := NewSpan(clk, "q.", "A")
	parent := context.Background()
	ctx, fork := sp.Fork(ContextWith(parent, sp))
	if FromContext(ctx) != fork {
		t.Fatal("fork context does not carry the fork")
	}
	if node, ok := ctx.(*spanCtx); !ok || node.Context != parent {
		t.Fatalf("fork context is not re-rooted on the query's parent: %#v", ctx)
	}
	clk.Time += ms(1)
	won := StartHop(ctx, "upstream")
	late := StartHop(ctx, "upstream")
	clk.Time += ms(2)
	won.End("b")
	sp.Join(fork)
	late.End("a")
	if hops := sp.Hops(); len(hops) != 1 || hops[0] != (Hop{Layer: "upstream", Note: "b", Start: ms(1), Dur: ms(2)}) {
		t.Errorf("joined hops = %+v, want the one closed before Join", hops)
	}
	if _, none := (*Span)(nil).Fork(parent); none != nil {
		t.Error("nil span forked")
	}
}
