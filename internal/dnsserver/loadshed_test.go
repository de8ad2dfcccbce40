package dnsserver

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/telemetry"
	"github.com/meccdn/meccdn/internal/vclock"
)

func TestLoadShedThreshold(t *testing.T) {
	clock := &vclock.Fixed{}
	ls := &LoadShed{Clock: clock, MaxQueries: 5}
	backend := &countingPlugin{h: answerHandler("192.0.2.1")}
	h := Chain(ls, backend)
	var refused int
	for i := 0; i < 8; i++ {
		resp := Resolve(context.Background(), h, queryFor("burst.test."))
		if resp.Rcode == dnswire.RcodeRefused {
			refused++
		}
	}
	if backend.hits != 5 || refused != 3 {
		t.Errorf("hits=%d refused=%d", backend.hits, refused)
	}
	// Window rolls over: budget resets.
	clock.Time += time.Second
	resp := Resolve(context.Background(), h, queryFor("burst.test."))
	if resp.Rcode == dnswire.RcodeRefused {
		t.Error("query refused after window reset")
	}
	shed, served := ls.Shed()
	if shed != 3 || served != 6 {
		t.Errorf("shed=%d served=%d", shed, served)
	}
}

func TestLoadShedFallback(t *testing.T) {
	clock := &vclock.Fixed{}
	fallback := &countingPlugin{h: answerHandler("203.0.113.99")}
	ls := &LoadShed{Clock: clock, MaxQueries: 1, Fallback: Chain(fallback)}
	backend := &countingPlugin{h: answerHandler("192.0.2.1")}
	h := Chain(ls, backend)
	Resolve(context.Background(), h, queryFor("a.test."))
	resp := Resolve(context.Background(), h, queryFor("b.test."))
	if fallback.hits != 1 {
		t.Error("fallback not used")
	}
	if resp.Answers[0].(*dnswire.A).Addr.String() != "203.0.113.99" {
		t.Error("fallback answer not returned")
	}
}

func TestLoadShedDisabled(t *testing.T) {
	ls := &LoadShed{Clock: &vclock.Fixed{}}
	backend := &countingPlugin{h: answerHandler("192.0.2.1")}
	h := Chain(ls, backend)
	for i := 0; i < 100; i++ {
		Resolve(context.Background(), h, queryFor("x.test."))
	}
	if backend.hits != 100 {
		t.Error("disabled loadshed dropped queries")
	}
}

func TestMetricsPlugin(t *testing.T) {
	m := NewMetrics()
	h := Chain(m, pluginize(answerHandler("192.0.2.1")))
	Resolve(context.Background(), h, queryFor("a.test."))
	Resolve(context.Background(), h, queryFor("b.test."))
	if m.Total() != 2 {
		t.Errorf("total = %d", m.Total())
	}
	if m.CountByType(dnswire.TypeA) != 2 {
		t.Errorf("A count = %d", m.CountByType(dnswire.TypeA))
	}
	if m.CountByRcode(dnswire.RcodeSuccess) != 2 {
		t.Errorf("NOERROR count = %d", m.CountByRcode(dnswire.RcodeSuccess))
	}
}

// TestMetricsHostileLabels: qtypes are the client's choice and rcodes
// the upstream's, so neither may mint a series. A thousand distinct
// unknown qtypes, answered with rcodes above BADVERS, must land in the
// "other" series of both families.
func TestMetricsHostileLabels(t *testing.T) {
	m := NewMetrics()
	reg := telemetry.NewRegistry()
	reg.MustRegister(m.Collectors()...)
	const n = 1000
	h := Chain(m, pluginize(HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		rc := dnswire.RcodeBadVers + 1 + dnswire.Rcode(r.Type())%n
		reply := new(dnswire.Message)
		reply.SetReply(r.Msg)
		reply.Rcode = rc
		reply.SetEDNS(dnswire.DefaultEDNSSize)
		return rc, w.WriteMsg(reply)
	})))
	for i := 0; i < n; i++ {
		q := queryFor("hostile.test.")
		q.Msg.Questions[0].Type = dnswire.Type(1024 + i)
		Resolve(context.Background(), h, q)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		family, label string
		named         int
	}{
		{"meccdn_dns_queries_total", "type", len(dnswire.NamedTypes())},
		{"meccdn_dns_responses_total", "rcode", len(dnswire.NamedRcodes())},
	} {
		if series := strings.Count(b.String(), "\n"+c.family+"{"); series > c.named+1 {
			t.Errorf("%s has %d series, want at most %d", c.family, series, c.named+1)
		}
		if want := c.family + "{" + c.label + `="other"} 1000`; !strings.Contains(b.String(), want) {
			t.Errorf("exposition lacks %s", want)
		}
	}
	if got := m.CountByType(dnswire.Type(4000)); got != n {
		t.Errorf("unknown-type count = %d, want %d", got, n)
	}
}

// TestLoadShedBurstStraddlingWindow: the token bucket must not admit
// a double burst straddling a window boundary the way the old
// fixed-window reset did.
func TestLoadShedBurstStraddlingWindow(t *testing.T) {
	clock := &vclock.Fixed{}
	ls := &LoadShed{Clock: clock, MaxQueries: 10}
	backend := &countingPlugin{h: answerHandler("192.0.2.1")}
	h := Chain(ls, backend)

	// Burst just before the old window boundary...
	clock.Time += 990 * time.Millisecond
	for i := 0; i < 10; i++ {
		Resolve(context.Background(), h, queryFor("b1.test."))
	}
	// ...and again just after it. A fixed window admits all 20;
	// the bucket has only refilled ~0.2 tokens.
	clock.Time += 20 * time.Millisecond
	admitted := 0
	for i := 0; i < 10; i++ {
		if resp := Resolve(context.Background(), h, queryFor("b2.test.")); resp.Rcode != dnswire.RcodeRefused {
			admitted++
		}
	}
	if admitted > 1 {
		t.Errorf("second burst admitted %d queries across the boundary, want ≤1", admitted)
	}
	if backend.hits > 11 {
		t.Errorf("backend saw %d queries from a 2x straddled burst", backend.hits)
	}
}

// TestLoadShedNilClockDefaults: a zero-value clock field must not
// panic (live servers default to the wall clock).
func TestLoadShedNilClockDefaults(t *testing.T) {
	ls := &LoadShed{MaxQueries: 5}
	backend := &countingPlugin{h: answerHandler("192.0.2.1")}
	h := Chain(ls, backend)
	for i := 0; i < 3; i++ {
		if resp := Resolve(context.Background(), h, queryFor("nc.test.")); resp.Rcode != dnswire.RcodeSuccess {
			t.Fatalf("rcode = %v", resp.Rcode)
		}
	}
}
