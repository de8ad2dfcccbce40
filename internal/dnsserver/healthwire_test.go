package dnsserver

import (
	"net/netip"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/health"
	"github.com/meccdn/meccdn/internal/vclock"
)

// TestForwardHealthOrdering: with a registry attached, non-cooling
// upstreams are reordered by probe verdict — healthy first, then
// unknown, degraded, probing, down — instead of blind configured
// order.
func TestForwardHealthOrdering(t *testing.T) {
	up := []netip.AddrPort{
		netip.MustParseAddrPort("10.0.0.1:53"), // will be down
		netip.MustParseAddrPort("10.0.0.2:53"), // degraded
		netip.MustParseAddrPort("10.0.0.3:53"), // unknown to the registry
		netip.MustParseAddrPort("10.0.0.4:53"), // healthy
		netip.MustParseAddrPort("10.0.0.5:53"), // probing
	}
	clk := &vclock.Fixed{}
	reg := health.New(health.Config{DownAfter: 3, UpAfter: 2, MinDwell: -1, Clock: clk})
	for _, u := range []int{0, 1, 3, 4} {
		reg.Add(up[u].String(), up[u].String())
	}
	for i := 0; i < 3; i++ {
		reg.ReportFailure(up[0].String())
	}
	reg.ReportSuccess(up[1].String(), time.Millisecond)
	reg.ReportFailure(up[1].String())
	reg.ReportSuccess(up[3].String(), time.Millisecond)

	f := &Forward{Upstreams: up, Clock: clk, Health: reg}
	got := candidateAddrs(f)
	want := []netip.AddrPort{up[3], up[2], up[1], up[4], up[0]}
	if len(got) != len(want) {
		t.Fatalf("candidates = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidates[%d] = %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
}

// TestForwardHealthEWMATieBreak: equal-rank upstreams order by
// smoothed probe latency, fastest first.
func TestForwardHealthEWMATieBreak(t *testing.T) {
	slow := netip.MustParseAddrPort("10.0.0.1:53")
	fast := netip.MustParseAddrPort("10.0.0.2:53")
	clk := &vclock.Fixed{}
	reg := health.New(health.Config{MinDwell: -1, Clock: clk})
	reg.Add(slow.String(), slow.String())
	reg.Add(fast.String(), fast.String())
	reg.ReportSuccess(slow.String(), 40*time.Millisecond)
	reg.ReportSuccess(fast.String(), 2*time.Millisecond)

	f := &Forward{Upstreams: []netip.AddrPort{slow, fast}, Clock: clk, Health: reg}
	got := candidateAddrs(f)
	if got[0] != fast || got[1] != slow {
		t.Fatalf("candidates = %v, want fastest healthy upstream first", got)
	}
}

// TestForwardHealthKeepsCooldownLast: registry scoring reorders only
// the non-cooling set; an upstream in its failure cooldown stays a
// last resort even if the registry thinks it is healthy.
func TestForwardHealthKeepsCooldownLast(t *testing.T) {
	a := netip.MustParseAddrPort("10.0.0.1:53")
	b := netip.MustParseAddrPort("10.0.0.2:53")
	clk := &vclock.Fixed{}
	reg := health.New(health.Config{MinDwell: -1, Clock: clk})
	reg.Add(a.String(), a.String())
	reg.ReportSuccess(a.String(), time.Millisecond)

	f := &Forward{Upstreams: []netip.AddrPort{a, b}, Clock: clk, FailureThreshold: 1, Health: reg}
	f.recordFailure(f.set().entries[0]) // a: trips the cooldown immediately
	got := candidateAddrs(f)
	if got[0] != b || got[1] != a {
		t.Fatalf("candidates = %v, want cooling upstream demoted to last", got)
	}
}

// TestIngressLoad: the load signal is the share of queueDepth taken by
// UDP queries waiting on the network, read off a live server whose
// upstream is held shut.
func TestIngressLoad(t *testing.T) {
	upstream := make(gate)
	s := &Server{Addr: "127.0.0.1:0", Handler: Chain(upstream), queueDepth: 4}
	if got := s.IngressLoad(); got != 0 {
		t.Fatalf("IngressLoad before Start = %v, want 0", got)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer close(upstream)
	if got := s.IngressLoad(); got != 0 {
		t.Fatalf("IngressLoad with nothing waiting = %v, want 0", got)
	}
	f := dialFlow(t, s)
	for i, want := range []float64{0.25, 0.5, 0.75, 1, 1} { // the fifth is shed
		f.send("load.test.", uint16(i))
		waitFor(t, 2*time.Second, func() bool { return s.IngressLoad() == want })
	}
	waitFor(t, 2*time.Second, func() bool { return s.DroppedPackets() == 1 })
	if got := s.IngressLoad(); got != 1 {
		t.Fatalf("IngressLoad at the bound = %v, want 1", got)
	}
}

// candidateAddrs is the order ServeDNS would try f's upstreams in.
func candidateAddrs(f *Forward) []netip.AddrPort {
	var addrs []netip.AddrPort
	for _, e := range f.candidates(nil) {
		addrs = append(addrs, e.addr)
	}
	return addrs
}

// TestCandidatesAllocateNothing: ordering the upstreams is per-query
// work, and with the caller's array to fill it makes no garbage —
// neither plain nor scored by the probe registry.
func TestCandidatesAllocateNothing(t *testing.T) {
	ups := []netip.AddrPort{
		netip.MustParseAddrPort("10.0.0.1:53"),
		netip.MustParseAddrPort("10.0.0.2:53"),
		netip.MustParseAddrPort("10.0.0.3:53"),
	}
	clk := &vclock.Fixed{}
	reg := health.New(health.Config{MinDwell: -1, Clock: clk})
	for _, up := range ups {
		reg.Add(up.String(), up.String())
		reg.ReportSuccess(up.String(), time.Millisecond)
	}
	for name, f := range map[string]*Forward{
		"plain":  {Upstreams: ups, Clock: clk},
		"scored": {Upstreams: ups, Clock: clk, Health: reg},
	} {
		var arr [4]*upstreamEntry
		if got := f.candidates(arr[:0]); len(got) != len(ups) || got[0].name != "10.0.0.1:53" {
			t.Fatalf("%s: candidates = %v", name, got)
		}
		if allocs := testing.AllocsPerRun(100, func() { f.candidates(arr[:0]) }); allocs != 0 {
			t.Errorf("%s: candidates allocates %v times per query, want 0", name, allocs)
		}
	}
}
