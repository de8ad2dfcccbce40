package lte

import (
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/simnet"
)

func echo(proc time.Duration) simnet.HandlerFunc {
	return func(ctx *simnet.Ctx, dg simnet.Datagram) { ctx.Reply(dg.Payload, proc) }
}

func TestTestbedTopology(t *testing.T) {
	tb := New(Config{Seed: 1})
	path, err := tb.Net.Path(NodeUE, NodePGW)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"ue", "enb0", "sgw", "pgw"}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestMECIsCloserThanLANThanWAN(t *testing.T) {
	tb := New(Config{Seed: 2})
	tb.AddMEC("mec-dns")
	tb.AddLAN("lan-dns")
	tb.AddWAN("wan-dns", 1)
	for _, name := range []string{"mec-dns", "lan-dns", "wan-dns"} {
		tb.Net.Node(name).SetHandler(echo(0))
	}
	ep := tb.Net.Node(NodeUE).Endpoint()
	rtt := func(dst string) time.Duration {
		var total time.Duration
		const n = 30
		for i := 0; i < n; i++ {
			_, d, err := ep.Exchange(tb.Net.Node(dst).Addr, []byte("x"), time.Second)
			if err != nil {
				i-- // rare loss: retry
				continue
			}
			total += d
		}
		return total / n
	}
	mec, lan, wan := rtt("mec-dns"), rtt("lan-dns"), rtt("wan-dns")
	if !(mec < lan && lan < wan) {
		t.Errorf("ordering violated: mec=%v lan=%v wan=%v", mec, lan, wan)
	}
	// The paper's wireless hop is ~10ms one way: the MEC RTT must be
	// dominated by it (≈20ms ± jitter).
	if mec < 15*time.Millisecond || mec > 30*time.Millisecond {
		t.Errorf("MEC RTT = %v, want ≈20ms", mec)
	}
}

func Test5GShrinksWirelessHop(t *testing.T) {
	rtt5g := measureMECRTT(t, Config{Seed: 3, Air: NR5G()})
	rtt4g := measureMECRTT(t, Config{Seed: 3, Air: LTE4G()})
	if rtt5g*3 > rtt4g {
		t.Errorf("5G RTT %v not drastically below 4G %v", rtt5g, rtt4g)
	}
}

func measureMECRTT(t *testing.T, cfg Config) time.Duration {
	t.Helper()
	tb := New(cfg)
	tb.AddMEC("mec")
	tb.Net.Node("mec").SetHandler(echo(0))
	ep := tb.Net.Node(NodeUE).Endpoint()
	var total time.Duration
	const n = 20
	for i := 0; i < n; i++ {
		_, d, err := ep.Exchange(tb.Net.Node("mec").Addr, []byte("x"), time.Second)
		if err != nil {
			i--
			continue
		}
		total += d
	}
	return total / n
}

func TestMultipleBaseStationsAndReattach(t *testing.T) {
	tb := New(Config{Seed: 4, BaseStations: 2})
	if tb.AttachedENB() != 0 {
		t.Fatalf("initial attach = %d", tb.AttachedENB())
	}
	if !tb.Net.HasLink(NodeUE, ENB(0)) || tb.Net.HasLink(NodeUE, ENB(1)) {
		t.Fatal("initial links wrong")
	}
	tb.AttachUE(1)
	if tb.Net.HasLink(NodeUE, ENB(0)) || !tb.Net.HasLink(NodeUE, ENB(1)) {
		t.Fatal("re-attach did not move the bearer")
	}
	if tb.AttachedENB() != 1 {
		t.Errorf("attached = %d", tb.AttachedENB())
	}
}

func TestWANDelayScale(t *testing.T) {
	tb := New(Config{Seed: 5, WANDelay: simnet.Constant(20 * time.Millisecond)})
	tb.AddWAN("near", 1)
	tb.AddWAN("far", 5)
	tb.Net.Node("near").SetHandler(echo(0))
	tb.Net.Node("far").SetHandler(echo(0))
	ep := tb.Net.Node(NodeUE).Endpoint()
	var nearRTT, farRTT time.Duration
	for i := 0; i < 10; i++ {
		if _, d, err := ep.Exchange(tb.Net.Node("near").Addr, []byte("x"), time.Second); err == nil {
			nearRTT += d
		}
		if _, d, err := ep.Exchange(tb.Net.Node("far").Addr, []byte("x"), time.Second); err == nil {
			farRTT += d
		}
	}
	if farRTT < nearRTT*3 {
		t.Errorf("scaled WAN not slower: near=%v far=%v", nearRTT, farRTT)
	}
}

func TestAirProfileNames(t *testing.T) {
	if LTE4G().Name != "4g-lte" || NR5G().Name != "5g-nr" {
		t.Error("profile names")
	}
	if ENB(3) != "enb3" {
		t.Errorf("ENB(3) = %s", ENB(3))
	}
}
