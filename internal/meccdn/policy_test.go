package meccdn

import (
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/lte"
)

func TestUEClientMissingResolvers(t *testing.T) {
	tb := lte.New(lte.Config{Seed: 90})
	ep := tb.Net.Node(lte.NodeUE).Endpoint()

	noMEC := &UEClient{EP: ep}
	if _, err := noMEC.Resolve("x.test."); err == nil {
		t.Error("MECOnly without MEC succeeded")
	}
	noProv := &UEClient{EP: ep, Mode: ProviderOnly}
	if _, err := noProv.Resolve("x.test."); err == nil {
		t.Error("ProviderOnly without provider succeeded")
	}
	noBoth := &UEClient{EP: ep, Mode: Multicast}
	if _, err := noBoth.Resolve("x.test."); err == nil {
		t.Error("Multicast without resolvers succeeded")
	}
}

func TestUEClientMulticastBothDead(t *testing.T) {
	d := deploy(t, 91, nil)
	d.ue.Mode = Multicast
	// Point both at a node that is not a DNS server.
	dead := addrPortOf(d.tb.Net.Node("origin").Addr)
	d.ue.MEC, d.ue.Provider = dead, dead
	if _, err := d.ue.Resolve("x.test."); err == nil {
		t.Error("multicast with two dead resolvers succeeded")
	}
}

func TestUEClientFallbackBothDead(t *testing.T) {
	d := deploy(t, 92, nil)
	d.ue.Mode = FallbackOnTimeout
	d.ue.mecBudget = 10 * time.Millisecond
	dead := addrPortOf(d.tb.Net.Node("origin").Addr)
	d.ue.MEC, d.ue.Provider = dead, dead
	if _, err := d.ue.Resolve("x.test."); err == nil {
		t.Error("fallback with two dead resolvers succeeded")
	}
}

func TestResolveAndFetchNoAddress(t *testing.T) {
	d := deploy(t, 93, nil)
	// A name the public view refuses: resolution yields no address
	// and ResolveAndFetch must error rather than fetch from a zero
	// address.
	if _, err := d.ue.ResolveAndFetch(testDomain, "coredns.kube-system.svc.cluster.local."); err == nil {
		t.Error("fetch of unresolvable name succeeded")
	}
}

func TestUEClientSurvivesAirLoss(t *testing.T) {
	// With the default LTE loss and stub retransmission, a long run
	// of queries completes without a hard failure.
	d := deploy(t, 94, nil)
	name := "video.demo1." + testDomain
	for i := 0; i < 300; i++ {
		if _, err := d.ue.Resolve(name); err != nil {
			t.Fatalf("query %d failed despite retransmission: %v", i, err)
		}
	}
}
