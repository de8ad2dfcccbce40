package orchestrator

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnsserver"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/simnet"
)

func newCluster(t *testing.T, seed int64) (*simnet.Network, *Orchestrator) {
	t.Helper()
	n := simnet.New(seed)
	n.AddNode("fabric")
	o, err := New(Config{Net: n, FabricNode: "fabric"})
	if err != nil {
		t.Fatal(err)
	}
	return n, o
}

func addBackend(t *testing.T, n *simnet.Network, name, payload string) netip.Addr {
	t.Helper()
	node := n.AddNode(name)
	n.AddLink("fabric", name, simnet.Constant(100*time.Microsecond), 0)
	node.SetHandler(simnet.HandlerFunc(func(ctx *simnet.Ctx, dg simnet.Datagram) {
		ctx.Reply([]byte(payload), 0)
	}))
	return node.Addr
}

func TestCreateServiceAllocatesStableClusterIP(t *testing.T) {
	_, o := newCluster(t, 1)
	svc, err := o.CreateService(ServiceSpec{Name: "cdns", Namespace: "cdn"})
	if err != nil {
		t.Fatal(err)
	}
	if !netip.MustParsePrefix("10.96.0.0/16").Contains(svc.ClusterIP) {
		t.Errorf("cluster IP %v outside CIDR", svc.ClusterIP)
	}
	svc2, err := o.CreateService(ServiceSpec{Name: "other"})
	if err != nil {
		t.Fatal(err)
	}
	if svc2.ClusterIP == svc.ClusterIP {
		t.Error("duplicate cluster IP")
	}
	if _, err := o.CreateService(ServiceSpec{Name: "cdns", Namespace: "cdn"}); err == nil {
		t.Error("duplicate service accepted")
	}
	if _, err := o.CreateService(ServiceSpec{}); err == nil {
		t.Error("unnamed service accepted")
	}
}

func TestServiceDNSRegistration(t *testing.T) {
	_, o := newCluster(t, 2)
	pub := dnsserver.NewZone("mec.example.")
	o.SetPublicZone(pub)
	if _, err := o.CreateService(ServiceSpec{
		Name: "traffic-router", Namespace: "cdn",
		PublicName: "video.demo1.mycdn.mec.example.",
	}); err != nil {
		t.Fatal(err)
	}
	res, ans, _ := o.InternalZone().View().Lookup("traffic-router.cdn.svc.cluster.local.", dnswire.TypeA, nil)
	if res != dnsserver.LookupSuccess || len(ans) != 1 {
		t.Errorf("internal lookup: %v %v", res, ans)
	}
	res, ans, _ = pub.View().Lookup("video.demo1.mycdn.mec.example.", dnswire.TypeA, nil)
	if res != dnsserver.LookupSuccess || len(ans) != 1 {
		t.Errorf("public lookup: %v %v", res, ans)
	}
	// Both views resolve to the same cluster IP: the IP-reuse trick.
	internalIP := mustA(t, o.InternalZone(), "traffic-router.cdn.svc.cluster.local.")
	publicIP := mustA(t, pub, "video.demo1.mycdn.mec.example.")
	if internalIP != publicIP {
		t.Error("internal and public views disagree")
	}
}

func mustA(t *testing.T, z *dnsserver.Zone, name string) netip.Addr {
	t.Helper()
	_, ans, _ := z.View().Lookup(name, dnswire.TypeA, nil)
	if len(ans) == 0 {
		t.Fatalf("no A for %s", name)
	}
	return ans[0].RR.(*dnswire.A).Addr
}

func TestServiceProxyRoundRobin(t *testing.T) {
	n, o := newCluster(t, 3)
	a := addBackend(t, n, "backend-a", "from-a")
	b := addBackend(t, n, "backend-b", "from-b")
	svc, err := o.CreateService(ServiceSpec{Name: "lb", Endpoints: []netip.Addr{a, b}})
	if err != nil {
		t.Fatal(err)
	}
	client := n.AddNode("client")
	n.AddLink("fabric", "client", simnet.Constant(time.Millisecond), 0)
	seen := map[string]int{}
	for i := 0; i < 6; i++ {
		resp, _, err := client.Endpoint().Exchange(svc.ClusterIP, []byte("hi"), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		seen[string(resp)]++
	}
	if seen["from-a"] != 3 || seen["from-b"] != 3 {
		t.Errorf("round robin distribution = %v", seen)
	}
}

func TestServiceNoEndpointsDropsTraffic(t *testing.T) {
	n, o := newCluster(t, 5)
	svc, err := o.CreateService(ServiceSpec{Name: "empty"})
	if err != nil {
		t.Fatal(err)
	}
	client := n.AddNode("client")
	n.AddLink("fabric", "client", simnet.Constant(time.Millisecond), 0)
	if _, _, err := client.Endpoint().Exchange(svc.ClusterIP, []byte("hi"), 20*time.Millisecond); err == nil {
		t.Error("empty service answered")
	}
}

func TestPublicIPReport(t *testing.T) {
	_, o := newCluster(t, 8)
	with, without := o.PublicIPReport()
	if with != 0 || without != 0 {
		t.Errorf("empty report = %d/%d", with, without)
	}
	for i := 0; i < 5; i++ {
		if _, err := o.CreateService(ServiceSpec{
			Name:       fmt.Sprintf("cdn-%d", i),
			PublicName: fmt.Sprintf("cdn%d.customer.example.", i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	with, without = o.PublicIPReport()
	if with != 1 || without != 5 {
		t.Errorf("report = %d/%d, want 1/5", with, without)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil network accepted")
	}
	n := simnet.New(10)
	if _, err := New(Config{Net: n, FabricNode: "ghost"}); err == nil {
		t.Error("missing fabric node accepted")
	}
}
