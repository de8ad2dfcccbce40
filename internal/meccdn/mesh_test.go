package meccdn

import (
	"strings"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/cdn"
	"github.com/meccdn/meccdn/internal/lte"
	"github.com/meccdn/meccdn/internal/simnet"
)

// twoSiteMesh deploys two meshed MEC sites on one testbed. Only site B
// fills from the origin; site A's caches are leaves, so a request at A
// for content it does not hold is served only if the mesh steers it.
func twoSiteMesh(t *testing.T, seed int64) (*lte.Testbed, *Site, *Site) {
	t.Helper()
	tb := lte.New(lte.Config{Seed: seed})
	originNode := tb.AddWAN("origin", 1)
	origin := cdn.NewOrigin()
	cat := cdn.NewCatalog(testDomain)
	cat.Publish(cdn.Content{Name: "video.flash." + testDomain, Size: 2048})
	origin.AddCatalog(cat)
	cdn.NewOriginServer(originNode, origin, simnet.Constant(2*time.Millisecond))

	siteA, err := DeploySite(tb, SiteConfig{
		Domain:     testDomain,
		NamePrefix: "a-",
		Mesh:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	siteB, err := DeploySite(tb, SiteConfig{
		Domain:     testDomain,
		NamePrefix: "b-",
		OriginAddr: originNode.Addr,
		Mesh:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ConnectMesh(siteA, siteB); err != nil {
		t.Fatal(err)
	}
	return tb, siteA, siteB
}

func TestMeshSteersAcrossSites(t *testing.T) {
	tb, siteA, siteB := twoSiteMesh(t, 60)
	name := "video.flash." + testDomain
	siteB.Warm(cdn.Content{Name: name, Size: 2048})

	// One announce round each way publishes B's content table at A.
	siteA.AnnounceOnce()
	siteB.AnnounceOnce()
	if got := siteA.Mesh.View().EligiblePeers(); got != 1 {
		t.Fatalf("site A eligible peers = %d", got)
	}

	ue := &UEClient{EP: tb.Net.Node(lte.NodeUE).Endpoint(), MEC: siteA.LDNS}
	fr, err := ue.ResolveAndFetch(testDomain, name)
	if err != nil {
		t.Fatal(err)
	}
	// The referral chase must land on one of site B's cache cluster
	// IPs and the object must be served from B's warm cache.
	if !strings.HasSuffix(fr.Resolve.Source, "+tier") {
		t.Errorf("source = %q, want a chased referral", fr.Resolve.Source)
	}
	foundB := false
	for _, svc := range siteB.CacheServices {
		if fr.Resolve.Addr == svc.ClusterIP {
			foundB = true
		}
	}
	if !foundB {
		t.Fatalf("answer %v is not a site-B cache cluster IP", fr.Resolve.Addr)
	}
	if fr.Content.Status != "HIT" {
		t.Fatalf("content status = %q, want HIT from the sibling MEC", fr.Content.Status)
	}
	if hits := siteA.Mesh.View().PeerHits(); hits != 1 {
		t.Errorf("peer hits = %d, want 1", hits)
	}

	// Content nobody announced stays local: A picks its own (empty,
	// parentless) cache and the fetch is NOTFOUND, proving the steer
	// above was mesh-driven, not topological.
	fr2, err := ue.ResolveAndFetch(testDomain, "video.cold."+testDomain)
	if err != nil {
		t.Fatal(err)
	}
	if fr2.Content.Status == "HIT" {
		t.Fatalf("unannounced content served HIT from %v", fr2.Resolve.Addr)
	}
}

func TestMeshColdViewStaysVertical(t *testing.T) {
	tb, siteA, siteB := twoSiteMesh(t, 61)
	name := "video.flash." + testDomain
	siteB.Warm(cdn.Content{Name: name, Size: 2048})
	// No announce round: A's view is empty, so resolution must stay on
	// the site-local path even though B holds the object.
	ue := &UEClient{EP: tb.Net.Node(lte.NodeUE).Endpoint(), MEC: siteA.LDNS}
	fr, err := ue.ResolveAndFetch(testDomain, name)
	if err != nil {
		t.Fatal(err)
	}
	foundA := false
	for _, svc := range siteA.CacheServices {
		if fr.Resolve.Addr == svc.ClusterIP {
			foundA = true
		}
	}
	if !foundA {
		t.Fatalf("cold-view answer %v is not a site-A cache", fr.Resolve.Addr)
	}
	if hits := siteA.Mesh.View().PeerHits(); hits != 0 {
		t.Errorf("peer hits = %d with a cold view", hits)
	}
}

func TestMeshSnapshotPublishesStatus(t *testing.T) {
	_, siteA, siteB := twoSiteMesh(t, 62)
	siteB.Warm(cdn.Content{Name: "video.flash." + testDomain, Size: 2048})
	siteA.AnnounceOnce()
	siteB.AnnounceOnce()
	st := siteA.Mesh.Snapshot()
	if st.Site != "a-mec" || len(st.Peers) != 1 || st.Peers[0].Name != "b-mec" {
		t.Fatalf("snapshot = %+v", st)
	}
	if st.Peers[0].Entries != 1 || !st.Peers[0].Eligible {
		t.Fatalf("peer row = %+v", st.Peers[0])
	}
	if siteA.MeshAddr() == siteB.MeshAddr() || !siteA.MeshAddr().IsValid() {
		t.Fatalf("mesh addrs: %v vs %v", siteA.MeshAddr(), siteB.MeshAddr())
	}
}
