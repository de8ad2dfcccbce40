package cdn

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/simnet"
)

// contentTopology builds client—edge—origin with an edge cache server.
type contentTopology struct {
	net  *simnet.Network
	edge *CacheServer
}

func buildContentTopology(t *testing.T, seed int64, capacity int64) *contentTopology {
	t.Helper()
	n := simnet.New(seed)
	n.AddNode("client")
	n.AddNode("edge")
	n.AddNode("origin")
	n.AddLink("client", "edge", simnet.Constant(5*time.Millisecond), 0)
	n.AddLink("edge", "origin", simnet.Constant(40*time.Millisecond), 0)

	origin := NewOrigin()
	cat := NewCatalog("mycdn.ciab.test.")
	cat.PublishN("video", 100, 1000)
	origin.AddCatalog(cat)
	osrv := NewOriginServer(n.Node("origin"), origin, simnet.Constant(2*time.Millisecond))

	edge := NewCacheServer(n.Node("edge"), CacheServerConfig{
		Name:          "edge-1",
		Site:          "mec-site-1",
		Tier:          TierEdge,
		CapacityBytes: capacity,
		Parent:        osrv.Addr(),
		Domains:       []string{"mycdn.ciab.test."},
		ServeDelay:    simnet.Constant(time.Millisecond),
	})
	return &contentTopology{net: n, edge: edge}
}

func TestCacheServerMissFillHit(t *testing.T) {
	ct := buildContentTopology(t, 1, 100_000)
	ep := ct.net.Node("client").Endpoint()

	res, err := Fetch(ep, ct.edge.Addr(), "mycdn.ciab.test.", "video-0001", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != "FILLED" || res.Size != 1000 {
		t.Fatalf("first fetch = %+v", res)
	}
	// 5 + (40+2+40) + 1 + 5 = 93ms with the origin round trip.
	if res.RTT != 93*time.Millisecond {
		t.Errorf("cold RTT = %v, want 93ms", res.RTT)
	}

	res, err = Fetch(ep, ct.edge.Addr(), "mycdn.ciab.test.", "video-0001", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != "HIT" {
		t.Fatalf("second fetch = %+v", res)
	}
	if res.RTT != 11*time.Millisecond {
		t.Errorf("warm RTT = %v, want 11ms", res.RTT)
	}
}

func TestCacheServerNotFound(t *testing.T) {
	ct := buildContentTopology(t, 2, 100_000)
	ep := ct.net.Node("client").Endpoint()
	res, err := Fetch(ep, ct.edge.Addr(), "mycdn.ciab.test.", "no-such-object", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != "NOTFOUND" {
		t.Errorf("status = %s", res.Status)
	}
}

func TestCacheServerWrongDomainRefused(t *testing.T) {
	ct := buildContentTopology(t, 3, 100_000)
	ep := ct.net.Node("client").Endpoint()
	res, err := Fetch(ep, ct.edge.Addr(), "othercdn.example.", "video-0001", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != "ERR" {
		t.Errorf("status = %s", res.Status)
	}
}

func TestCacheServerUnhealthyRefuses(t *testing.T) {
	ct := buildContentTopology(t, 4, 100_000)
	ct.edge.SetHealthy(false)
	if ct.edge.Healthy() {
		t.Fatal("SetHealthy(false) ignored")
	}
	ep := ct.net.Node("client").Endpoint()
	res, err := Fetch(ep, ct.edge.Addr(), "mycdn.ciab.test.", "video-0001", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != "ERR" {
		t.Errorf("status = %s", res.Status)
	}
}

func TestCacheServerEvictionUnderSmallCapacity(t *testing.T) {
	// Capacity for only 2 of the 1000-byte objects.
	ct := buildContentTopology(t, 5, 2000)
	ep := ct.net.Node("client").Endpoint()
	for _, name := range []string{"video-0001", "video-0002", "video-0003"} {
		if _, err := Fetch(ep, ct.edge.Addr(), "mycdn.ciab.test.", name, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// video-0001 must have been evicted: fetching it refills.
	res, err := Fetch(ep, ct.edge.Addr(), "mycdn.ciab.test.", "video-0001", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != "FILLED" {
		t.Errorf("status = %s, want FILLED after eviction", res.Status)
	}
	if s := ct.edge.Cache().Stats(); s.Evictions == 0 {
		t.Error("no evictions recorded")
	}
}

func TestCacheServerWarm(t *testing.T) {
	ct := buildContentTopology(t, 6, 100_000)
	ct.edge.Warm(Content{Name: "video-0042", Size: 1000})
	ep := ct.net.Node("client").Endpoint()
	res, err := Fetch(ep, ct.edge.Addr(), "mycdn.ciab.test.", "video-0042", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != "HIT" {
		t.Errorf("warmed object status = %s", res.Status)
	}
}

func TestCacheServerLoadWindow(t *testing.T) {
	ct := buildContentTopology(t, 7, 100_000)
	ep := ct.net.Node("client").Endpoint()
	for i := 0; i < 5; i++ {
		if _, err := Fetch(ep, ct.edge.Addr(), "mycdn.ciab.test.", "video-0001", time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if load := ct.edge.Load(); load != 5 {
		t.Errorf("load = %d, want 5", load)
	}
	// Let the window pass in virtual time.
	ct.net.Clock.RunUntil(ct.net.Now() + 2*time.Second)
	if load := ct.edge.Load(); load != 0 {
		t.Errorf("load after window = %d, want 0", load)
	}
}

func TestCacheServerBadRequest(t *testing.T) {
	ct := buildContentTopology(t, 8, 100_000)
	ep := ct.net.Node("client").Endpoint()
	resp, _, err := ep.Exchange(ct.edge.Addr(), []byte("BOGUS"), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(resp), "ERR") {
		t.Errorf("resp = %q", resp)
	}
}

func TestTieredFill(t *testing.T) {
	// client — edge — mid — origin: a miss at the edge cascades
	// through the mid tier, leaving copies at both.
	n := simnet.New(9)
	for _, name := range []string{"client", "edge", "mid", "origin"} {
		n.AddNode(name)
	}
	n.AddLink("client", "edge", simnet.Constant(5*time.Millisecond), 0)
	n.AddLink("edge", "mid", simnet.Constant(15*time.Millisecond), 0)
	n.AddLink("mid", "origin", simnet.Constant(50*time.Millisecond), 0)

	origin := NewOrigin()
	cat := NewCatalog("cdn.test.")
	cat.PublishN("obj", 10, 500)
	origin.AddCatalog(cat)
	osrv := NewOriginServer(n.Node("origin"), origin, nil)

	mid := NewCacheServer(n.Node("mid"), CacheServerConfig{
		Name: "mid-1", Tier: TierMid, CapacityBytes: 1 << 20, Parent: osrv.Addr(),
	})
	edge := NewCacheServer(n.Node("edge"), CacheServerConfig{
		Name: "edge-1", Tier: TierEdge, CapacityBytes: 1 << 20, Parent: mid.Addr(),
	})
	ep := n.Node("client").Endpoint()

	res, err := Fetch(ep, edge.Addr(), "cdn.test.", "obj-0000", time.Second)
	if err != nil || res.Status != "FILLED" {
		t.Fatalf("cold: %+v, %v", res, err)
	}
	if !mid.Cache().Contains("obj-0000") || !edge.Cache().Contains("obj-0000") {
		t.Error("fill did not populate both tiers")
	}
	// A different client hitting only the mid tier now gets a HIT.
	res, err = Fetch(ep, edge.Addr(), "cdn.test.", "obj-0000", time.Second)
	if err != nil || res.Status != "HIT" {
		t.Fatalf("warm: %+v, %v", res, err)
	}
}

func TestTierString(t *testing.T) {
	if TierEdge.String() != "edge" || TierMid.String() != "mid" || TierFar.String() != "far" {
		t.Error("tier labels")
	}
	if Tier(9).String() != "tier(9)" {
		t.Error("unknown tier label")
	}
}

func TestCatalogAndOrigin(t *testing.T) {
	cat := NewCatalog("d.test.")
	cat.Publish(Content{Name: "x", Size: 1})
	cat.PublishN("y", 3, 2)
	for _, name := range []string{"x", "y-0000", "y-0001", "y-0002"} {
		if _, ok := cat.Get(name); !ok {
			t.Errorf("missing object %s", name)
		}
	}
	if _, ok := cat.Get("y-0003"); ok {
		t.Error("bulk publish overran its count")
	}
	o := NewOrigin()
	o.AddCatalog(cat)
	if _, ok := o.Fetch("d.test.", "x"); !ok {
		t.Error("origin fetch failed")
	}
	if _, ok := o.Fetch("nope.test.", "x"); ok {
		t.Error("origin served unknown domain")
	}
}

// referenceVerbReply is the content protocol read octet by octet, apart
// from the server's parser: the reply a cache server that is healthy or
// not, serves the domains in served, holds the objects in cached and has
// no parent owes payload.
func referenceVerbReply(payload []byte, healthy bool, served map[string]bool, cached map[string]int64) string {
	if len(payload) > 512 {
		return "ERR too-long"
	}
	var fields []string
	var field []byte
	for _, c := range append(payload, ' ') {
		switch c {
		case ' ', '\t', '\n', '\v', '\f', '\r':
			if len(field) > 0 {
				fields = append(fields, string(field))
			}
			field = field[:0]
		default:
			field = append(field, c)
		}
	}
	switch {
	case len(fields) == 1 && fields[0] == "PING" && healthy:
		return "PONG"
	case len(fields) == 1 && fields[0] == "PING":
		return "ERR unavailable"
	case len(fields) != 3 || fields[0] != "GET" || len(fields[1]) > 255 || len(fields[2]) > 255:
		return "ERR bad-request"
	}
	domain := []byte(fields[1])
	for i, c := range domain {
		if 'A' <= c && c <= 'Z' {
			domain[i] = c | 0x20
		}
	}
	if domain[len(domain)-1] != '.' {
		domain = append(domain, '.')
	}
	size, hit := cached[fields[2]]
	switch {
	case !healthy || !served[string(domain)]:
		return "ERR unavailable"
	case hit:
		return "HIT " + strconv.FormatInt(size, 10)
	}
	return "NOTFOUND"
}

// FuzzCacheServerVerbs holds the cache server's verb parser to
// referenceVerbReply: every datagram, whatever its octets, gets exactly
// one reply, and it is the one the reference reads off the bytes —
// ERR too-long past 512 octets, ERR bad-request for anything but PING
// and a well-formed GET, and for those PONG, HIT, NOTFOUND or
// ERR unavailable as the server's health, domains and cache have it.
func FuzzCacheServerVerbs(f *testing.F) {
	for _, p := range []string{
		"PING", " PING\r\n", "PING PING", "ping",
		"GET mycdn.ciab.test. video-1", "GET MyCDN.CIAB.test video-1", "GET\tmycdn.ciab.test.\nvideo-2\n",
		"GET other.test. video-1", "GET mycdn.ciab.test.", "GET a b c", "GET\xc2\xa0mycdn.ciab.test. video-1",
		"GET mycdn.ciab.tes\xe2\x84\xaa. video-1", "GET mycdn.ciab.test. " + strings.Repeat("v", 256),
		strings.Repeat(" ", 513), "\x00\x01ANNOUNCE",
	} {
		f.Add([]byte(p), true)
		f.Add([]byte(p), false)
	}
	f.Fuzz(func(t *testing.T, payload []byte, healthy bool) {
		n := simnet.New(1)
		client, edge := n.AddNode("client"), n.AddNode("edge")
		n.AddLink("client", "edge", simnet.Constant(time.Millisecond), 0)
		srv := NewCacheServer(edge, CacheServerConfig{
			Name: "edge-1", Site: "mec-1", Tier: TierEdge, CapacityBytes: 1 << 20,
			Domains: []string{"mycdn.ciab.test."},
		})
		srv.Warm(Content{Name: "video-1", Size: 1000})
		srv.SetHealthy(healthy)
		extra := 0
		client.SetHandler(simnet.HandlerFunc(func(*simnet.Ctx, simnet.Datagram) { extra++ }))

		want := referenceVerbReply(payload, healthy, map[string]bool{"mycdn.ciab.test.": true}, map[string]int64{"video-1": 1000})
		got, _, err := client.Endpoint().Exchange(edge.Addr, payload, time.Second)
		if err != nil {
			t.Fatalf("%q: %v", payload, err)
		}
		n.Clock.RunUntil(n.Clock.Now() + time.Second)
		if string(got) != want || extra != 0 {
			t.Fatalf("%q: reply %q and %d more, want %q alone", payload, got, extra, want)
		}
	})
}
