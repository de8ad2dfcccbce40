package mobility

import (
	"net/netip"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/simnet"
)

// twoSites builds ue plus two edge sites, each with an eNB and a DNS
// node wired behind it.
func twoSites(t *testing.T, seed int64) (*simnet.Network, *Manager) {
	t.Helper()
	n := simnet.New(seed)
	n.AddNode("ue")
	for _, s := range []string{"a", "b"} {
		n.AddNode("enb-" + s)
		n.AddNode("dns-" + s)
		n.AddLink("enb-"+s, "dns-"+s, simnet.Constant(time.Millisecond), 0)
		n.Node("dns-" + s).SetHandler(simnet.HandlerFunc(func(site string) func(*simnet.Ctx, simnet.Datagram) {
			return func(ctx *simnet.Ctx, dg simnet.Datagram) { ctx.Reply([]byte(site), 0) }
		}(s)))
	}
	m := NewManager(n, simnet.Constant(10*time.Millisecond), 0)
	for _, s := range []string{"a", "b"} {
		if err := m.AddSite(Site{
			Name: "site-" + s,
			ENB:  "enb-" + s,
			DNS:  netip.AddrPortFrom(n.Node("dns-"+s).Addr, 53),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return n, m
}

func TestAttachSwitchesDNSTarget(t *testing.T) {
	n, m := twoSites(t, 1)
	dns, err := m.Attach("ue", "site-a")
	if err != nil {
		t.Fatal(err)
	}
	resp, _, err := n.Node("ue").Endpoint().Exchange(dns.Addr(), []byte("q"), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "a" {
		t.Errorf("resolved at %q, want a", resp)
	}
	if m.AttachedSite("ue") != "site-a" {
		t.Error("AttachedSite wrong")
	}
	got, ok := m.CurrentDNS("ue")
	if !ok || got != dns {
		t.Error("CurrentDNS mismatch")
	}
}

func TestHandoffMovesBearerAndDNS(t *testing.T) {
	n, m := twoSites(t, 2)
	var events []Event
	m.Observe(func(ev Event) { events = append(events, ev) })

	if _, err := m.Attach("ue", "site-a"); err != nil {
		t.Fatal(err)
	}
	dns, err := m.Handoff("ue", "site-b")
	if err != nil {
		t.Fatal(err)
	}
	if n.HasLink("ue", "enb-a") {
		t.Error("old bearer not torn down")
	}
	if !n.HasLink("ue", "enb-b") {
		t.Error("new bearer missing")
	}
	resp, _, err := n.Node("ue").Endpoint().Exchange(dns.Addr(), []byte("q"), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "b" {
		t.Errorf("post-handoff DNS answered %q", resp)
	}
	if len(events) != 2 || events[1].From != "site-a" || events[1].To != "site-b" {
		t.Errorf("events = %+v", events)
	}
}

func TestHandoffErrors(t *testing.T) {
	_, m := twoSites(t, 3)
	if _, err := m.Handoff("ue", "site-a"); err == nil {
		t.Error("handoff of unattached UE succeeded")
	}
	if _, err := m.Attach("ue", "site-a"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Handoff("ue", "site-a"); err == nil {
		t.Error("handoff to current site succeeded")
	}
	if _, err := m.Attach("ue", "nowhere"); err == nil {
		t.Error("attach to unknown site succeeded")
	}
	if _, err := m.Attach("ghost", "site-a"); err == nil {
		t.Error("attach of unknown UE succeeded")
	}
}

func TestAttachIdempotent(t *testing.T) {
	n, m := twoSites(t, 4)
	if _, err := m.Attach("ue", "site-a"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Attach("ue", "site-a"); err != nil {
		t.Fatal(err)
	}
	if !n.HasLink("ue", "enb-a") {
		t.Error("re-attach broke the bearer")
	}
}

func TestDuplicateSiteRejected(t *testing.T) {
	n, m := twoSites(t, 6)
	err := m.AddSite(Site{Name: "site-a", ENB: "enb-a", DNS: netip.AddrPortFrom(n.Node("dns-a").Addr, 53)})
	if err == nil {
		t.Error("duplicate site accepted")
	}
	if err := m.AddSite(Site{Name: "x", ENB: "ghost"}); err == nil {
		t.Error("site with unknown eNB accepted")
	}
}
