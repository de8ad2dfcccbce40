package resolver

import (
	"context"
	"errors"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnsclient"
	"github.com/meccdn/meccdn/internal/dnsserver"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/simnet"
)

// lameFixture builds a root that delegates to name servers that do
// not exist (no glue, unresolvable NS names): a lame delegation.
func lameFixture(t *testing.T) (*Resolver, *simnet.Network) {
	t.Helper()
	n := simnet.New(80)
	n.AddNode("ldns")
	n.AddNode("root")
	n.AddLink("ldns", "root", simnet.Constant(time.Millisecond), 0)
	root := dnsserver.NewZone(".")
	if err := root.Add(&dnswire.NS{
		Hdr: dnswire.RRHeader{Name: "lame.test.", Type: dnswire.TypeNS, Class: dnswire.ClassINET, TTL: 300},
		NS:  "ns.ghost.invalid.",
	}); err != nil {
		t.Fatal(err)
	}
	dnsserver.Attach(n.Node("root"), dnsserver.Chain(dnsserver.NewZonePlugin(root)), nil, nil)
	client := &dnsclient.Client{Transport: &dnsclient.SimTransport{Endpoint: n.Node("ldns").Endpoint(), Timeout: 20 * time.Millisecond}}
	client.SetRand(rand.New(rand.NewSource(80)))
	return New(client, n.Clock, netip.AddrPortFrom(n.Node("root").Addr, 53)), n
}

func TestLameDelegationSurfacesError(t *testing.T) {
	r, _ := lameFixture(t)
	_, err := r.resolve(context.Background(), "www.lame.test.", dnswire.TypeA, nil)
	if !errors.Is(err, ErrLame) {
		t.Errorf("err = %v, want ErrLame", err)
	}
}

func TestResolverAsPluginReportsServfail(t *testing.T) {
	r, _ := lameFixture(t)
	q := new(dnswire.Message)
	q.SetQuestion("www.lame.test.", dnswire.TypeA)
	resp := dnsserver.Resolve(context.Background(), dnsserver.Chain(r), &dnsserver.Request{Msg: q})
	if resp.Rcode != dnswire.RcodeServerFailure {
		t.Errorf("rcode = %v", resp.Rcode)
	}
}

func TestUnreachableRootTimesOutCleanly(t *testing.T) {
	n := simnet.New(81)
	n.AddNode("ldns")
	n.AddNode("root")
	n.AddLink("ldns", "root", simnet.Constant(time.Millisecond), 1.0) // black hole
	client := &dnsclient.Client{Transport: &dnsclient.SimTransport{Endpoint: n.Node("ldns").Endpoint(), Timeout: 10 * time.Millisecond}}
	client.SetRand(rand.New(rand.NewSource(81)))
	r := New(client, n.Clock, netip.AddrPortFrom(n.Node("root").Addr, 53))
	if _, err := r.resolve(context.Background(), "x.test.", dnswire.TypeA, nil); err == nil {
		t.Error("resolution through a black hole succeeded")
	}
}
