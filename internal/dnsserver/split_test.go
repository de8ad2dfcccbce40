package dnsserver

import (
	"context"
	"net/netip"
	"sync"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnsclient"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/vclock"
)

func TestSplitHorizon(t *testing.T) {
	internalNet := netip.MustParsePrefix("10.96.0.0/16")
	split := &Split{
		IsInternal: func(a netip.Addr) bool { return internalNet.Contains(a) },
		Internal:   answerHandler("10.96.0.1"),
		Public:     answerHandler("203.0.113.1"),
	}
	h := Chain(split)

	rInt := queryFor("svc.cluster.local.")
	rInt.Client = netip.MustParseAddrPort("10.96.3.4:53000")
	resp := Resolve(context.Background(), h, rInt)
	if resp.Answers[0].(*dnswire.A).Addr.String() != "10.96.0.1" {
		t.Error("internal client got public view")
	}

	rPub := queryFor("svc.cluster.local.")
	rPub.Client = netip.MustParseAddrPort("198.51.100.9:53000")
	resp = Resolve(context.Background(), h, rPub)
	if resp.Answers[0].(*dnswire.A).Addr.String() != "203.0.113.1" {
		t.Error("public client got internal view")
	}
}

func TestSplitWithNilHandlersRefuses(t *testing.T) {
	split := &Split{}
	resp := Resolve(context.Background(), Chain(split), queryFor("x.test."))
	if resp.Rcode != dnswire.RcodeRefused {
		t.Errorf("rcode = %v", resp.Rcode)
	}
}

func TestECSPluginAddsClientSubnet(t *testing.T) {
	var seen *dnswire.ECSOption
	inspect := HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		seen, _ = r.Msg.ECS()
		return answerHandler("192.0.2.1").ServeDNS(ctx, w, r)
	})
	ecs := &ECS{}
	h := Chain(ecs, pluginize(inspect))
	Resolve(context.Background(), h, queryFor("ecs.test."))
	if seen == nil {
		t.Fatal("no ECS attached")
	}
	if seen.SourcePrefix != 24 {
		t.Errorf("source prefix = %d", seen.SourcePrefix)
	}
	if seen.Prefix().Masked() != netip.MustParsePrefix("198.51.100.0/24") {
		t.Errorf("prefix = %v", seen.Prefix())
	}
}

func TestECSPluginRespectsExisting(t *testing.T) {
	var seen *dnswire.ECSOption
	inspect := HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		seen, _ = r.Msg.ECS()
		return dnswire.RcodeSuccess, nil
	})
	h := Chain(&ECS{}, pluginize(inspect))
	r := queryFor("ecs.test.")
	opt := r.Msg.SetEDNS(1232)
	opt.Options = append(opt.Options, dnswire.NewECSOption(netip.MustParsePrefix("10.0.0.0/8")))
	Resolve(context.Background(), h, r)
	if seen == nil || seen.SourcePrefix != 8 {
		t.Errorf("existing ECS replaced: %+v", seen)
	}
}

// ecsSpy is a plugin that records the ECS option of every query it
// passes on.
type ecsSpy struct{ seen []netip.Prefix }

func (s *ecsSpy) Name() string { return "ecs-spy" }

func (s *ecsSpy) ServeDNS(ctx context.Context, w ResponseWriter, r *Request, next Handler) (dnswire.Rcode, error) {
	var p netip.Prefix
	if ecs, ok := r.Msg.ECS(); ok {
		p = ecs.Prefix()
	}
	s.seen = append(s.seen, p)
	return next.ServeDNS(ctx, w, r)
}

// TestECSPluginKeepsOPTLessReplyOPTLess (RFC 6891 §7): the ECS plugin
// gives an OPT-less query an OPT to carry its ECS option upstream, and
// the cache keys on that option, but the client still gets no OPT back,
// on the miss and on the hit; a query that came with an OPT gets one.
func TestECSPluginKeepsOPTLessReplyOPTLess(t *testing.T) {
	zone := NewZone("zone.test.")
	if err := zone.AddA("www.zone.test.", 60, netip.MustParseAddr("192.0.2.2")); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var upstream []netip.Prefix // what the stub's upstream was asked with, under mu
	up := scriptedUpstream(t, 0, func(q *dnswire.Message, _ []byte) [][]byte {
		var p netip.Prefix
		m := new(dnswire.Message)
		m.SetReply(q)
		m.Answers = []dnswire.RR{&dnswire.A{
			Hdr:  dnswire.RRHeader{Name: q.Question().Name, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 30},
			Addr: netip.MustParseAddr("192.0.2.3"),
		}}
		if ecs, ok := q.ECS(); ok {
			p = ecs.Prefix()
			echo := ecs.Echo(ecs.SourcePrefix)
			m.SetEDNS(dnswire.DefaultEDNSSize).Options = []dnswire.EDNSOption{&echo}
		}
		mu.Lock()
		upstream = append(upstream, p)
		mu.Unlock()
		wire, err := m.Pack()
		if err != nil {
			t.Error(err)
		}
		return [][]byte{wire}
	})
	tr := &dnsclient.NetTransport{}
	defer tr.Close()
	stub := NewStub(&dnsclient.Client{Transport: tr, Timeout: 2 * time.Second, Retries: 2})
	stub.Route("stub.test.", up)
	client := netip.MustParsePrefix("198.51.100.0/24") // askWire's client, at the plugin's /24
	for _, c := range []struct {
		name, qname string
		backend     Plugin
	}{
		{"zone", "www.zone.test.", NewZonePlugin(zone)},
		{"stub", "www.stub.test.", stub},
	} {
		for _, order := range [][]bool{{false, false, true}, {true, true, false}} {
			spy, cache := &ecsSpy{}, NewCache(&vclock.Fixed{})
			mu.Lock()
			upstream = nil
			mu.Unlock()
			h := Chain(&ECS{}, cache, spy, c.backend)
			for i, edns := range order {
				resp := askWire(t, h, c.qname, edns, nil, 1)
				if _, has := resp.OPT(); has != edns || !edns && len(resp.Additionals) != 0 {
					t.Errorf("%s, order %v, query %d: OPT in the query %v, in the reply %v (%d additional records)",
						c.name, order, i, edns, has, len(resp.Additionals))
				}
			}
			if st := cache.Stats(); st.Misses != 1 || st.Hits != 2 || len(spy.seen) != 1 || spy.seen[0] != client {
				t.Errorf("%s, order %v: cache stats %+v, the chain past the cache asked with %v; want one miss asked with %v",
					c.name, order, st, spy.seen, client)
			}
			mu.Lock()
			if c.name == "stub" && (len(upstream) != 1 || upstream[0] != client) {
				t.Errorf("%s, order %v: the upstream was asked with %v, want once with %v", c.name, order, upstream, client)
			}
			mu.Unlock()
		}
	}
}
