package dnsserver

import (
	"context"
	"errors"
	"net/netip"
	"sync"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnsclient"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/vclock"
)

// askWire serves a query for name — with an OPT when edns, and the ECS
// option ecs when that is not nil — through h as an ingress does, and
// returns the reply decoded, which must hold answers answers.
func askWire(t *testing.T, h Handler, name string, edns bool, ecs *dnswire.ECSOption, answers int) *dnswire.Message {
	t.Helper()
	q := new(dnswire.Message)
	q.SetQuestion(name, dnswire.TypeA)
	if edns || ecs != nil {
		opt := q.SetEDNS(dnswire.DefaultEDNSSize)
		if ecs != nil {
			opt.Options = append(opt.Options, ecs)
		}
	}
	pkt, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	st := &serveScratch{intern: dnswire.NewNameIntern(0)}
	buf, n := serveQuery(context.Background(), h, nil, st, pkt, netip.MustParseAddrPort("198.51.100.7:4242"), "udp", maxUDPPayload)
	if buf == nil {
		t.Fatalf("%s: no reply", name)
	}
	defer dnswire.PutBuffer(buf)
	resp := new(dnswire.Message)
	if err := resp.Unpack(buf[:n]); err != nil || len(resp.Answers) != answers {
		t.Fatalf("%s: reply %v, %d answers", name, err, len(resp.Answers))
	}
	return resp
}

// TestCacheOPTFollowsAsker (RFC 6891 §7): a reply carries an OPT record
// exactly when its query did. The cache stores one image per key,
// whichever query filled it, so a hit adds a bare OPT to an image
// without one, or cuts the image's OPT off, to follow its own asker, in
// either order; and a zone answers an OPT-only query with an OPT.
func TestCacheOPTFollowsAsker(t *testing.T) {
	upstream := HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		m := new(dnswire.Message)
		m.SetReply(r.Msg)
		m.Answers = []dnswire.RR{&dnswire.A{
			Hdr:  dnswire.RRHeader{Name: r.Name(), Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 30},
			Addr: netip.MustParseAddr("192.0.2.1"),
		}}
		if _, ok := r.Msg.OPT(); ok {
			m.SetEDNS(dnswire.DefaultEDNSSize)
		}
		return m.Rcode, w.WriteMsg(m)
	})
	zone := NewZone("zone.test.")
	if err := zone.AddA("www.zone.test.", 60, netip.MustParseAddr("192.0.2.2")); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, qname string
		backend     Plugin
	}{
		{"upstream", "opt.test.", pluginize(upstream)},
		{"zone", "www.zone.test.", NewZonePlugin(zone)},
	} {
		for _, order := range [][]bool{{true, false, true}, {false, true, false}} {
			cache := NewCache(&vclock.Fixed{})
			h := Chain(cache, c.backend)
			for i, edns := range order {
				resp := askWire(t, h, c.qname, edns, nil, 1)
				if opt, has := resp.OPT(); has != edns || has && opt.UDPSize() != dnswire.DefaultEDNSSize {
					t.Errorf("%s, order %v, query %d: OPT in the query %v, in the reply %v", c.name, order, i, edns, has)
				}
			}
			if st := cache.Stats(); st.Misses != 1 || st.Hits != 2 {
				t.Errorf("%s, order %v: cache stats %+v: one entry should serve both kinds of asker", c.name, order, st)
			}
		}
	}
}

// TestSynthesizedReplyFollowsAsker (RFC 6891 §7, RFC 7871 §7.2.1): the
// replies the server writes itself when no plugin answered — the chain's
// REFUSED fall-through, SERVFAIL for a handler's error, and LoadShed's
// refusal once its bucket is empty — carry an OPT exactly when the query
// did, and echo an ECS option at scope 0.
func TestSynthesizedReplyFollowsAsker(t *testing.T) {
	failing := pluginize(HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		return dnswire.RcodeSuccess, errors.New("handler failed")
	}))
	shed := &LoadShed{Clock: &vclock.Fixed{}, MaxQueries: 1}
	shed.overloaded() // the bucket's one token; a fixed clock never refills it
	subnet := netip.MustParsePrefix("10.1.2.0/24")
	for _, c := range []struct {
		name  string
		h     Handler
		rcode dnswire.Rcode
	}{
		{"REFUSED fall-through", Chain(), dnswire.RcodeRefused},
		{"SERVFAIL on error", Chain(failing), dnswire.RcodeServerFailure},
		{"LoadShed refusal", Chain(shed, failing), dnswire.RcodeRefused},
	} {
		for _, q := range []struct {
			with string
			edns bool
			ecs  *dnswire.ECSOption
		}{{"no OPT", false, nil}, {"OPT", true, nil}, {"OPT+ECS", true, dnswire.NewECSOption(subnet)}} {
			resp := askWire(t, c.h, "synth.test.", q.edns, q.ecs, 0)
			opt, has := resp.OPT()
			echo, echoed := resp.ECS()
			switch {
			case resp.Rcode != c.rcode:
				t.Errorf("%s, %s: rcode %v, want %v", c.name, q.with, resp.Rcode, c.rcode)
			case has != q.edns || has && opt.UDPSize() != dnswire.DefaultEDNSSize:
				t.Errorf("%s, %s: OPT in the reply %v, want %v", c.name, q.with, has, q.edns)
			case echoed != (q.ecs != nil) || echoed && (echo.Prefix() != subnet || echo.Family != 1 || echo.ScopePrefix != 0):
				t.Errorf("%s, %s: ECS echo %v, want %v at scope 0", c.name, q.with, echo, q.ecs)
			}
		}
	}
}

// TestECSClampedAtIngress (RFC 7871 §7.1.1): a client that discloses
// more of its address than the resolver itself would is passed on, and
// cached, at /24 (/56 for IPv6), so two /32s in one /24 share an entry;
// the reply still echoes the family, source length and address the
// client sent, with the answer's scope. A shorter source is left alone.
func TestECSClampedAtIngress(t *testing.T) {
	var forwarded []netip.Prefix
	upstream := HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		wire, err := r.Msg.Pack() // what Stub and Forward send on
		if err != nil {
			return dnswire.RcodeServerFailure, err
		}
		var sent dnswire.Message
		if err := sent.Unpack(wire); err != nil {
			return dnswire.RcodeServerFailure, err
		}
		if ecs, ok := sent.ECS(); ok {
			forwarded = append(forwarded, ecs.Prefix())
		}
		return ecsAnswerHandler("192.0.2.9", echoSourceScope).ServeDNS(ctx, w, r)
	})
	h := Chain(NewCache(&vclock.Fixed{}), pluginize(upstream))
	for _, c := range []struct {
		client string
		scope  uint8
	}{
		{"10.1.2.3/32", 24},
		{"10.1.2.77/32", 24}, // a hit on the /24 entry
		{"10.1.2.0/24", 24},  // and again
		{"2001:db8:1:2:3::1/128", 56},
		{"10.9.0.0/16", 16},
	} {
		p := netip.MustParsePrefix(c.client)
		resp := askWire(t, h, "clamp.test.", true, dnswire.NewECSOption(p), 1)
		echo, ok := resp.ECS()
		if !ok || echo.Prefix() != p || echo.ScopePrefix != c.scope || echo.Family != dnswire.NewECSOption(p).Family {
			t.Errorf("%s: echo %v, want the client's subnet with scope %d", c.client, echo, c.scope)
		}
	}
	want := []netip.Prefix{
		netip.MustParsePrefix("10.1.2.0/24"),
		netip.MustParsePrefix("2001:db8:1::/56"),
		netip.MustParsePrefix("10.9.0.0/16"),
	}
	if len(forwarded) != len(want) {
		t.Fatalf("forwarded %v, want %v", forwarded, want)
	}
	for i := range want {
		if forwarded[i] != want[i] {
			t.Errorf("forwarded %v, want %v", forwarded, want)
		}
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
	up := scriptedUpstream(t, func(q *dnswire.Message, _ []byte) [][]byte {
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
