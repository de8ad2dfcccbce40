package dnsserver

import (
	"context"
	"net/netip"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnsclient"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/telemetry"
	"github.com/meccdn/meccdn/internal/vclock"
)

// TestAcceptMatrix: a query the RFCs say to refuse gets its error reply
// from the ingress, whatever the chain behind it would have done — a
// zone answer, a cache hit, a stub's upstream exchange — and the chain
// never sees it: the cache neither answers nor stores it and the
// upstream is not asked. Each reply carries the query's opcode and
// question and an OPT of version 0, the chain's Metrics link counts
// it under its rcode and the query's type, and the hub counts it on the
// refused resolution path.
func TestAcceptMatrix(t *testing.T) {
	// The cells of meccdn_dns_resolution_path_total run cache-hit, edge,
	// upstream, refused, error.
	const refusedPath = 3
	const name = "www.accept.test."
	var asked atomic.Int32
	up := scriptedUpstream(t, func(q *dnswire.Message, raw []byte) [][]byte {
		asked.Add(1)
		m := new(dnswire.Message)
		m.SetReply(q)
		m.Answers = []dnswire.RR{&dnswire.A{
			Hdr:  dnswire.RRHeader{Name: name, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 60},
			Addr: netip.MustParseAddr("192.0.2.80"),
		}}
		return [][]byte{mustPack(t, m)}
	})
	tr := &dnsclient.NetTransport{}
	defer tr.Close()
	zone := NewZone("accept.test.")
	if err := zone.AddA(name, 60, netip.MustParseAddr("192.0.2.53")); err != nil {
		t.Fatal(err)
	}
	client := netip.MustParseAddrPort("198.51.100.9:5300")

	for _, row := range []struct {
		name  string
		build func(*dnswire.Message)
		rcode dnswire.Rcode
	}{
		{"opcode STATUS", func(q *dnswire.Message) { q.Opcode = dnswire.OpcodeStatus }, dnswire.RcodeNotImplemented},
		{"OPT VERSION 1", func(q *dnswire.Message) { q.Additionals[0].(*dnswire.OPT).Hdr.TTL |= 1 << 16 }, dnswire.RcodeBadVers},
		{"two OPT records", func(q *dnswire.Message) { q.Additionals = append(q.Additionals, dnswire.NewOPT(1232)) }, dnswire.RcodeFormatError},
		// 10.1.2.0/24 with a fourth address octet; 10.1.3.0/22 with bits 23 and 24 set.
		{"ECS address longer than its prefix", badECS(0, 1, 24, 0, 10, 1, 2, 0), dnswire.RcodeFormatError},
		{"ECS bits past its prefix", badECS(0, 1, 22, 0, 10, 1, 3), dnswire.RcodeFormatError},
	} {
		for _, col := range []struct {
			name    string
			prefill bool          // a well-formed query for the name is cached first
			source  func() Plugin // the link behind the cache
		}{
			{"zone answer", false, func() Plugin { return NewZonePlugin(zone) }},
			{"cache hit", true, func() Plugin { return NewZonePlugin(zone) }},
			{"stub miss", false, func() Plugin {
				stub := NewStub(&dnsclient.Client{Transport: tr, Timeout: 2 * time.Second, Retries: 1})
				stub.Route("accept.test.", up)
				return stub
			}},
		} {
			cache, metrics, hub := NewCache(vclock.NewReal()), NewMetrics(), telemetry.NewHub(nil)
			chain := Chain(metrics, cache, col.source())
			st := &serveScratch{intern: dnswire.NewNameIntern(0)}
			serve := func(build func(*dnswire.Message)) *dnswire.Message {
				q := new(dnswire.Message)
				ecsQuery("WwW.Accept.TEST.", "10.1.2.0/24")(q)
				q.ID = 0x4242
				if build != nil {
					build(q)
				}
				buf, n := serveQuery(context.Background(), chain, hub, st, mustPack(t, q), client, "udp", maxUDPPayload)
				if buf == nil {
					t.Fatalf("%s, %s: no reply", row.name, col.name)
				}
				reply := new(dnswire.Message)
				err := reply.Unpack(buf[:n])
				dnswire.PutBuffer(buf)
				if err != nil {
					t.Fatalf("%s, %s: the reply does not decode: %v", row.name, col.name, err)
				}
				if reply.Opcode != q.Opcode || reply.ID != q.ID || len(reply.Questions) != 1 || reply.Questions[0] != q.Questions[0] {
					t.Errorf("%s, %s: reply opcode %v, ID %#x, question %v to opcode %v, ID %#x, question %v",
						row.name, col.name, reply.Opcode, reply.ID, reply.Questions, q.Opcode, q.ID, q.Questions[0])
				}
				return reply
			}
			if col.prefill {
				serve(nil)
			}
			before, askedBefore := cache.Stats(), asked.Load()
			counted, countedA := metrics.CountByRcode(row.rcode), metrics.CountByType(dnswire.TypeA)
			paths := hub.Path.Values()
			reply := serve(row.build)
			opt, edns := reply.OPT()
			switch {
			case reply.Rcode != row.rcode:
				t.Errorf("%s, %s: rcode %v, want %v", row.name, col.name, reply.Rcode, row.rcode)
			case !edns || opt.Version() != 0:
				t.Errorf("%s, %s: OPT %v, want one of version 0", row.name, col.name, opt)
			case len(reply.Answers) != 0:
				t.Errorf("%s, %s: %d answers", row.name, col.name, len(reply.Answers))
			}
			if after := cache.Stats(); after.Hits != before.Hits || after.Misses != before.Misses || after.Entries != before.Entries {
				t.Errorf("%s, %s: the query reached the cache: %+v, then %+v", row.name, col.name, before, after)
			}
			if n := asked.Load() - askedBefore; n != 0 {
				t.Errorf("%s, %s: the upstream was asked %d times", row.name, col.name, n)
			}
			if n, nA := metrics.CountByRcode(row.rcode)-counted, metrics.CountByType(dnswire.TypeA)-countedA; n != 1 || nA != 1 {
				t.Errorf("%s, %s: Metrics counted the reply %d times under %v, the query %d times under A", row.name, col.name, n, row.rcode, nA)
			}
			paths[refusedPath]++
			if got := hub.Path.Values(); !slices.Equal(got, paths) {
				t.Errorf("%s, %s: resolution paths %v, want %v", row.name, col.name, got, paths)
			}
		}
	}
}

// badECS returns a query edit that replaces the query's ECS option with
// one whose bytes are data.
func badECS(data ...byte) func(*dnswire.Message) {
	return func(q *dnswire.Message) {
		q.Additionals[0].(*dnswire.OPT).Options[0] = &dnswire.GenericOption{OptCode: dnswire.OptionCodeECS, Data: data}
	}
}

// oracleRefusal is the reply accept writes to r, built as a Message: the
// header and question SetReply copies, rcode, and an OPT of version 0
// without options when r carries an OPT.
func oracleRefusal(r *Request, rcode dnswire.Rcode) *dnswire.Message {
	m := new(dnswire.Message)
	m.SetReply(r.Msg)
	m.Rcode = rcode
	if _, ok := r.Msg.OPT(); ok {
		m.SetEDNS(dnswire.DefaultEDNSSize)
	}
	return m
}
