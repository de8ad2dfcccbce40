package dnsserver

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"github.com/meccdn/meccdn/internal/dnswire"
)

func testZone(t *testing.T) *Zone {
	t.Helper()
	z := NewZone("mycdn.ciab.test.")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(z.AddA("edge1.mycdn.ciab.test.", 60, netip.MustParseAddr("10.96.0.11")))
	must(z.AddA("edge1.mycdn.ciab.test.", 60, netip.MustParseAddr("10.96.0.12")))
	must(z.AddCNAME("video.demo1.mycdn.ciab.test.", 300, "edge1.mycdn.ciab.test."))
	must(z.AddCNAME("chain1.mycdn.ciab.test.", 300, "chain2.mycdn.ciab.test."))
	must(z.AddCNAME("chain2.mycdn.ciab.test.", 300, "edge1.mycdn.ciab.test."))
	must(z.AddCNAME("external.mycdn.ciab.test.", 300, "cdn.elsewhere.example."))
	must(z.Add(&dnswire.TXT{
		Hdr: dnswire.RRHeader{Name: "edge1.mycdn.ciab.test.", Type: dnswire.TypeTXT, Class: dnswire.ClassINET, TTL: 60},
		Txt: []string{"site=edge1"},
	}))
	must(z.AddA("*.wild.mycdn.ciab.test.", 60, netip.MustParseAddr("10.96.0.99")))
	// Delegation: child.mycdn.ciab.test → ns.child with glue.
	must(z.Add(&dnswire.NS{
		Hdr: dnswire.RRHeader{Name: "child.mycdn.ciab.test.", Type: dnswire.TypeNS, Class: dnswire.ClassINET, TTL: 3600},
		NS:  "ns.child.mycdn.ciab.test.",
	}))
	must(z.AddA("ns.child.mycdn.ciab.test.", 3600, netip.MustParseAddr("10.96.0.200")))
	return z
}

func TestZoneLookupExact(t *testing.T) {
	z := testZone(t)
	res, ans, _ := z.View().Lookup("edge1.mycdn.ciab.test.", dnswire.TypeA, nil)
	if res != LookupSuccess || len(ans) != 2 {
		t.Fatalf("res=%v answers=%d", res, len(ans))
	}
}

func TestZoneLookupCNAMEChase(t *testing.T) {
	z := testZone(t)
	res, ans, _ := z.View().Lookup("video.demo1.mycdn.ciab.test.", dnswire.TypeA, nil)
	if res != LookupSuccess {
		t.Fatalf("res = %v", res)
	}
	// CNAME + 2 A records.
	if len(ans) != 3 {
		t.Fatalf("answers = %d: %v", len(ans), ans)
	}
	if ans[0].RR.Header().Type != dnswire.TypeCNAME {
		t.Errorf("first answer type = %v", ans[0].RR.Header().Type)
	}
}

func TestZoneLookupMultiLinkChain(t *testing.T) {
	z := testZone(t)
	res, ans, _ := z.View().Lookup("chain1.mycdn.ciab.test.", dnswire.TypeA, nil)
	if res != LookupSuccess || len(ans) != 4 {
		t.Fatalf("res=%v answers=%d", res, len(ans))
	}
}

func TestZoneLookupExternalCNAME(t *testing.T) {
	z := testZone(t)
	res, ans, _ := z.View().Lookup("external.mycdn.ciab.test.", dnswire.TypeA, nil)
	if res != LookupSuccess || len(ans) != 1 {
		t.Fatalf("res=%v answers=%d", res, len(ans))
	}
	cn, ok := ans[0].RR.(*dnswire.CNAME)
	if !ok || cn.Target != "cdn.elsewhere.example." {
		t.Errorf("answer = %v", ans[0])
	}
}

func TestZoneLookupNXDomain(t *testing.T) {
	z := testZone(t)
	res, _, auth := z.View().Lookup("missing.mycdn.ciab.test.", dnswire.TypeA, nil)
	if res != LookupNXDomain {
		t.Fatalf("res = %v", res)
	}
	if len(auth) != 1 || auth[0].RR.Header().Type != dnswire.TypeSOA {
		t.Errorf("authority = %v", auth)
	}
}

func TestZoneLookupNoData(t *testing.T) {
	z := testZone(t)
	res, _, auth := z.View().Lookup("edge1.mycdn.ciab.test.", dnswire.TypeAAAA, nil)
	if res != LookupNoData {
		t.Fatalf("res = %v", res)
	}
	if len(auth) != 1 || auth[0].RR.Header().Type != dnswire.TypeSOA {
		t.Errorf("authority = %v", auth)
	}
}

func TestZoneLookupWildcard(t *testing.T) {
	z := testZone(t)
	res, ans, _ := z.View().Lookup("anything.wild.mycdn.ciab.test.", dnswire.TypeA, nil)
	if res != LookupSuccess || len(ans) != 1 {
		t.Fatalf("res=%v answers=%v", res, ans)
	}
	if ans[0].Name() != "anything.wild.mycdn.ciab.test." {
		t.Errorf("wildcard owner not synthesized: %q", ans[0].Name())
	}
	if ans[0].RR.Header().Name != "*.wild.mycdn.ciab.test." {
		t.Errorf("the view's wildcard record was renamed to %q", ans[0].RR.Header().Name)
	}
	// The stored wildcard record must not be mutated by synthesis.
	res2, ans2, _ := z.View().Lookup("other.wild.mycdn.ciab.test.", dnswire.TypeA, nil)
	if res2 != LookupSuccess || ans2[0].Name() != "other.wild.mycdn.ciab.test." {
		t.Errorf("second wildcard lookup = %v %v", res2, ans2)
	}
}

func TestZoneLookupDelegation(t *testing.T) {
	z := testZone(t)
	res, _, auth := z.View().Lookup("deep.child.mycdn.ciab.test.", dnswire.TypeA, nil)
	if res != LookupDelegation {
		t.Fatalf("res = %v", res)
	}
	var ns, glue int
	for _, rr := range auth {
		switch rr.RR.Header().Type {
		case dnswire.TypeNS:
			ns++
		case dnswire.TypeA:
			glue++
		}
	}
	if ns != 1 || glue != 1 {
		t.Errorf("referral ns=%d glue=%d", ns, glue)
	}
}

func TestZoneRejectsOutOfZoneRecord(t *testing.T) {
	z := testZone(t)
	if err := z.AddA("elsewhere.example.", 60, netip.MustParseAddr("192.0.2.1")); err == nil {
		t.Error("out-of-zone record accepted")
	}
}

// TestZoneUpdateIsOneRevision: a batch of mutations publishes one view
// with one serial bump; a batch that fails or changes nothing publishes
// none; an explicit SOA's serial is adopted verbatim.
func TestZoneUpdateIsOneRevision(t *testing.T) {
	z := testZone(t)
	before, serial := z.View(), z.View().Serial()
	if err := z.Update(func(b *ZoneBuilder) error {
		if err := b.AddA("edge1.mycdn.ciab.test.", 60, netip.MustParseAddr("10.96.0.13")); err != nil {
			return err
		}
		return b.AddA("new.mycdn.ciab.test.", 60, netip.MustParseAddr("10.96.0.14"))
	}); err != nil {
		t.Fatal(err)
	}
	if got := z.View().Serial(); got != serial+1 {
		t.Errorf("serial after one batch = %d, want %d", got, serial+1)
	}
	if res, ans, _ := before.Lookup("new.mycdn.ciab.test.", dnswire.TypeA, nil); res != LookupNXDomain || ans != nil {
		t.Error("the batch changed a view published before it")
	}
	_, old, _ := before.Lookup("edge1.mycdn.ciab.test.", dnswire.TypeA, nil)
	if _, ans, _ := z.View().Lookup("edge1.mycdn.ciab.test.", dnswire.TypeA, nil); len(ans) != len(old)+1 || ans[len(old)].RR.(*dnswire.A).Addr != netip.MustParseAddr("10.96.0.13") {
		t.Errorf("edge1 A after the batch = %v, want %v then 10.96.0.13", ans, old)
	}
	if res, _, _ := z.View().Lookup("edge1.mycdn.ciab.test.", dnswire.TypeTXT, nil); res != LookupSuccess {
		t.Error("the batch lost a record it did not touch")
	}

	published := z.View()
	if err := z.Update(func(b *ZoneBuilder) error {
		if err := b.AddA("newer.mycdn.ciab.test.", 60, netip.MustParseAddr("10.96.0.15")); err != nil {
			return err
		}
		return b.AddA("elsewhere.example.", 60, netip.MustParseAddr("192.0.2.1"))
	}); err == nil {
		t.Error("a batch with an out-of-zone record succeeded")
	}
	if err := z.Update(func(*ZoneBuilder) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if z.View() != published {
		t.Error("a failed or empty batch published a view")
	}

	soa := z.View().soa.Clone().(*dnswire.SOA)
	soa.Serial = 2020110401
	if err := z.Update(func(b *ZoneBuilder) error { b.SetSOA(soa); return nil }); err != nil {
		t.Fatal(err)
	}
	if got := z.View().Serial(); got != 2020110401 {
		t.Errorf("serial after SetSOA = %d, want 2020110401", got)
	}
}

// TestZoneReplace: Replace publishes only when the records, or the SOA
// apart from its serial, differ; the new serial is the incoming one
// when it is ahead in RFC 1982 arithmetic and current+1 otherwise.
func TestZoneReplace(t *testing.T) {
	const (
		www  = "www 60 IN A 192.0.2.1\n"
		www2 = "www 60 IN A 192.0.2.2\n"
		max  = 1<<32 - 1
	)
	zoneText := func(serial uint32, refresh int, records string) string {
		return fmt.Sprintf("@ 60 IN SOA ns hostmaster %d %d 60 60 60\n", serial, refresh) + records
	}
	for _, tc := range []struct {
		name      string
		cur, from string
		published bool
		serial    uint32
	}{
		{"identical", zoneText(5, 60, www), zoneText(5, 60, www), false, 5},
		{"identical, stale serial", zoneText(5, 60, www), zoneText(3, 60, www), false, 5},
		{"identical, advanced serial", zoneText(5, 60, www), zoneText(9, 60, www), false, 5},
		{"same records in another order", zoneText(5, 60, www+www2), zoneText(5, 60, www2+www), false, 5},
		{"changed records, same serial", zoneText(5, 60, www), zoneText(5, 60, www2), true, 6},
		{"changed records, stale serial", zoneText(5, 60, www), zoneText(3, 60, www2), true, 6},
		{"changed records, advanced serial", zoneText(5, 60, www), zoneText(9, 60, www2), true, 9},
		{"changed SOA field", zoneText(5, 60, www), zoneText(5, 120, www), true, 6},
		{"wrap: ahead across zero", zoneText(max, 60, www), zoneText(2, 60, www2), true, 2},
		{"wrap: behind across zero", zoneText(2, 60, www), zoneText(max, 60, www2), true, 3},
		{"wrap: current+1 is zero", zoneText(max, 60, www), zoneText(max, 60, www2), true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parse := func(text string) *Zone {
				z, err := ParseZone("r.test.", strings.NewReader(text))
				if err != nil {
					t.Fatal(err)
				}
				return z
			}
			z := parse(tc.cur)
			before := z.View()
			from := parse(tc.from)
			if got := z.Replace(from); got != tc.published {
				t.Errorf("Replace = %v, want %v", got, tc.published)
			}
			if (z.View() != before) != tc.published {
				t.Errorf("view replaced = %v, want %v", z.View() != before, tc.published)
			}
			if got := z.View().Serial(); got != tc.serial {
				t.Errorf("serial = %d, want %d", got, tc.serial)
			}
			if !sameRecords(z.View(), from.View()) {
				t.Error("records after Replace differ from the incoming zone's")
			}
		})
	}
}

func TestZoneCNAMELoopTerminates(t *testing.T) {
	z := NewZone("loop.test.")
	_ = z.AddCNAME("a.loop.test.", 60, "b.loop.test.")
	_ = z.AddCNAME("b.loop.test.", 60, "a.loop.test.")
	res, ans, _ := z.View().Lookup("a.loop.test.", dnswire.TypeA, nil)
	if res != LookupSuccess {
		t.Fatalf("res = %v", res)
	}
	if len(ans) > 4 {
		t.Errorf("loop produced %d answers", len(ans))
	}
}

func TestZonePluginServesAuthoritative(t *testing.T) {
	p := NewZonePlugin(testZone(t))
	h := Chain(p)
	q := new(dnswire.Message)
	q.SetQuestion("video.demo1.mycdn.ciab.test.", dnswire.TypeA)
	resp := Resolve(context.Background(), h, &Request{Msg: q, Transport: "test"})
	if resp.Rcode != dnswire.RcodeSuccess || !resp.Authoritative {
		t.Fatalf("rcode=%v aa=%v", resp.Rcode, resp.Authoritative)
	}
	if len(resp.Answers) != 3 {
		t.Errorf("answers = %d", len(resp.Answers))
	}
}

func TestZonePluginFallsThrough(t *testing.T) {
	p := NewZonePlugin(testZone(t))
	h := Chain(p)
	q := new(dnswire.Message)
	q.SetQuestion("www.unrelated.example.", dnswire.TypeA)
	resp := Resolve(context.Background(), h, &Request{Msg: q, Transport: "test"})
	if resp.Rcode != dnswire.RcodeRefused {
		t.Errorf("rcode = %v, want REFUSED fallthrough", resp.Rcode)
	}
}

func TestZonePluginLongestMatch(t *testing.T) {
	parent := NewZone("test.")
	_ = parent.AddA("x.test.", 60, netip.MustParseAddr("192.0.2.1"))
	child := NewZone("sub.test.")
	_ = child.AddA("x.sub.test.", 60, netip.MustParseAddr("192.0.2.2"))
	p := NewZonePlugin(parent, child)
	q := new(dnswire.Message)
	q.SetQuestion("x.sub.test.", dnswire.TypeA)
	resp := Resolve(context.Background(), Chain(p), &Request{Msg: q})
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %v", resp.Answers)
	}
	if got := resp.Answers[0].(*dnswire.A).Addr.String(); got != "192.0.2.2" {
		t.Errorf("answer from wrong zone: %s", got)
	}
}

func TestZonePluginEchoesECSScope(t *testing.T) {
	p := NewZonePlugin(testZone(t))
	q := new(dnswire.Message)
	q.SetQuestion("edge1.mycdn.ciab.test.", dnswire.TypeA)
	opt := q.SetEDNS(1232)
	opt.Options = append(opt.Options, dnswire.NewECSOption(netip.MustParsePrefix("203.0.113.0/24")))
	resp := Resolve(context.Background(), Chain(p), &Request{Msg: q})
	ecs, ok := resp.ECS()
	if !ok {
		t.Fatal("response lacks ECS")
	}
	// Static zone data is identical for every subnet, so the echoed
	// scope must be 0 (RFC 7871 §7.2.2 semantics: cacheable for all).
	if ecs.ScopePrefix != 0 {
		t.Errorf("scope = %d, want 0", ecs.ScopePrefix)
	}
	if ecs.SourcePrefix != 24 {
		t.Errorf("source = %d, want 24", ecs.SourcePrefix)
	}
}

func TestParseZone(t *testing.T) {
	const text = `
; the MEC-CDN demo zone
@ 3600 IN SOA ns hostmaster 2020110401 7200 3600 1209600 300
@ 3600 IN NS ns
ns 3600 IN A 10.96.0.2
edge1 60 IN A 10.96.0.11
edge1 60 IN TXT "site=edge1"
video.demo1 300 IN CNAME edge1
alias 300 IN CNAME cdn.elsewhere.example.
mail 300 IN MX 10 mx1
_dns._udp 300 IN SRV 0 5 53 ns
six 60 IN AAAA fd00::1
rev 60 IN PTR edge1
`
	z, err := ParseZone("mycdn.ciab.test.", strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if z.View().Serial() != 2020110401 {
		t.Errorf("SOA serial = %d", z.View().Serial())
	}
	res, ans, _ := z.View().Lookup("video.demo1.mycdn.ciab.test.", dnswire.TypeA, nil)
	if res != LookupSuccess || len(ans) != 2 {
		t.Fatalf("parsed zone lookup: res=%v ans=%v", res, ans)
	}
	res, ans, _ = z.View().Lookup("mail.mycdn.ciab.test.", dnswire.TypeMX, nil)
	if res != LookupSuccess || ans[0].RR.(*dnswire.MX).MX != "mx1.mycdn.ciab.test." {
		t.Errorf("MX = %v", ans)
	}
	res, ans, _ = z.View().Lookup("_dns._udp.mycdn.ciab.test.", dnswire.TypeSRV, nil)
	if res != LookupSuccess || ans[0].RR.(*dnswire.SRV).Port != 53 {
		t.Errorf("SRV = %v", ans)
	}
}

// TestParseZoneErrors: a line that does not parse, or a record that
// could never be packed into a reply, fails the whole file.
func TestParseZoneErrors(t *testing.T) {
	bad := []string{
		"edge1 60 IN A not-an-ip",
		"edge1 60 IN AAAA 10.0.0.1",
		"edge1 60 IN WEIRD foo",
		"edge1 60 IN MX ten mx1",
		"edge1",
		"edge1 60 IN SRV 1 2 3",
		"@ 60 IN CNAME a..b.",
		`txt 60 IN TXT "` + strings.Repeat("x", 300) + `"`,
		strings.Repeat("x", 70) + " 60 IN A 192.0.2.1",
		"a..b 60 IN A 192.0.2.1",
	}
	for _, line := range bad {
		if _, err := ParseZone("z.test.", strings.NewReader("www 60 IN A 192.0.2.1\n"+line)); err == nil {
			t.Errorf("ParseZone accepted %q", line)
		}
	}
	limits := strings.Repeat("x", 63) + " 60 IN A 192.0.2.1\n" +
		`txt 60 IN TXT "` + strings.Repeat("x", 255) + `"`
	if _, err := ParseZone("z.test.", strings.NewReader(limits)); err != nil {
		t.Errorf("ParseZone refused a 63-octet label or a 255-octet TXT string: %v", err)
	}
}

func TestZoneNames(t *testing.T) {
	z := testZone(t)
	names := z.Names()
	if len(names) == 0 {
		t.Fatal("no names")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Fatal("names not sorted")
		}
	}
}

// FuzzParseZone: whatever zone text ParseZone accepts, every record the
// zone holds packs into a reply and unpacks to a record that packs to
// the same bytes — a published zone can answer every name it holds.
func FuzzParseZone(f *testing.F) {
	f.Add("@ 60 IN SOA ns hostmaster 2020110401 7200 3600 1209600 60\nwww 60 IN A 192.0.2.1\n")
	f.Add("alias 300 IN CNAME cdn.elsewhere.example.\nmail MX 10 mx1\n_dns._udp SRV 0 5 53 ns\nsix AAAA fd00::1\nrev PTR www\nsub NS ns.sub\n")
	f.Add(`txt 60 IN TXT "site=edge1" "" plain` + "\n")
	f.Add("a\\.b 60 IN A 192.0.2.1\nWWW.Fz.Test. 60 A 192.0.2.2 ; comment\n")
	f.Fuzz(func(t *testing.T, text string) {
		z, err := ParseZone("fz.test.", strings.NewReader(text))
		if err != nil {
			return
		}
		check := func(rr dnswire.RR) {
			wire, err := (&dnswire.Message{Answers: []dnswire.RR{rr}}).Pack()
			if err != nil {
				t.Fatalf("the zone holds %q, which does not pack: %v", rr, err)
			}
			var m dnswire.Message
			if err := m.Unpack(wire); err != nil || len(m.Answers) != 1 {
				t.Fatalf("%q packs to bytes that do not unpack: %v", rr, err)
			}
			again, err := m.Pack()
			if err != nil || !bytes.Equal(again, wire) {
				t.Fatalf("%q does not round-trip: %x, then %x (%v)", rr, wire, again, err)
			}
		}
		eachRR(z.View(), check)
		check(z.View().soa)
	})
}
