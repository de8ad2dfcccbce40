package dnsserver

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/telemetry"
)

// ZoneView is one immutable snapshot of a zone's record set. Readers
// obtain a view with Zone.View and use it without locking: nothing
// reachable from a published view is ever mutated. Writers build the
// next view copy-on-write and publish it atomically — the RCU pattern
// the whole query-time read plane follows.
type ZoneView struct {
	// Origin is the canonical apex name.
	Origin string
	soa    *dnswire.SOA
	// rrs maps canonical owner name → type → records.
	rrs map[string]map[dnswire.Type][]dnswire.RR
}

// Serial returns the view's SOA serial.
func (v *ZoneView) Serial() uint32 {
	if v.soa == nil {
		return 0
	}
	return v.soa.Serial
}

// Names returns every owner name in the view, sorted.
func (v *ZoneView) Names() []string {
	names := make([]string, 0, len(v.rrs))
	for n := range v.rrs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Zone is an in-memory authoritative zone. It supports exact matches,
// CNAME indirection, wildcard owners ("*.<name>"), delegations via NS
// records below the apex (with glue), and RFC 2308 negative answers
// carrying the SOA.
//
// The record set lives in an immutable ZoneView published through an
// atomic pointer: Lookup never takes a lock, and mutations
// (Add/Update/Replace) copy-on-write off the current view, bump
// the SOA serial, and publish the next view — so a zone can be rebuilt
// while serving with zero blocked or dropped queries.
type Zone struct {
	// Origin is the canonical apex name.
	Origin string

	view atomic.Pointer[ZoneView]
	// wmu serializes writers; readers never touch it.
	wmu sync.Mutex
}

// NewZone creates an empty zone rooted at origin with a generated SOA.
func NewZone(origin string) *Zone {
	origin = dnswire.CanonicalName(origin)
	z := &Zone{Origin: origin}
	soa := &dnswire.SOA{
		Hdr:    dnswire.RRHeader{Name: origin, Type: dnswire.TypeSOA, Class: dnswire.ClassINET, TTL: 3600},
		NS:     "ns." + strings.TrimPrefix(origin, "."),
		Mbox:   "hostmaster." + strings.TrimPrefix(origin, "."),
		Serial: 1, Refresh: 7200, Retry: 3600, Expire: 1209600, MinTTL: 60,
	}
	v := &ZoneView{
		Origin: origin,
		soa:    soa,
		rrs: map[string]map[dnswire.Type][]dnswire.RR{
			origin: {dnswire.TypeSOA: {soa}},
		},
	}
	z.view.Store(v)
	return z
}

// View returns the current immutable snapshot. The returned view is
// safe for concurrent use and stays coherent (records and SOA serial
// from one publish) for as long as the caller holds it.
func (z *Zone) View() *ZoneView { return z.view.Load() }

// Names returns every owner name in the zone, sorted.
func (z *Zone) Names() []string { return z.View().Names() }

// Add inserts a record and publishes a new revision (serial bumped by
// one). The owner must be within the zone.
func (z *Zone) Add(rr dnswire.RR) error {
	return z.Update(func(b *ZoneBuilder) error { return b.Add(rr) })
}

// AddA is a convenience for the most common record in this repository.
func (z *Zone) AddA(name string, ttl uint32, addr netip.Addr) error {
	return z.Add(&dnswire.A{
		Hdr:  dnswire.RRHeader{Name: name, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: ttl},
		Addr: addr,
	})
}

// AddCNAME is a convenience for alias records.
func (z *Zone) AddCNAME(name string, ttl uint32, target string) error {
	return z.Add(&dnswire.CNAME{
		Hdr:    dnswire.RRHeader{Name: name, Type: dnswire.TypeCNAME, Class: dnswire.ClassINET, TTL: ttl},
		Target: dnswire.CanonicalName(target),
	})
}

// Update applies a batch of mutations atomically: fn works on a
// ZoneBuilder seeded with the current view, and if it returns nil and
// changed anything, the result is published as one new revision — one
// serial bump — visible to readers all at once.
// Concurrent Updates serialize; readers are never blocked.
func (z *Zone) Update(fn func(*ZoneBuilder) error) error {
	z.wmu.Lock()
	defer z.wmu.Unlock()
	old := z.view.Load()
	b := newZoneBuilder(old)
	if err := fn(b); err != nil {
		return err
	}
	if v, changed := b.build(old); changed {
		z.view.Store(v)
	}
	return nil
}

// Replace swaps the zone's entire record set for the contents of from
// (typically a freshly parsed zone file) and reports whether it
// published a new view. Contents equal to the current view's — the
// same records, and the same SOA apart from its serial — publish
// nothing, so reloading an unchanged file leaves the zone as it was.
// Otherwise the new serial is from's when it is ahead of the current
// one (RFC 1982), and current+1 when it is not, so a changed file with
// a stale serial still advances. Queries in flight keep the old view;
// new queries see the new one.
func (z *Zone) Replace(from *Zone) bool {
	nv := from.View()
	z.wmu.Lock()
	defer z.wmu.Unlock()
	old := z.view.Load()
	soa := nv.soa.Clone().(*dnswire.SOA)
	soa.Hdr.Name = z.Origin
	serial := soa.Serial
	soa.Serial = old.Serial() // compared with the serial aside
	if soa.String() == old.soa.String() && sameRecords(old, nv) {
		return false
	}
	soa.Serial = old.Serial() + 1
	if serialAdvanced(old.Serial(), serial) {
		soa.Serial = serial
	}
	rrs := cloneRRMap(nv.rrs)
	rrs[z.Origin] = cloneByType(rrs[z.Origin])
	rrs[z.Origin][dnswire.TypeSOA] = []dnswire.RR{soa}
	z.view.Store(&ZoneView{Origin: z.Origin, soa: soa, rrs: rrs})
	return true
}

// serialAdvanced reports whether b is ahead of a in RFC 1982 serial
// arithmetic (wrapping uint32 comparison).
func serialAdvanced(a, b uint32) bool {
	return b != a && (b-a) < 1<<31
}

// sameRecords reports whether two views hold the same non-SOA records,
// compared by presentation form (owner, TTL, class, type, rdata) and
// regardless of order.
func sameRecords(a, b *ZoneView) bool {
	count := make(map[string]int)
	eachRR(a, func(rr dnswire.RR) { count[rr.String()]++ })
	eachRR(b, func(rr dnswire.RR) { count[rr.String()]-- })
	for _, n := range count {
		if n != 0 {
			return false
		}
	}
	return true
}

// eachRR visits every non-SOA record of a view.
func eachRR(v *ZoneView, fn func(dnswire.RR)) {
	for _, byType := range v.rrs {
		for t, rrs := range byType {
			if t == dnswire.TypeSOA {
				continue
			}
			for _, rr := range rrs {
				fn(rr)
			}
		}
	}
}

// cloneRRMap shallow-copies the owner map; the inner maps and slices
// are shared with the source and must be copied before mutation.
func cloneRRMap(rrs map[string]map[dnswire.Type][]dnswire.RR) map[string]map[dnswire.Type][]dnswire.RR {
	out := make(map[string]map[dnswire.Type][]dnswire.RR, len(rrs))
	for k, v := range rrs {
		out[k] = v
	}
	return out
}

// cloneByType shallow-copies one owner's type map.
func cloneByType(byType map[dnswire.Type][]dnswire.RR) map[dnswire.Type][]dnswire.RR {
	out := make(map[dnswire.Type][]dnswire.RR, len(byType)+1)
	for k, v := range byType {
		out[k] = v
	}
	return out
}

// ZoneBuilder accumulates one revision's mutations against a base
// view. It copies only what it touches: untouched owners keep sharing
// the base view's maps and slices. Builders are not safe for
// concurrent use; Zone.Update hands each caller its own.
type ZoneBuilder struct {
	origin string
	rrs    map[string]map[dnswire.Type][]dnswire.RR
	// touched marks owners whose type map is already a private copy.
	touched map[string]bool
	soa     *dnswire.SOA
	soaSet  bool
	dirty   bool
}

func newZoneBuilder(base *ZoneView) *ZoneBuilder {
	return &ZoneBuilder{
		origin:  base.Origin,
		rrs:     cloneRRMap(base.rrs),
		touched: make(map[string]bool),
		soa:     base.soa,
	}
}

// owner returns a mutable type map for name.
func (b *ZoneBuilder) owner(name string) map[dnswire.Type][]dnswire.RR {
	if b.touched[name] {
		return b.rrs[name]
	}
	byType := cloneByType(b.rrs[name])
	b.rrs[name] = byType
	b.touched[name] = true
	return byType
}

// SetSOA replaces the revision's SOA, adopting its serial verbatim on
// publish instead of auto-bumping.
func (b *ZoneBuilder) SetSOA(soa *dnswire.SOA) {
	soa.Hdr.Name = b.origin
	b.soa = soa
	b.soaSet = true
	b.dirty = true
}

// Add inserts a record. The owner must be within the zone, and the
// record must pack: one Pack refuses could never be sent, so every
// query for its name would answer SERVFAIL.
func (b *ZoneBuilder) Add(rr dnswire.RR) error {
	owner := dnswire.CanonicalName(rr.Header().Name)
	if !dnswire.IsSubdomain(b.origin, owner) {
		return fmt.Errorf("dnsserver: record %q outside zone %q", owner, b.origin)
	}
	rr.Header().Name = owner
	if _, err := (&dnswire.Message{Answers: []dnswire.RR{rr}}).Pack(); err != nil {
		return fmt.Errorf("dnsserver: %w", err)
	}
	if rr.Header().Type == dnswire.TypeSOA {
		b.SetSOA(rr.(*dnswire.SOA))
		return nil
	}
	byType := b.owner(owner)
	t := rr.Header().Type
	// Copy-on-append: the base view may share the backing array.
	rrs := byType[t]
	next := make([]dnswire.RR, len(rrs), len(rrs)+1)
	copy(next, rrs)
	byType[t] = append(next, rr)
	b.dirty = true
	return nil
}

// AddA is the builder form of Zone.AddA.
func (b *ZoneBuilder) AddA(name string, ttl uint32, addr netip.Addr) error {
	return b.Add(&dnswire.A{
		Hdr:  dnswire.RRHeader{Name: name, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: ttl},
		Addr: addr,
	})
}

// build publishes the accumulated mutations as the next view. The
// serial is the explicit SOA's when SetSOA was called, and base+1
// otherwise.
func (b *ZoneBuilder) build(base *ZoneView) (*ZoneView, bool) {
	if !b.dirty {
		return base, false
	}
	soa := b.soa
	if !b.soaSet {
		soa = base.soa.Clone().(*dnswire.SOA)
		soa.Serial = base.Serial() + 1
	}
	byType := cloneByType(b.rrs[b.origin])
	byType[dnswire.TypeSOA] = []dnswire.RR{soa}
	b.rrs[b.origin] = byType
	return &ZoneView{Origin: b.origin, soa: soa, rrs: b.rrs}, true
}

// LookupResult classifies a zone lookup.
type LookupResult int

// Lookup outcomes.
const (
	LookupSuccess    LookupResult = iota // answers populated
	LookupNoData                         // name exists, type does not
	LookupNXDomain                       // name does not exist
	LookupDelegation                     // referral to child zone
)

// Lookup resolves (qname, qtype) against the zone's current view; see
// ZoneView.Lookup. Lock-free.
func (z *Zone) Lookup(qname string, qtype dnswire.Type) (LookupResult, []dnswire.ReplyRR, []dnswire.ReplyRR) {
	return z.View().Lookup(qname, qtype, nil)
}

// Lookup resolves (qname, qtype) within the view, following in-zone
// CNAME chains. It returns the result class, the answer records, and
// the authority records (SOA for negative answers; for a referral the
// NS set, then its glue). Both lists are appended to buf, which a
// caller passes with room on its stack; the records in them are the
// view's own, shared and read-only, and a wildcard's are reported under
// the name they answer for as ReplyRR.Owner.
func (v *ZoneView) Lookup(qname string, qtype dnswire.Type, buf []dnswire.ReplyRR) (LookupResult, []dnswire.ReplyRR, []dnswire.ReplyRR) {
	qname = dnswire.CanonicalName(qname)
	answers := buf[len(buf):]
	for !answered(answers, qname) { // else a CNAME loop inside the zone: return what we have
		// Delegation check: an NS set at a name strictly between the
		// apex and qname (or at qname itself when qtype != NS at apex)
		// produces a referral.
		if deleg := v.findDelegation(qname); deleg != "" {
			nsSet := v.rrs[deleg][dnswire.TypeNS]
			authority := appendRRs(answers[len(answers):], nsSet, "")
			for _, ns := range nsSet {
				if byType, ok := v.rrs[dnswire.CanonicalName(ns.(*dnswire.NS).NS)]; ok {
					authority = appendRRs(authority, byType[dnswire.TypeA], "")
					authority = appendRRs(authority, byType[dnswire.TypeAAAA], "")
				}
			}
			return LookupDelegation, answers[:len(answers):len(answers)], authority
		}

		owner := "" // the records' own, unless a wildcard answers
		byType, ok := v.rrs[qname]
		if !ok {
			if byType = v.findWildcard(qname); byType == nil {
				if len(answers) > 0 {
					// CNAME chain left the populated namespace.
					return LookupSuccess, answers, nil
				}
				return LookupNXDomain, nil, v.negativeAuthority(answers)
			}
			owner = qname
		}
		if rrs, ok := byType[qtype]; ok && len(rrs) > 0 {
			return LookupSuccess, appendRRs(answers, rrs, owner), nil
		}
		if cn, ok := byType[dnswire.TypeCNAME]; ok && len(cn) > 0 && qtype != dnswire.TypeCNAME {
			answers = appendRRs(answers, cn[:1], owner)
			target := dnswire.CanonicalName(cn[0].(*dnswire.CNAME).Target)
			if !inZone(v.Origin, target) {
				// Chain leaves the zone: the resolver continues it.
				return LookupSuccess, answers, nil
			}
			qname = target
			continue
		}
		if len(answers) > 0 {
			return LookupSuccess, answers, nil
		}
		return LookupNoData, nil, v.negativeAuthority(answers)
	}
	return LookupSuccess, answers, nil
}

// answered reports whether a CNAME chain's answers already hold a
// record for name: following it again would go round a loop.
func answered(answers []dnswire.ReplyRR, name string) bool {
	for _, rr := range answers {
		if rr.Name() == name {
			return true
		}
	}
	return false
}

// appendRRs appends rrs to to, each under owner.
func appendRRs(to []dnswire.ReplyRR, rrs []dnswire.RR, owner string) []dnswire.ReplyRR {
	for _, rr := range rrs {
		to = append(to, dnswire.ReplyRR{RR: rr, Owner: owner})
	}
	return to
}

// inZone reports whether name is origin or below it: dnswire.IsSubdomain
// for names already canonical, which it does not canonicalize again.
func inZone(origin, name string) bool {
	if origin == "." || name == origin {
		return true
	}
	n := len(name) - len(origin)
	return n > 0 && name[n-1] == '.' && name[n:] == origin
}

// findDelegation returns the closest enclosing owner of qname that
// holds an NS set below the apex, or "".
func (v *ZoneView) findDelegation(qname string) string {
	for name := qname; name != "." && name != v.Origin && inZone(v.Origin, name); name = dnswire.Parent(name) {
		if byType, ok := v.rrs[name]; ok {
			if _, hasNS := byType[dnswire.TypeNS]; hasNS {
				return name
			}
		}
	}
	return ""
}

// findWildcard looks for "*.<parent>" owners covering qname. The probe
// key is built on the stack.
func (v *ZoneView) findWildcard(qname string) map[dnswire.Type][]dnswire.RR {
	var key [2 + 4*255]byte // room for every octet of a name as \DDD
	for name := dnswire.Parent(qname); inZone(v.Origin, name); name = dnswire.Parent(name) {
		k := append(append(key[:0], "*."...), strings.TrimPrefix(name, ".")...)
		if byType, ok := v.rrs[string(k)]; ok {
			return byType
		}
		if name == v.Origin || name == "." {
			break
		}
	}
	return nil
}

// negativeAuthority appends the SOA a negative answer carries to buf.
func (v *ZoneView) negativeAuthority(buf []dnswire.ReplyRR) []dnswire.ReplyRR {
	if v.soa == nil {
		return nil
	}
	return append(buf, dnswire.ReplyRR{RR: v.soa})
}

// ZonePlugin serves authoritative answers from a set of zones,
// matching the longest enclosing origin. Queries outside every zone
// fall through to the next plugin. The zone set itself is an immutable
// snapshot swapped atomically, so zones can be added or replaced while
// serving without a lock on the query path.
type ZonePlugin struct {
	zones atomic.Pointer[map[string]*Zone]
	wmu   sync.Mutex
}

// NewZonePlugin builds the plugin from zones.
func NewZonePlugin(zones ...*Zone) *ZonePlugin {
	p := &ZonePlugin{}
	m := make(map[string]*Zone, len(zones))
	for _, z := range zones {
		m[z.Origin] = z
	}
	p.zones.Store(&m)
	return p
}

// AddZone registers (or replaces) a zone.
func (p *ZonePlugin) AddZone(z *Zone) {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	old := *p.zones.Load()
	m := make(map[string]*Zone, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	m[z.Origin] = z
	p.zones.Store(&m)
}

// Name implements Plugin.
func (p *ZonePlugin) Name() string { return "zone" }

// match finds the longest registered origin enclosing qname, which is
// canonical: of two origins that both enclose it the longer is the
// deeper.
func (p *ZonePlugin) match(qname string) *Zone {
	var best *Zone
	for origin, z := range *p.zones.Load() {
		if inZone(origin, qname) && (best == nil || len(origin) > len(best.Origin)) {
			best = z
		}
	}
	return best
}

// zoneAnswerRoom is the stack room ServeDNS gives a lookup: an answer of
// this many records, or a referral with its glue, is written without
// allocating.
const zoneAnswerRoom = 16

// ServeDNS implements Plugin, writing the view's own records.
func (p *ZonePlugin) ServeDNS(ctx context.Context, w ResponseWriter, r *Request, next Handler) (dnswire.Rcode, error) {
	qname := r.Name()
	z := p.match(qname)
	if z == nil {
		return next.ServeDNS(ctx, w, r)
	}
	hop := telemetry.StartHop(ctx, "zone")
	// One view load per query: the answer, authority, and serial all
	// come from the same snapshot even if a writer publishes mid-query.
	var room [zoneAnswerRoom]dnswire.ReplyRR
	result, answers, authority := z.View().Lookup(qname, r.Type(), room[:0])
	hop.End(z.Origin)
	reply := dnswire.Reply{Authoritative: true, Answers: answers, Authorities: authority}
	switch result {
	case LookupNXDomain:
		reply.Rcode = dnswire.RcodeNameError
	case LookupDelegation:
		// Referral: NS in authority, glue in additional.
		reply.Authoritative = false
		ns := 0
		for ns < len(authority) && authority[ns].RR.Header().Type == dnswire.TypeNS {
			ns++
		}
		reply.Authorities, reply.Additionals = authority[:ns], authority[ns:]
	}
	// Zone data is the same for every subnet; subnet-tailored answers
	// (and their nonzero scopes) are the CDN router's job.
	return writeUnscoped(w, r, reply)
}

// ParseZone reads a minimal zone-file dialect: one record per line,
// "owner [ttl] [IN] type rdata...", with "@" denoting the origin,
// unqualified owners made relative to it, and ";" comments. It exists
// so cmd/dnsd can serve operator-authored zones; programmatic callers
// use the Zone builder methods. The whole file becomes one revision:
// an explicit SOA line's serial is adopted verbatim.
func ParseZone(origin string, r io.Reader) (*Zone, error) {
	z := NewZone(origin)
	err := z.Update(func(b *ZoneBuilder) error {
		sc := bufio.NewScanner(r)
		lineNo := 0
		for sc.Scan() {
			lineNo++
			line := sc.Text()
			if i := strings.IndexByte(line, ';'); i >= 0 {
				line = line[:i]
			}
			fields := strings.Fields(line)
			if len(fields) == 0 {
				continue
			}
			rr, err := parseRecordLine(b.origin, fields)
			if err != nil {
				return fmt.Errorf("zone %s line %d: %w", origin, lineNo, err)
			}
			if err := b.Add(rr); err != nil {
				return fmt.Errorf("zone %s line %d: %w", origin, lineNo, err)
			}
		}
		return sc.Err()
	})
	if err != nil {
		return nil, err
	}
	return z, nil
}

func qualify(name, origin string) string {
	if name == "@" {
		return origin
	}
	if strings.HasSuffix(name, ".") {
		return dnswire.CanonicalName(name)
	}
	return dnswire.CanonicalName(name + "." + origin)
}

func parseRecordLine(origin string, fields []string) (dnswire.RR, error) {
	if len(fields) < 3 {
		return nil, fmt.Errorf("too few fields")
	}
	owner := qualify(fields[0], origin)
	rest := fields[1:]
	ttl := uint32(300)
	if n, err := strconv.ParseUint(rest[0], 10, 32); err == nil {
		ttl = uint32(n)
		rest = rest[1:]
	}
	if len(rest) > 0 && strings.EqualFold(rest[0], "IN") {
		rest = rest[1:]
	}
	if len(rest) < 2 {
		return nil, fmt.Errorf("missing type or rdata")
	}
	typ, rdata := strings.ToUpper(rest[0]), rest[1:]
	hdr := dnswire.RRHeader{Name: owner, Class: dnswire.ClassINET, TTL: ttl}
	switch typ {
	case "A":
		addr, err := netip.ParseAddr(rdata[0])
		if err != nil || !addr.Is4() {
			return nil, fmt.Errorf("bad A rdata %q", rdata[0])
		}
		hdr.Type = dnswire.TypeA
		return &dnswire.A{Hdr: hdr, Addr: addr}, nil
	case "AAAA":
		addr, err := netip.ParseAddr(rdata[0])
		if err != nil || !addr.Is6() {
			return nil, fmt.Errorf("bad AAAA rdata %q", rdata[0])
		}
		hdr.Type = dnswire.TypeAAAA
		return &dnswire.AAAA{Hdr: hdr, Addr: addr}, nil
	case "CNAME":
		hdr.Type = dnswire.TypeCNAME
		return &dnswire.CNAME{Hdr: hdr, Target: qualify(rdata[0], origin)}, nil
	case "NS":
		hdr.Type = dnswire.TypeNS
		return &dnswire.NS{Hdr: hdr, NS: qualify(rdata[0], origin)}, nil
	case "PTR":
		hdr.Type = dnswire.TypePTR
		return &dnswire.PTR{Hdr: hdr, PTR: qualify(rdata[0], origin)}, nil
	case "TXT":
		hdr.Type = dnswire.TypeTXT
		var txt []string
		for _, f := range rdata {
			txt = append(txt, strings.Trim(f, `"`))
		}
		return &dnswire.TXT{Hdr: hdr, Txt: txt}, nil
	case "MX":
		if len(rdata) < 2 {
			return nil, fmt.Errorf("MX needs preference and host")
		}
		pref, err := strconv.ParseUint(rdata[0], 10, 16)
		if err != nil {
			return nil, fmt.Errorf("bad MX preference %q", rdata[0])
		}
		hdr.Type = dnswire.TypeMX
		return &dnswire.MX{Hdr: hdr, Preference: uint16(pref), MX: qualify(rdata[1], origin)}, nil
	case "SRV":
		if len(rdata) < 4 {
			return nil, fmt.Errorf("SRV needs priority weight port target")
		}
		var nums [3]uint16
		for i := 0; i < 3; i++ {
			v, err := strconv.ParseUint(rdata[i], 10, 16)
			if err != nil {
				return nil, fmt.Errorf("bad SRV field %q", rdata[i])
			}
			nums[i] = uint16(v)
		}
		hdr.Type = dnswire.TypeSRV
		return &dnswire.SRV{Hdr: hdr, Priority: nums[0], Weight: nums[1], Port: nums[2], Target: qualify(rdata[3], origin)}, nil
	case "SOA":
		if len(rdata) < 7 {
			return nil, fmt.Errorf("SOA needs ns mbox serial refresh retry expire minttl")
		}
		var nums [5]uint32
		for i := 0; i < 5; i++ {
			v, err := strconv.ParseUint(rdata[2+i], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("bad SOA field %q", rdata[2+i])
			}
			nums[i] = uint32(v)
		}
		hdr.Type = dnswire.TypeSOA
		return &dnswire.SOA{Hdr: hdr, NS: qualify(rdata[0], origin), Mbox: qualify(rdata[1], origin),
			Serial: nums[0], Refresh: nums[1], Retry: nums[2], Expire: nums[3], MinTTL: nums[4]}, nil
	}
	return nil, fmt.Errorf("unsupported type %q", typ)
}
