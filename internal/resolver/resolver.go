// Package resolver implements a recursive DNS resolver: the L-DNS of
// the paper's Figure 1. Starting from a set of root servers it follows
// referrals down the delegation tree, chases CNAME chains (the CDN
// cascade), caches delegations so later queries skip the upper levels,
// and exposes itself as a dnsserver plugin so it can sit behind the
// response cache in a server chain.
package resolver

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"time"

	"github.com/meccdn/meccdn/internal/dnsclient"
	"github.com/meccdn/meccdn/internal/dnsserver"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/vclock"
)

// Errors returned by Resolve.
var (
	ErrMaxReferrals = errors.New("resolver: referral limit exceeded")
	ErrMaxCNAME     = errors.New("resolver: CNAME chain too long")
	ErrNoServers    = errors.New("resolver: no servers to query")
	ErrLame         = errors.New("resolver: lame delegation")
)

const (
	// maxReferrals bounds the referral walk.
	maxReferrals = 16
	// maxCNAME bounds alias chains.
	maxCNAME     = 8
	defaultNSTTL = time.Hour
)

// Resolver performs iterative resolution.
type Resolver struct {
	// Roots are the root name servers (priming is assumed done).
	Roots []netip.AddrPort
	// Client performs the upstream exchanges; required.
	Client *dnsclient.Client
	// Clock drives delegation-cache expiry; required.
	Clock vclock.Clock
	// ForwardECS forwards the client's EDNS Client Subnet option on
	// upstream content queries (RFC 7871 forwarding-recursive
	// behavior). Off by default, the resolver behaves like the many
	// recursives that strip ECS — the conflation of client and
	// resolver location the paper critiques — which is also the
	// control arm of the edge-selection experiment.
	ForwardECS bool

	mu     sync.Mutex
	nsSets map[string]*nsSet
}

// nsSet is a cached delegation: the servers authoritative for a zone.
type nsSet struct {
	zone    string
	addrs   []netip.AddrPort
	expires time.Duration
}

// New returns a resolver rooted at roots.
func New(client *dnsclient.Client, clock vclock.Clock, roots ...netip.AddrPort) *Resolver {
	return &Resolver{
		Roots:  roots,
		Client: client,
		Clock:  clock,
		nsSets: make(map[string]*nsSet),
	}
}

// Name implements dnsserver.Plugin.
func (r *Resolver) Name() string { return "resolve" }

// ServeDNS implements dnsserver.Plugin: terminal recursive resolution.
func (r *Resolver) ServeDNS(ctx context.Context, w dnsserver.ResponseWriter, req *dnsserver.Request, _ dnsserver.Handler) (dnswire.Rcode, error) {
	var ecs *dnswire.ECSOption
	if r.ForwardECS {
		if e, ok := req.Msg.ECS(); ok {
			ecs = e
		}
	}
	resp, err := r.resolve(ctx, req.Name(), req.Type(), ecs)
	if err != nil {
		return dnswire.RcodeServerFailure, err
	}
	resp.ID = req.Msg.ID
	resp.RecursionAvailable = true
	if err := w.WriteMsg(resp); err != nil {
		return dnswire.RcodeServerFailure, err
	}
	return resp.Rcode, nil
}

// resolve answers (qname, qtype) by iterative resolution, following
// out-of-zone CNAMEs. The returned message aggregates the full alias
// chain in its answer section, the way a recursive resolver responds.
// A non-nil ecs is a client-subnet disclosure forwarded on every
// content query of the walk (referrals and CNAME hops included — the
// whole chase is on the client's behalf), but never on infrastructure
// NS lookups.
func (r *Resolver) resolve(ctx context.Context, qname string, qtype dnswire.Type, ecs *dnswire.ECSOption) (*dnswire.Message, error) {
	qname = dnswire.CanonicalName(qname)
	original := dnswire.Question{Name: qname, Type: qtype, Class: dnswire.ClassINET}
	var chain []dnswire.RR
	for hop := 0; ; hop++ {
		resp, err := r.resolveOne(ctx, qname, qtype, 0, ecs)
		if err != nil {
			return nil, err
		}
		// Find a terminal answer or the next alias link.
		target := ""
		for _, rr := range resp.Answers {
			if cn, ok := rr.(*dnswire.CNAME); ok && dnswire.CanonicalName(cn.Hdr.Name) == qname && qtype != dnswire.TypeCNAME {
				target = dnswire.CanonicalName(cn.Target)
			}
		}
		hasFinal := false
		for _, rr := range resp.Answers {
			if rr.Header().Type == qtype {
				hasFinal = true
				break
			}
		}
		if target == "" || hasFinal {
			resp.Answers = append(chain, resp.Answers...)
			// After a cross-zone CNAME chase the last upstream reply
			// names the alias target; the client asked for the
			// original owner.
			resp.Questions = []dnswire.Question{original}
			return resp, nil
		}
		chain = append(chain, resp.Answers...)
		if hop+1 >= maxCNAME {
			return nil, fmt.Errorf("%w: from %s", ErrMaxCNAME, qname)
		}
		qname = target
	}
}

// resolveOne walks referrals for a single owner name (no cross-zone
// CNAME chasing; Resolve handles that).
func (r *Resolver) resolveOne(ctx context.Context, qname string, qtype dnswire.Type, depth int, ecs *dnswire.ECSOption) (*dnswire.Message, error) {
	if depth > 4 {
		return nil, fmt.Errorf("%w: glue recursion for %s", ErrMaxReferrals, qname)
	}
	servers := r.bestServers(qname)
	if len(servers) == 0 {
		return nil, ErrNoServers
	}
	for step := 0; step < maxReferrals; step++ {
		resp, err := r.queryAny(ctx, servers, qname, qtype, ecs)
		if err != nil {
			return nil, err
		}
		switch {
		case resp.Rcode == dnswire.RcodeNameError,
			resp.Rcode != dnswire.RcodeSuccess,
			len(resp.Answers) > 0,
			resp.Authoritative:
			// Terminal: answer, negative answer, or an authoritative
			// NODATA.
			return resp, nil
		}
		// Referral: NS records in authority.
		next, zone := r.followReferral(ctx, resp, depth)
		if len(next) == 0 {
			return nil, fmt.Errorf("%w: for %s (empty referral for %q)", ErrLame, qname, zone)
		}
		servers = next
	}
	return nil, fmt.Errorf("%w: resolving %s", ErrMaxReferrals, qname)
}

// followReferral extracts the child NS set and its glue from a
// referral response, caches the delegation, and returns the server
// addresses to try next.
func (r *Resolver) followReferral(ctx context.Context, resp *dnswire.Message, depth int) ([]netip.AddrPort, string) {
	var zone string
	nsNames := make([]string, 0, 4)
	for _, rr := range resp.Authorities {
		if ns, ok := rr.(*dnswire.NS); ok {
			zone = dnswire.CanonicalName(ns.Hdr.Name)
			nsNames = append(nsNames, dnswire.CanonicalName(ns.NS))
		}
	}
	if zone == "" {
		return nil, ""
	}
	glue := make(map[string][]netip.Addr)
	for _, rr := range resp.Additionals {
		switch a := rr.(type) {
		case *dnswire.A:
			owner := dnswire.CanonicalName(a.Hdr.Name)
			glue[owner] = append(glue[owner], a.Addr)
		case *dnswire.AAAA:
			owner := dnswire.CanonicalName(a.Hdr.Name)
			glue[owner] = append(glue[owner], a.Addr)
		}
	}
	var addrs []netip.AddrPort
	for _, name := range nsNames {
		for _, a := range glue[name] {
			addrs = append(addrs, netip.AddrPortFrom(a, 53))
		}
	}
	// Glueless delegation: resolve the NS names themselves. These are
	// infrastructure lookups on the resolver's own behalf, so no
	// client subnet rides along (RFC 7871 §7.1.2).
	if len(addrs) == 0 {
		for _, name := range nsNames {
			m, err := r.resolveOne(ctx, name, dnswire.TypeA, depth+1, nil)
			if err != nil {
				continue
			}
			for _, rr := range m.Answers {
				if a, ok := rr.(*dnswire.A); ok {
					addrs = append(addrs, netip.AddrPortFrom(a.Addr, 53))
				}
			}
		}
	}
	if len(addrs) > 0 {
		r.cacheDelegation(zone, addrs)
	}
	return addrs, zone
}

// queryAny tries the servers in order until one responds, forwarding
// the client-subnet disclosure when one rides along.
func (r *Resolver) queryAny(ctx context.Context, servers []netip.AddrPort, qname string, qtype dnswire.Type, ecs *dnswire.ECSOption) (*dnswire.Message, error) {
	var lastErr error
	for _, s := range servers {
		q := new(dnswire.Message)
		q.SetQuestion(qname, qtype)
		q.RecursionDesired = false
		if ecs != nil {
			// A fresh scope-0 copy: queries MUST carry scope 0
			// (RFC 7871 §6), whatever the inbound option said.
			fwd := *ecs
			fwd.ScopePrefix = 0
			opt := q.SetEDNS(dnswire.DefaultEDNSSize)
			opt.Options = append(opt.Options, &fwd)
		}
		resp, err := r.Client.Do(ctx, s, q)
		if err == nil {
			return resp, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("querying %d servers for %s: %w", len(servers), qname, lastErr)
}

// bestServers returns the cached NS set for the longest matching
// enclosing zone, falling back to the roots.
func (r *Resolver) bestServers(qname string) []netip.AddrPort {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.Clock.Now()
	for zone := qname; ; zone = dnswire.Parent(zone) {
		if set, ok := r.nsSets[zone]; ok {
			if now < set.expires {
				return set.addrs
			}
			delete(r.nsSets, zone)
		}
		if zone == "." {
			break
		}
	}
	return r.Roots
}

func (r *Resolver) cacheDelegation(zone string, addrs []netip.AddrPort) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nsSets == nil {
		r.nsSets = make(map[string]*nsSet)
	}
	r.nsSets[zone] = &nsSet{zone: zone, addrs: addrs, expires: r.Clock.Now() + defaultNSTTL}
}
