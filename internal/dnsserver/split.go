package dnsserver

import (
	"context"
	"net/netip"

	"github.com/meccdn/meccdn/internal/dnswire"
)

// Split implements the paper's split-namespace DNS: one namespace
// instance dedicated to internal VNFs and another for publicly visible
// MEC-CDN names. Exposing the orchestrator's internal DNS directly
// would expose the vRAN IP namespace; Split keeps the two views
// separate while serving both from one listener.
type Split struct {
	// IsInternal classifies the querying address. Typically it
	// reports membership in the cluster/VNF address range.
	IsInternal func(netip.Addr) bool
	// Internal answers queries from internal clients (VNF service
	// discovery: full cluster view).
	Internal Handler
	// Public answers everyone else (MEC-CDN names only).
	Public Handler
}

// Name implements Plugin.
func (s *Split) Name() string { return "split" }

// ServeDNS implements Plugin. Split is terminal: one of the two
// sub-chains always handles the request; next is never called.
func (s *Split) ServeDNS(ctx context.Context, w ResponseWriter, r *Request, _ Handler) (dnswire.Rcode, error) {
	internal := s.IsInternal != nil && s.IsInternal(r.Client.Addr())
	h := s.Public
	if internal {
		h = s.Internal
	}
	if h == nil {
		return dnswire.RcodeRefused, nil
	}
	return h.ServeDNS(ctx, w, r)
}

// ECS attaches an EDNS Client Subnet option derived from the querying
// address to requests that lack one (the resolver-side behaviour of
// RFC 7871 §6), so downstream authoritative servers — the C-DNS — can
// select a cache near the client. It discloses an IPv4 client's /24
// and an IPv6 client's /56. A query without an OPT record is given one,
// and marked so that its reply is not (Request.addedOPT).
type ECS struct{}

// Source prefix lengths the ECS plugin discloses.
const (
	ecsPrefixV4 = 24
	ecsPrefixV6 = 56
)

// Name implements Plugin.
func (e *ECS) Name() string { return "ecs" }

// ServeDNS implements Plugin.
func (e *ECS) ServeDNS(ctx context.Context, w ResponseWriter, r *Request, next Handler) (dnswire.Rcode, error) {
	if _, has := r.Msg.ECS(); !has {
		prefix, ok := e.clientPrefix(r.Client.Addr())
		if ok {
			_, edns := r.Msg.OPT()
			r.addedOPT = !edns
			opt := r.Msg.SetEDNS(dnswire.DefaultEDNSSize)
			opt.Options = append(opt.Options, dnswire.NewECSOption(prefix))
		}
	}
	return next.ServeDNS(ctx, w, r)
}

func (e *ECS) clientPrefix(addr netip.Addr) (netip.Prefix, bool) {
	if !addr.IsValid() {
		return netip.Prefix{}, false
	}
	bits := ecsPrefixV4
	if addr.Is6() && !addr.Is4In6() {
		bits = ecsPrefixV6
	}
	p, err := addr.Prefix(bits)
	if err != nil {
		return netip.Prefix{}, false
	}
	return p, true
}
