package meccdn

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"time"

	"github.com/meccdn/meccdn/internal/cdn"
	"github.com/meccdn/meccdn/internal/dnsclient"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/simnet"
)

// ResolutionMode is the UE-side policy for choosing between the MEC
// DNS and the provider's L-DNS (§3, P1 discussion).
type ResolutionMode int

// Resolution modes.
const (
	// MECOnly sends every query to the MEC DNS (which itself forwards
	// non-MEC names upstream when configured).
	MECOnly ResolutionMode = iota
	// ProviderOnly bypasses the MEC DNS, today's default behaviour.
	ProviderOnly
	// Multicast races the MEC DNS and the provider L-DNS, taking the
	// first answer.
	Multicast
	// FallbackOnTimeout tries the MEC DNS with a short budget, then
	// falls back to the provider L-DNS.
	FallbackOnTimeout
)

// String returns the mode label.
func (m ResolutionMode) String() string {
	switch m {
	case MECOnly:
		return "mec-only"
	case ProviderOnly:
		return "provider-only"
	case Multicast:
		return "multicast"
	case FallbackOnTimeout:
		return "fallback-on-timeout"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Result is one UE-side resolution outcome.
type Result struct {
	// Msg is the winning response.
	Msg *dnswire.Message
	// Addr is the first A answer, if any.
	Addr netip.Addr
	// RTT is the client-observed resolution latency in virtual time.
	RTT time.Duration
	// Source says which resolver answered: "mec" or "provider".
	Source string
}

// UEClient is the end-user resolver stub with a pluggable policy.
type UEClient struct {
	// EP is the UE's network endpoint.
	EP *simnet.Endpoint
	// MEC is the MEC DNS (the CoreDNS service cluster IP).
	MEC netip.AddrPort
	// Provider is the mobile network's L-DNS.
	Provider netip.AddrPort
	// Mode selects the policy; zero value is MECOnly.
	Mode ResolutionMode
	// mecBudget is the FallbackOnTimeout patience; 0 (all but tests) means 50ms.
	mecBudget time.Duration
}

// ueTimeout is the UE's overall per-target budget.
const ueTimeout = 2 * time.Second

// Resolve looks up an A record for name under the client's policy.
func (c *UEClient) Resolve(name string) (*Result, error) {
	switch c.Mode {
	case ProviderOnly:
		return c.unicast(name, c.Provider, "provider", ueTimeout)
	case Multicast:
		return c.multicast(name)
	case FallbackOnTimeout:
		res, err := c.unicast(name, c.MEC, "mec", c.budget())
		if err == nil {
			return res, nil
		}
		res2, err2 := c.unicast(name, c.Provider, "provider", ueTimeout)
		if err2 != nil {
			return nil, fmt.Errorf("both resolvers failed: mec: %v; provider: %w", err, err2)
		}
		// The client paid the MEC budget before falling back.
		res2.RTT += c.budget()
		return res2, nil
	default:
		return c.unicast(name, c.MEC, "mec", ueTimeout)
	}
}

func (c *UEClient) budget() time.Duration {
	if c.mecBudget > 0 {
		return c.mecBudget
	}
	return 50 * time.Millisecond
}

// maxTierChase bounds cross-tier C-DNS referral chasing (edge → mid
// → far is the deepest hierarchy the paper sketches).
const maxTierChase = 3

func (c *UEClient) unicast(name string, server netip.AddrPort, source string, timeout time.Duration) (*Result, error) {
	if !server.IsValid() {
		return nil, fmt.Errorf("meccdn: no %s resolver configured", source)
	}
	client := &dnsclient.Client{
		Transport: &dnsclient.SimTransport{Endpoint: c.EP, Timeout: timeout},
		// Stub resolvers retransmit: a lost datagram on the air
		// interface must not fail the lookup outright.
		Retries: 2,
	}
	client.SetRand(c.EP.Network().Rand())
	net := c.EP.Network()
	start := net.Now()
	resp, err := client.Query(context.Background(), server, name, dnswire.TypeA)
	if err != nil {
		return nil, err
	}
	// Chase cross-tier C-DNS referrals: when the edge has no replica,
	// its router points at the mid- or far-tier C-DNS (§3 P2) and the
	// client queries that next, paying the extra distance.
	for hop := 0; hop < maxTierChase; hop++ {
		next, ok := cdn.Referral(resp)
		if !ok {
			break
		}
		resp, err = client.Query(context.Background(), netip.AddrPortFrom(next, 53), name, dnswire.TypeA)
		if err != nil {
			return nil, fmt.Errorf("chasing tier referral to %v: %w", next, err)
		}
		source = source + "+tier"
	}
	return c.result(resp, source, net.Now()-start)
}

// multicast models the paper's client-side DNS multicast. The two
// in-flight resolutions are independent — neither resolver's work
// affects the other's latency — so the race outcome equals taking the
// faster of the two unicast results. (A literal concurrent race on
// simnet's reentrant pump would serialize deeply nested server-side
// flows and overstate the loser's impact; measuring each leg
// separately and taking the minimum is the exact model for
// non-interacting flows.)
func (c *UEClient) multicast(name string) (*Result, error) {
	if !c.MEC.IsValid() || !c.Provider.IsValid() {
		return nil, errors.New("meccdn: multicast needs both resolvers")
	}
	mecRes, mecErr := c.unicast(name, c.MEC, "mec", ueTimeout)
	provRes, provErr := c.unicast(name, c.Provider, "provider", ueTimeout)
	useful := func(r *Result, err error) bool {
		if err != nil {
			return false
		}
		return (r.Msg.Rcode == dnswire.RcodeSuccess && len(r.Msg.Answers) > 0) ||
			r.Msg.Rcode == dnswire.RcodeNameError
	}
	mecOK, provOK := useful(mecRes, mecErr), useful(provRes, provErr)
	switch {
	case mecOK && (!provOK || mecRes.RTT <= provRes.RTT):
		return mecRes, nil
	case provOK:
		return provRes, nil
	case mecErr == nil:
		return mecRes, nil
	case provErr == nil:
		return provRes, nil
	default:
		return nil, fmt.Errorf("multicast resolution of %s failed: mec: %v; provider: %w", name, mecErr, provErr)
	}
}

func (c *UEClient) result(resp *dnswire.Message, source string, rtt time.Duration) (*Result, error) {
	res := &Result{Msg: resp, RTT: rtt, Source: source}
	for _, rr := range resp.Answers {
		if a, ok := rr.(*dnswire.A); ok {
			res.Addr = a.Addr
			break
		}
	}
	return res, nil
}

// FetchResult is an end-to-end content access: resolution + transfer.
type FetchResult struct {
	Resolve *Result
	Content cdn.FetchResult
	// Total is resolution plus content RTT.
	Total time.Duration
}

// fetchAttempts is how many times ResolveAndFetch runs the whole flow
// before it gives up.
const fetchAttempts = 3

// ResolveAndFetch performs the full Figure 4 flow from the UE: DNS
// resolution of name, then a content fetch from the answered address.
// The air interface loses ~0.1% of datagrams; like a real player, the
// UE starts a failed flow over, up to fetchAttempts times. A result's
// latencies are those of the attempt that succeeded.
func (c *UEClient) ResolveAndFetch(domain, name string) (fr *FetchResult, err error) {
	for attempt := 0; attempt < fetchAttempts; attempt++ {
		if fr, err = c.resolveAndFetch(domain, name); err == nil {
			break
		}
	}
	return fr, err
}

func (c *UEClient) resolveAndFetch(domain, name string) (*FetchResult, error) {
	res, err := c.Resolve(name)
	if err != nil {
		return nil, err
	}
	if !res.Addr.IsValid() {
		return nil, fmt.Errorf("meccdn: resolution of %s returned no address (rcode %v)", name, res.Msg.Rcode)
	}
	content, err := cdn.Fetch(c.EP, res.Addr, domain, name, ueTimeout)
	if err != nil {
		return nil, err
	}
	return &FetchResult{
		Resolve: res,
		Content: content,
		Total:   res.RTT + content.RTT,
	}, nil
}
