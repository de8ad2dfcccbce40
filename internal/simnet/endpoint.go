package simnet

import (
	"errors"
	"fmt"
	"net/netip"
	"time"
)

// ErrTimeout is returned by an Exchange that got no reply in time.
var ErrTimeout = errors.New("simnet: exchange timed out")

// Ctx is passed to a node's handler for one delivered datagram.
type Ctx struct {
	net  *Network
	node *Node
	req  Datagram
}

// Now returns the current virtual time.
func (c *Ctx) Now() time.Duration { return c.net.Now() }

// Node returns the handling node.
func (c *Ctx) Node() *Node { return c.node }

// Network returns the underlying network.
func (c *Ctx) Network() *Network { return c.net }

// Reply sends payload back to the requester after procDelay of
// virtual processing time, correlated to the originating Exchange.
func (c *Ctx) Reply(payload []byte, procDelay time.Duration) {
	dg := Datagram{
		Src:        c.node.Addr,
		Dst:        c.req.Src,
		Payload:    payload,
		ExchangeID: c.req.ExchangeID,
		Reply:      true,
	}
	c.net.Clock.Schedule(procDelay, func() {
		// Replies to unknown addresses are silently dropped, like UDP.
		_ = c.net.Send(dg)
	})
}

// Endpoint issues synchronous exchanges from a node. The calling code
// blocks in virtual time only: the event loop is pumped until the
// reply arrives or the timeout fires. Handlers may use their node's
// Endpoint to perform nested upstream exchanges.
type Endpoint struct {
	node *Node
}

// Endpoint returns a synchronous exchange facade bound to the node.
func (n *Node) Endpoint() *Endpoint { return &Endpoint{node: n} }

// pendingExchange tracks one outstanding Exchange.
type pendingExchange struct {
	done    bool
	timeout bool
	resp    Datagram
	rtt     time.Duration
}

// deliverReply completes a pending exchange if the datagram matches
// one; it reports whether the datagram was consumed.
func (n *Network) deliverReply(dg Datagram) bool {
	if !dg.Reply || dg.ExchangeID == 0 {
		return false
	}
	p, ok := n.pending[dg.ExchangeID]
	if !ok || p.done {
		return false
	}
	p.done = true
	p.resp = dg
	return true
}

// Exchange sends payload to dst and waits (in virtual time) for the
// correlated reply. It returns the reply payload and the measured
// round-trip time. Loss anywhere on the path surfaces as ErrTimeout.
func (e *Endpoint) Exchange(dst netip.Addr, payload []byte, timeout time.Duration) ([]byte, time.Duration, error) {
	return e.ExchangeFrom(dst, payload, timeout, netip.Addr{})
}

// ExchangeFrom is Exchange for source-preserving proxies: origSrc is
// recorded as the datagram's originating client so the destination
// sees who the proxy is relaying for.
func (e *Endpoint) ExchangeFrom(dst netip.Addr, payload []byte, timeout time.Duration, origSrc netip.Addr) ([]byte, time.Duration, error) {
	n := e.node.net
	if n.pending == nil {
		n.pending = make(map[uint64]*pendingExchange)
	}
	n.nextExchange++
	id := n.nextExchange
	p := &pendingExchange{}
	n.pending[id] = p
	defer delete(n.pending, id)

	start := n.Now()
	dg := Datagram{Src: e.node.Addr, Dst: dst, Payload: payload, ExchangeID: id, OrigSrc: origSrc}
	if err := n.Send(dg); err != nil {
		return nil, 0, fmt.Errorf("exchange to %v: %w", dst, err)
	}
	timer := n.Clock.Schedule(timeout, func() { p.timeout = true })
	n.Clock.RunWhile(func() bool { return !p.done && !p.timeout })
	timer.Cancel()
	if p.timeout && !p.done {
		// Advance the caller past the timeout instant even when the
		// pump stopped early (e.g. queue drained).
		if n.Now() < start+timeout {
			n.Clock.RunUntil(start + timeout)
		}
		return nil, n.Now() - start, ErrTimeout
	}
	p.rtt = n.Now() - start
	return p.resp.Payload, p.rtt, nil
}

// Network returns the network the endpoint belongs to.
func (e *Endpoint) Network() *Network { return e.node.net }
