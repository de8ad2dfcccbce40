package dnsserver

import (
	"net/netip"
	"time"

	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/simnet"
)

// Attach installs handler h as the DNS service of a simnet node. Every
// delivered datagram is served by serveQuery — the function the UDP and
// TCP ingresses serve with — so the chain (which may itself issue
// nested upstream exchanges in virtual time) runs exactly as it does
// behind a socket, and the reply is answered after a processing delay
// drawn from proc (nil means zero processing time). Virtual datagrams
// are not size-limited, so no reply is truncated.
//
// The server is modelled as a single-server queue: each query
// occupies the processor for its drawn processing time, and arrivals
// during that window wait their turn. Under light load the queueing
// delay is zero; under an ingress flood (the X5 experiment) response
// latency inflates, which is exactly why the paper's orchestrator
// monitors ingress and sheds to the provider L-DNS.
func Attach(node *simnet.Node, h Handler, proc simnet.Sampler) {
	var busyUntil time.Duration
	node.SetHandler(simnet.HandlerFunc(func(ctx *simnet.Ctx, dg simnet.Datagram) {
		// Fresh scratch per datagram: a nested upstream exchange pumps
		// the event loop re-entrantly, so this node can be handed query
		// B while query A is still parked inside the chain.
		client := netip.AddrPortFrom(dg.Client(), 0)
		buf, n := serveQuery(h, nil, new(serveScratch), dg.Payload, client, "sim", dnswire.MaxMessageSize)
		if buf == nil {
			return // not DNS; drop
		}
		wire := append([]byte(nil), buf[:n]...) // the network keeps it until delivery
		dnswire.PutBuffer(buf)
		var procTime time.Duration
		if proc != nil {
			procTime = proc.Sample(ctx.Network().Rand())
		}
		now := ctx.Now()
		start := now
		if busyUntil > start {
			start = busyUntil // wait behind queued work
		}
		busyUntil = start + procTime
		ctx.Reply(wire, busyUntil-now)
	}))
}
