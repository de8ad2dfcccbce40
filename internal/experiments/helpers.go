package experiments

import (
	"github.com/meccdn/meccdn/internal/dnsclient"
	"github.com/meccdn/meccdn/internal/simnet"
)

// newSimClient returns a DNS client bound to a simnet node, drawing
// query IDs from the simulation's deterministic RNG.
func newSimClient(net *simnet.Network, node string) *dnsclient.Client {
	c := &dnsclient.Client{Transport: &dnsclient.SimTransport{Endpoint: net.Node(node).Endpoint()}}
	c.SetRand(net.Rand())
	return c
}
