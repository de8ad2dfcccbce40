package mesh

import (
	"fmt"
	"net"
	"net/netip"
	"time"

	"github.com/meccdn/meccdn/internal/simnet"
)

// simTransport announces over a simnet endpoint; peer addresses are
// textual netip.Addr forms of simnet node addresses.
type simTransport struct {
	ep *simnet.Endpoint
}

func (t simTransport) Exchange(addr string, payload []byte, timeout time.Duration) ([]byte, error) {
	dst, err := netip.ParseAddr(addr)
	if err != nil {
		ap, err2 := netip.ParseAddrPort(addr)
		if err2 != nil {
			return nil, fmt.Errorf("mesh: bad peer addr %q: %w", addr, err)
		}
		dst = ap.Addr()
	}
	resp, _, err := t.ep.Exchange(dst, payload, timeout)
	return resp, err
}

// BindSimnet attaches the agent to a simnet node: incoming datagrams
// are answered by HandleDatagram and announces go out over the node's
// endpoint. The node's address is the site's mesh address peers
// should be configured with.
func (a *Agent) BindSimnet(node *simnet.Node) {
	a.cfg.Transport = simTransport{ep: node.Endpoint()}
	node.SetHandler(simnet.HandlerFunc(func(ctx *simnet.Ctx, dg simnet.Datagram) {
		ctx.Reply(a.HandleDatagram(dg.Payload), 0)
	}))
}

// maxDatagram bounds one mesh datagram: prefix + fixed header + two
// max-length names + the largest digest bitmap.
const maxDatagram = len(AnnouncePrefix) + announceFixed + 2*MaxNameLen + MaxDigestBits/8

// UDPTransport announces over real UDP sockets; peer addresses are
// host:port strings. Each exchange uses an ephemeral socket so no
// reply demultiplexing is needed — announce QPS is peers/interval,
// far below any socket-churn concern.
type UDPTransport struct{}

func (UDPTransport) Exchange(addr string, payload []byte, timeout time.Duration) ([]byte, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	if _, err := conn.Write(payload); err != nil {
		return nil, err
	}
	buf := make([]byte, 256)
	n, err := conn.Read(buf)
	if err != nil {
		return nil, err
	}
	return buf[:n], nil
}

// ServeUDP answers mesh datagrams on conn until the connection is
// closed. It is the dnsd-side receive loop, run on its own goroutine.
func (a *Agent) ServeUDP(conn net.PacketConn) error {
	buf := make([]byte, maxDatagram+1)
	for {
		n, from, err := conn.ReadFrom(buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return err
		}
		if n > maxDatagram {
			a.announces.Inc(announceMalformed)
			continue
		}
		resp := a.HandleDatagram(buf[:n])
		if _, err := conn.WriteTo(resp, from); err != nil {
			return err
		}
	}
}
