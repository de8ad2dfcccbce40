//go:build !linux

package dnsserver

import (
	"time"

	"github.com/meccdn/meccdn/internal/dnswire"
)

// Non-Linux fallbacks: without recvmmsg/sendmmsg a batch is one
// datagram, filled by one recvfrom and flushed by one sendto. The loop
// around them is the same.

// defaultBatch is one: each read and write moves a single datagram.
const defaultBatch = 1

// mmsgIO carries no state on the unbatched path.
type mmsgIO struct{}

func newMmsgIO(int) *mmsgIO { return nil }

// sendBatch degrades to one sendto per stashed reply.
func (sh *socketShard) sendBatch() { sh.sendLoop() }

// recv reads one datagram into slot 0. Without block — the drain's
// last sweep, past the read deadline — it stands in for a non-blocking
// read with a deadline a moment away.
func (sh *socketShard) recv(block bool) error {
	q := &sh.in[0]
	if q.buf == nil {
		q.buf = dnswire.GetBuffer()
	}
	sh.n, sh.next = 0, 0
	if !block {
		_ = sh.conn.SetReadDeadline(time.Now().Add(time.Millisecond))
	}
	n, addr, err := sh.conn.ReadFromUDPAddrPort(q.buf)
	if err != nil {
		return err
	}
	q.n, q.addr, sh.n = n, addr, 1
	return nil
}
