package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"time"

	"github.com/meccdn/meccdn/internal/cdn"
	"github.com/meccdn/meccdn/internal/dnswire"
)

const (
	// window is the number of queries kept outstanding. Measured on the
	// 2-vCPU host the benchmark was sized on: at 8 or more the seed
	// server sheds and runs swing ±15 %; at 4 nothing is lost.
	window       = 4
	queryTimeout = time.Second
	// decodeEvery: one reply in this many is fully decoded and compared
	// with the oracle; the rest get the header and question check.
	decodeEvery = 64
	// deadlineSlack bounds how stale the socket's read deadline may get
	// before it is pushed out again; timeouts fire within this much
	// after queryTimeout.
	deadlineSlack = 100 * time.Millisecond
)

type slot struct {
	live bool
	id   uint16
	tmpl uint32
	sent int64 // ns since client.base
}

// client is the closed-loop load generator: one connected UDP socket
// (one flow, so SO_REUSEPORT always lands it on one ingress socket),
// window queries outstanding, the next one sent when a reply or its
// timeout frees a slot. It runs on the calling goroutine and, per
// query, patches an ID, writes, reads and checks — no allocation
// outside the sampled full decode.
type client struct {
	conn *net.UDPConn
	st   *stream
	site *site // oracle sets: ring and peer addresses
	base time.Time

	pos    int    // next stream position
	next   uint16 // next query ID
	decode uint64 // one reply in this many is fully decoded
	slots  [window]slot
	rbuf   [4096]byte

	armed    bool  // the socket has a read deadline in the future
	deadline int64 // ns since base at which it was last set
	replies  uint64
	msg      dnswire.Message // scratch for the sampled decode
	slice    int             // slices of the recorded run marked so far
	err      error           // first failure to read the CPU clock

	tally
}

// tally is what one run of the loop counted.
type tally struct {
	sent     uint64
	answered uint64 // replies that passed verification
	timeouts uint64
	wrong    uint64 // replies that failed verification
	stray    uint64 // replies matching no outstanding query (late, after a timeout)
	decoded  uint64 // replies that went through the full decode
	firstBad string

	rtts  []uint32 // ns, one per answered query while recording, in arrival order
	marks []mark   // one per elapsed second of a recorded run
}

// mark is the running totals at the end of one one-second slice; a
// slice's own figures are the difference between two marks.
type mark struct {
	answered uint64
	rtts     int // len(tally.rtts)
	cpu      time.Duration
}

func newClient(st *stream, s *site, server netip.AddrPort) (*client, error) {
	conn, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(server))
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, st: st, site: s, base: time.Now(), decode: decodeEvery}, nil
}

func (c *client) close() { c.conn.Close() }

func (c *client) now() int64 { return int64(time.Since(c.base)) }

// send transmits template t in slot i.
func (c *client) send(i int, t uint32) error {
	q := c.st.query(t)
	binary.BigEndian.PutUint16(q, c.next)
	c.slots[i] = slot{live: true, id: c.next, tmpl: t, sent: c.now()}
	c.next++
	c.sent++
	_, err := c.conn.Write(q)
	return err
}

// expire frees every slot older than queryTimeout.
func (c *client) expire(now int64) {
	for i := range c.slots {
		if s := &c.slots[i]; s.live && now-s.sent >= int64(queryTimeout) {
			s.live = false
			c.timeouts++
		}
	}
}

func (c *client) outstanding() int {
	n := 0
	for i := range c.slots {
		if c.slots[i].live {
			n++
		}
	}
	return n
}

// run drives the loop. It sends the templates source yields until
// source reports false, then waits out what is still outstanding.
// With record set it keeps RTT samples and marks every elapsed second,
// timed from the call.
func (c *client) run(source func() (uint32, bool), record bool) error {
	start := c.now()
	more := true
	for {
		for i := range c.slots {
			if !more || c.slots[i].live {
				continue
			}
			t, ok := source()
			if !ok {
				more = false
				break
			}
			if err := c.send(i, t); err != nil {
				return err
			}
		}
		if !more && c.outstanding() == 0 {
			return nil
		}
		now := c.now()
		if !c.armed || now-c.deadline >= int64(deadlineSlack) {
			if err := c.conn.SetReadDeadline(time.Now().Add(queryTimeout)); err != nil {
				return err
			}
			c.armed, c.deadline = true, now
			c.expire(now)
		}
		n, err := c.conn.Read(c.rbuf[:])
		now = c.now()
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				c.expire(now)
				c.armed = false
				continue
			}
			return err
		}
		c.reply(c.rbuf[:n], now, now-start, record)
	}
}

// reply matches one datagram to its slot, verifies it and frees the
// slot.
func (c *client) reply(pkt []byte, now, elapsed int64, record bool) {
	if len(pkt) < 12 {
		c.bad(0, "short reply")
		return
	}
	id := binary.BigEndian.Uint16(pkt)
	var s *slot
	for i := range c.slots {
		if c.slots[i].live && c.slots[i].id == id {
			s = &c.slots[i]
			break
		}
	}
	if s == nil {
		c.stray++
		return
	}
	s.live = false
	c.replies++
	if record {
		c.markUntil(elapsed)
	}
	if why := c.check(pkt, s.tmpl); why != "" {
		c.bad(s.tmpl, why)
		return
	}
	if c.replies%c.decode == 0 {
		c.decoded++
		if why := c.compare(pkt, s.tmpl); why != "" {
			c.bad(s.tmpl, why)
			return
		}
	}
	c.answered++
	if !record {
		return
	}
	// A reply that arrives after the last slice (the drain) is answered
	// but belongs to no slice.
	if c.slice < len(c.marks) && len(c.rtts) < cap(c.rtts) {
		c.rtts = append(c.rtts, uint32(now-s.sent))
	}
}

// markUntil closes every slice that ended at or before elapsed.
func (c *client) markUntil(elapsed int64) {
	for c.slice < len(c.marks) && elapsed >= int64(c.slice+1)*int64(time.Second) {
		cpu, err := cpuTime()
		if err != nil && c.err == nil {
			c.err = err
		}
		c.marks[c.slice] = mark{answered: c.answered, rtts: len(c.rtts), cpu: cpu}
		c.slice++
	}
}

func (c *client) bad(t uint32, why string) {
	c.wrong++
	if c.firstBad == "" {
		c.firstBad = fmt.Sprintf("template %d (%x): %s", t, c.st.question(t), why)
	}
}

// check is the per-reply verification: QR set, opcode QUERY, not
// truncated, RCODE 0, the question echoed byte for byte, and at least
// one answer — or, on the ring share, the shape of a referral.
func (c *client) check(pkt []byte, t uint32) string {
	flags := binary.BigEndian.Uint16(pkt[2:])
	switch {
	case flags&0x8000 == 0:
		return "QR clear"
	case flags&0x7800 != 0:
		return "opcode not QUERY"
	case flags&0x0200 != 0:
		return "truncated"
	case flags&0x000F != 0:
		return fmt.Sprintf("rcode %d", flags&0xF)
	case binary.BigEndian.Uint16(pkt[4:]) != 1:
		return "QDCOUNT not 1"
	}
	q := c.st.question(t)
	if len(pkt) < 12+len(q) || !bytes.Equal(pkt[12:12+len(q)], q) {
		return "question not echoed"
	}
	if binary.BigEndian.Uint16(pkt[6:]) >= 1 {
		return ""
	}
	if c.st.kind[t] == kindRing && binary.BigEndian.Uint16(pkt[8:]) >= 1 && binary.BigEndian.Uint16(pkt[10:]) >= 1 {
		return "" // referral; the sampled decode checks its contents
	}
	return "no answer"
}

// compare unpacks the whole reply and compares it with the oracle.
func (c *client) compare(pkt []byte, t uint32) string {
	m := &c.msg
	if err := m.Unpack(pkt); err != nil {
		return "unpack: " + err.Error()
	}
	kind := c.st.kind[t]
	if len(m.Answers) == 0 {
		if kind != kindRing {
			return "no answer records"
		}
		next, ok := cdn.Referral(m)
		if !ok || !next.Is4() || !c.site.peerAddrs[next.As4()] {
			return "malformed referral"
		}
		return ""
	}
	a, ok := m.Answers[0].(*dnswire.A)
	if !ok || len(m.Answers) != 1 {
		return "answer is not one A record"
	}
	if a.Hdr.Name != m.Question().Name {
		return "answer owner differs from question"
	}
	if a.Hdr.TTL == 0 || a.Hdr.TTL > recordTTL {
		return fmt.Sprintf("ttl %d", a.Hdr.TTL)
	}
	if !a.Addr.Is4() {
		return "answer is not IPv4"
	}
	got := a.Addr.As4()
	switch kind {
	case kindZone:
		if got != c.st.addr[t] {
			return fmt.Sprintf("address %v, want %v", a.Addr, netip.AddrFrom4(c.st.addr[t]))
		}
		return ""
	case kindRoute:
		if got != c.st.addr[t] {
			return fmt.Sprintf("address %v, want %v", a.Addr, netip.AddrFrom4(c.st.addr[t]))
		}
	case kindRing:
		if !c.site.ringAddrs[got] {
			return fmt.Sprintf("address %v is no cache server", a.Addr)
		}
	}
	// Routed answers echo the query's ECS option with the scope set.
	q := c.st.query(t)
	ecs, ok := m.ECS()
	if !ok {
		return "ECS option not echoed"
	}
	sub := [4]byte{q[len(q)-3], q[len(q)-2], q[len(q)-1], 0}
	if ecs.Family != 1 || ecs.SourcePrefix != 24 || ecs.Address != netip.AddrFrom4(sub) {
		return fmt.Sprintf("ECS echo %v", ecs)
	}
	if ecs.ScopePrefix != c.st.scope[t] {
		return fmt.Sprintf("ECS scope %d, want %d", ecs.ScopePrefix, c.st.scope[t])
	}
	return ""
}

// warmup fills the caches through the sockets: every template once
// when the stream says so, then the stream's first warm positions.
func (c *client) warmup() error {
	if c.st.prime {
		t := uint32(0)
		if err := c.run(func() (uint32, bool) {
			if int(t) == c.st.templates() {
				return 0, false
			}
			t++
			return t - 1, true
		}, false); err != nil {
			return err
		}
	}
	return c.play(c.st.warm, false)
}

// play sends the next n stream positions.
func (c *client) play(n int, record bool) error {
	end := c.pos + n
	return c.run(func() (uint32, bool) {
		if c.pos == end {
			return 0, false
		}
		c.pos++
		return c.st.at(c.pos - 1), true
	}, record)
}

// prepare resets the counts and sizes the sample buffers for a timed
// phase of seconds one-second slices. It is separate from measure so
// the buffers are not charged to the phase's allocation counts.
func (c *client) prepare(seconds int) {
	c.tally = tally{
		rtts:  make([]uint32, 0, seconds*400_000),
		marks: make([]mark, seconds),
	}
	c.slice = 0
}

// measure runs the timed phase prepare sized and returns the CPU time
// at its start, the base of the first slice.
func (c *client) measure() (time.Duration, error) {
	seconds := len(c.marks)
	cpu0, err := cpuTime()
	if err != nil {
		return 0, err
	}
	start := c.now()
	stop := start + int64(seconds)*int64(time.Second)
	if err := c.run(func() (uint32, bool) {
		if c.now() >= stop {
			return 0, false
		}
		c.pos++
		return c.st.at(c.pos - 1), true
	}, true); err != nil {
		return 0, err
	}
	c.markUntil(c.now() - start) // a last slice no reply arrived after
	return cpu0, c.err
}

// burstResult is what the burst probe saw.
type burstResult struct {
	sent, received uint64
	rounds         []uint32 // ns from first send to last reply, complete rounds only
}

const (
	burstSize  = 64
	burstQuiet = 20 * time.Millisecond
)

// burst is the shed-contract probe: burstSize queries written back to
// back, replies collected until all have arrived or the socket has
// been quiet for burstQuiet, repeated for d. It counts replies only;
// the closed loop is what verifies them.
func (c *client) burst(d time.Duration) (burstResult, error) {
	var res burstResult
	stop := c.now() + int64(d)
	for c.now() < stop {
		first := c.now()
		lo := c.next
		for i := 0; i < burstSize; i++ {
			q := c.st.query(c.st.at(c.pos))
			c.pos++
			binary.BigEndian.PutUint16(q, c.next)
			c.next++
			if _, err := c.conn.Write(q); err != nil {
				return res, err
			}
		}
		res.sent += burstSize
		got := 0
		for got < burstSize {
			if err := c.conn.SetReadDeadline(time.Now().Add(burstQuiet)); err != nil {
				return res, err
			}
			n, err := c.conn.Read(c.rbuf[:])
			if err != nil {
				if errors.Is(err, os.ErrDeadlineExceeded) {
					break
				}
				return res, err
			}
			// IDs of this round are lo..lo+63 modulo 2^16.
			if n >= 12 && binary.BigEndian.Uint16(c.rbuf[:])-lo < burstSize {
				got++
			}
		}
		res.received += uint64(got)
		if got == burstSize {
			res.rounds = append(res.rounds, uint32(c.now()-first))
		}
	}
	return res, nil
}
