// Package dnsclient implements a DNS stub-resolver client: query
// construction, UDP exchange with retransmission, truncation-triggered
// TCP fallback, and response sanity checking.
//
// The client is transport-agnostic. NetTransport speaks real UDP and
// TCP sockets, keeping its upstream UDP sockets between exchanges;
// SimTransport runs the same exchanges inside a simnet virtual
// network, which is how every experiment in this repository executes.
package dnsclient

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	randv2 "math/rand/v2"
	"net/netip"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/telemetry"
)

// Errors returned by Client.Do.
var (
	ErrIDMismatch       = errors.New("dnsclient: response ID does not match query")
	ErrQuestionMismatch = errors.New("dnsclient: response question does not match query")
	ErrAllAttemptsFail  = errors.New("dnsclient: all attempts failed")
)

// Transport moves one packed DNS message to a server and returns the
// packed response. Implementations decide what the tcp flag means;
// for NetTransport it selects the socket type, for SimTransport it is
// ignored (the virtual network has no 512-byte limit).
//
// deadline is the attempt's time limit, zero for none, and is the
// transport's to enforce (NetTransport sets it on the socket). The
// client passes it as a value and starts no timer of its own, so ctx
// carries only the caller's cancellation.
type Transport interface {
	Exchange(ctx context.Context, deadline time.Time, server netip.AddrPort, query []byte, tcp bool) ([]byte, error)
}

// Client performs DNS exchanges with retries and TCP fallback.
// The zero value is not usable; populate Transport first.
type Client struct {
	Transport Transport
	// Timeout bounds each individual attempt. Zero means 5s.
	Timeout time.Duration
	// Retries is the number of additional UDP attempts after the
	// first one fails or times out.
	Retries int
	// UDPSize, when non-zero, attaches an EDNS(0) OPT advertising
	// this payload size to queries that lack one.
	UDPSize uint16

	rng atomic.Pointer[rand.Rand]
	mu  sync.Mutex // serializes draws from rng
}

// SetRand installs a deterministic RNG for query ID generation; tests
// and simulations use this so runs replay exactly.
func (c *Client) SetRand(rng *rand.Rand) {
	c.rng.Store(rng)
}

// newID draws a query ID. Once sockets (and so source ports) are
// reused, the ID is most of what an off-path spoofer has to guess
// (RFC 5452), so it comes from math/rand/v2's top-level generator —
// ChaCha8, randomly seeded, lock-free — unless SetRand installed a
// deterministic source.
func (c *Client) newID() uint16 {
	rng := c.rng.Load()
	if rng == nil {
		return uint16(randv2.Uint32())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return uint16(rng.Intn(1 << 16))
}

// attemptDeadline is when an attempt starting now ends: timeout from
// now, or the caller's own deadline if that comes first.
func attemptDeadline(ctx context.Context, timeout time.Duration) time.Time {
	deadline := time.Now().Add(timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		return d
	}
	return deadline
}

// Query is a convenience wrapper building a recursion-desired question
// for (name, t) and calling Do.
func (c *Client) Query(ctx context.Context, server netip.AddrPort, name string, t dnswire.Type) (*dnswire.Message, error) {
	q := new(dnswire.Message)
	q.SetQuestion(name, t)
	return c.Do(ctx, server, q)
}

// Do is Exchange for a caller that wants the response decoded. The
// image's buffer is recycled (a foreign slice is unaffected: PutBuffer
// drops it).
func (c *Client) Do(ctx context.Context, server netip.AddrPort, q *dnswire.Message) (*dnswire.Message, error) {
	img, _, err := c.Exchange(ctx, server, "", q)
	if err != nil {
		return nil, err
	}
	resp := new(dnswire.Message)
	err = resp.Unpack(img)
	dnswire.PutBuffer(img)
	if err != nil {
		return nil, fmt.Errorf("unpacking response: %w", err)
	}
	return resp, nil
}

// Exchange sends q to server and returns the response as it arrived:
// its wire image — the caller recycles it with dnswire.PutBuffer or
// hands it to a writer that takes ownership — and its rcode, extended
// bits included. The image is never decoded: it is checked against the
// query on the bytes (checkReply) and walked by dnswire.PatchOffsets,
// which refuses whatever Message.Unpack would. upstream is server as
// hop notes should show it; empty means server.String().
//
// Exchange never mutates the caller's message, so the same query value
// can be reused (or raced by hedged exchanges) safely: what is packed is
// a header copy carrying the client's own ID over the caller's records,
// which are only read — cloned first only when an OPT has to be attached
// per UDPSize. A truncated UDP response is retried over TCP.
func (c *Client) Exchange(ctx context.Context, server netip.AddrPort, upstream string, q *dnswire.Message) ([]byte, dnswire.Rcode, error) {
	if c.Transport == nil {
		return nil, 0, errors.New("dnsclient: no transport configured")
	}
	sent := *q
	if c.UDPSize > 0 {
		if _, ok := q.OPT(); !ok {
			sent = *q.Clone()
			sent.SetEDNS(c.UDPSize)
		}
	}
	sent.ID = c.newID()
	q = &sent
	// Over real sockets the packed query can live in a pooled buffer:
	// its bytes are consumed by the socket write, so the buffer is free
	// once Exchange returns. Virtual transports (simnet) may keep
	// datagrams queued past the exchange, so they get a private
	// allocation.
	var buf []byte
	if _, pooled := c.Transport.(*NetTransport); pooled {
		buf = dnswire.GetBuffer()
		defer dnswire.PutBuffer(buf)
	} else {
		buf = make([]byte, 0, 128)
	}
	wire, err := q.AppendPack(buf[:0])
	if err != nil {
		return nil, 0, fmt.Errorf("packing query for %q: %w", q.Question().Name, err)
	}
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	// Each attempt is one timed "upstream" hop on the query's span, so
	// a live server's hop breakdown shows exactly how long was spent
	// waiting on which resolver.
	sp := telemetry.FromContext(ctx)
	if sp != nil && upstream == "" {
		upstream = server.String()
	}

	var lastErr error
	for n := 0; n <= c.Retries; n++ {
		hop := sp.StartHop("upstream")
		img, rcode, err := c.exchangeOnce(ctx, attemptDeadline(ctx, timeout), server, wire, false)
		if err == nil {
			hop.End(upstream)
			return img, rcode, nil
		}
		hop.End(upstream + " err attempt=" + strconv.Itoa(n))
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return nil, 0, fmt.Errorf("%w: query %s %s to %v: %v",
		ErrAllAttemptsFail, q.Question().Name, q.Question().Type, server, lastErr)
}

const qrBit, tcBit = 0x80, 0x02 // in a packed header's third octet

// exchangeOnce is one attempt: query out, reply image back, checked. A
// truncated UDP reply is retried over TCP on its header bit alone; a
// truncated TCP reply is returned as it is.
func (c *Client) exchangeOnce(ctx context.Context, deadline time.Time, server netip.AddrPort, query []byte, tcp bool) ([]byte, dnswire.Rcode, error) {
	raw, err := c.Transport.Exchange(ctx, deadline, server, query, tcp)
	if err != nil {
		return nil, 0, err
	}
	if err := checkReply(query, raw); err != nil {
		dnswire.PutBuffer(raw)
		return nil, 0, err
	}
	if raw[2]&tcBit != 0 && !tcp {
		dnswire.PutBuffer(raw)
		return c.exchangeOnce(ctx, deadline, server, query, true)
	}
	var ttls [8]int // keeps the offsets, the cache's business, off the heap
	img, err := dnswire.PatchOffsets(raw, ttls[:0])
	if err != nil && !errors.Is(err, dnswire.ErrOPTNotLast) {
		dnswire.PutBuffer(raw)
		return nil, 0, fmt.Errorf("malformed response: %w", err)
	}
	return raw, img.Rcode, nil
}

// checkReply applies the anti-spoofing checks of RFC 5452 §9 a stub can
// perform, to the bytes: resp carries query's ID, is a response, and
// echoes query's first question — the name label for label, ASCII case
// aside, type and class exactly. A missing or compressed question is a
// mismatch: query's own is neither (it is the first name Pack wrote).
func checkReply(query, resp []byte) error {
	if len(query) < 12 || len(resp) < 12 {
		return dnswire.ErrShortMessage
	}
	if resp[0] != query[0] || resp[1] != query[1] {
		return ErrIDMismatch
	}
	if resp[2]&qrBit == 0 {
		return errors.New("dnsclient: response flag not set")
	}
	if query[4]|query[5] == 0 {
		return nil // nothing was asked
	}
	end := 12
	for end < len(query) && query[end] != 0 {
		end += 1 + int(query[end])
	}
	end += 5 // the root label, type and class
	if end > len(query) || end > len(resp) || resp[4]|resp[5] == 0 ||
		!dnswire.EqualFoldASCII(resp[12:end-4], query[12:end-4]) || !bytes.Equal(resp[end-4:end], query[end-4:end]) {
		return ErrQuestionMismatch
	}
	return nil
}
