package dnsserver

import (
	"context"
	"fmt"
	"net/netip"

	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/telemetry"
)

// maxUDPPayload caps the EDNS payload size a query may advertise
// (RFC 6891 §6.2.5 suggests 4096 as the most a responder should
// honour). The advertisement is attacker-chosen and a UDP source
// address is spoofable: uncapped, a 40-byte query advertising 65 535
// buys a 64 KiB reply aimed at a third party.
const maxUDPPayload = 4096

// serveScratch is the parse and reply state serveQuery works in. The
// socket ingresses reuse one per serve goroutine or connection, so the
// steady state allocates nothing for plumbing or parsing; the scratch
// message is overwritten by the next query, so handlers must not retain
// it past ServeDNS — the same contract the wire buffers already carry.
type serveScratch struct {
	msg    dnswire.Message
	req    Request
	reply  replyImage
	intern *dnswire.NameIntern // nil: question names are not interned
	wait   func() bool         // Request.wait for every query; nil off UDP
}

// serveQuery owns one query from bytes to bytes, for every ingress:
// parse pkt into st, open the telemetry span (hub may be nil), run the
// chain through ResolveTo, and hand back the reply as one wire image,
// buf[:n], in a pooled buffer the caller now owns. buf is nil when
// there is nothing to send: pkt was not DNS, or no reply could be
// packed.
//
// limit is the largest reply the transport carries. Below
// MaxMessageSize it is a datagram ceiling, and the reply is further
// held to the payload size the query advertised — 512 without an OPT;
// a larger answer leaves truncated, TC set. A stream or a virtual
// datagram passes MaxMessageSize and gets every reply whole.
func serveQuery(h Handler, hub *telemetry.Hub, st *serveScratch, pkt []byte, client netip.AddrPort, transport string, limit int) (buf []byte, n int) {
	msg := &st.msg
	if err := msg.UnpackQuery(pkt, st.intern); err != nil {
		return nil, 0 // not DNS; drop like a real server
	}
	if limit < dnswire.MaxMessageSize {
		adv := dnswire.MaxUDPSize
		if opt, ok := msg.OPT(); ok {
			adv = max(adv, int(opt.UDPSize()))
		}
		limit = min(adv, limit)
	}
	st.reply = replyImage{limit: limit}
	st.req = Request{Msg: msg, Client: client, Transport: transport, wait: st.wait}
	ctx := context.Background()
	var sp *telemetry.Span // nil-safe, like the hub's Finish
	if hub != nil {
		sp = hub.BeginAddr(st.req.Name(), st.req.Type().String(), transport, client)
		ctx = telemetry.ContextWith(ctx, sp)
	}
	rcode := ResolveTo(ctx, h, &st.reply, &st.req)
	hub.Finish(sp, rcode.String())
	return st.reply.buf, st.reply.n
}

// replyImage is the one ResponseWriter the chain is run against, by the
// three ingresses (through serveQuery) and by a cache miss (Cache.fill)
// alike. It keeps the first response written as a wire image in a
// pooled buffer whoever reads buf then owns: taken over as it is from a
// plugin that relays one (Cache.reply, Stub, Forward), packed here —
// the one time an answer is packed — from a plugin that builds a
// Message (Zone, the C-DNS router). An image above limit is refused, so
// that writeImage hands it over decoded and WriteMsg cuts it down.
type replyImage struct {
	buf   []byte // nil until written
	n     int
	limit int
}

// Written implements responseTracker.
func (w *replyImage) Written() bool { return w.buf != nil }

// WireSize implements WireWriter.
func (w *replyImage) WireSize() int { return w.limit }

// WriteWireOwned implements OwnedWireWriter: buf becomes the reply, so
// a cache hit's patched image needs no copy on its way to the socket.
func (w *replyImage) WriteWireOwned(buf []byte, n int) error {
	switch {
	case w.buf != nil:
		dnswire.PutBuffer(buf)
	case n > w.limit:
		dnswire.PutBuffer(buf)
		return fmt.Errorf("dnsserver: %d-byte wire response exceeds %d-byte payload limit", n, w.limit)
	default:
		w.buf, w.n = buf, n
	}
	return nil
}

// WriteWire implements WireWriter: the response is copied into a pooled
// buffer, since the caller keeps wire.
func (w *replyImage) WriteWire(wire []byte) error {
	buf := dnswire.GetBuffer()
	return w.WriteWireOwned(buf, copy(buf, wire))
}

// WriteMsg implements ResponseWriter: pack into a pooled buffer. A
// response larger than limit is truncated with TC set — on a clone, so
// a message the handler still holds is never mutated here. This is
// where a cache reply too large for the transport is cut down: the
// cache hands it over decoded.
func (w *replyImage) WriteMsg(m *dnswire.Message) error {
	if w.buf != nil {
		return nil
	}
	buf := dnswire.GetBuffer()
	wire, err := m.AppendPack(buf[:0])
	if err == nil && len(wire) > w.limit {
		t := m.Clone()
		t.TruncateTo(w.limit)
		wire, err = t.AppendPack(buf[:0])
	}
	if err != nil {
		dnswire.PutBuffer(buf)
		return err
	}
	w.buf, w.n = buf, len(wire)
	return nil
}
