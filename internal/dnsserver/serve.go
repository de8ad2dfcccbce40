package dnsserver

import (
	"context"
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
// message is overwritten by the next query, OPT and ECS option in place,
// so handlers must not retain it or its records past ServeDNS — the same
// contract the wire buffers carry; a prefetch or hedge runs on a Clone.
type serveScratch struct {
	msg    dnswire.Message
	req    Request
	reply  replyImage
	intern *dnswire.NameIntern // nil: question names are not interned
	wait   func() bool         // Request.wait for every query; nil off UDP
}

// serveQuery owns one query from bytes to bytes, for every ingress and
// for Resolve: parse pkt into st, open the telemetry span (hub may be
// nil) under ctx, run the chain through ResolveTo, and hand back the
// reply as one wire image, buf[:n], in a pooled buffer the caller now
// owns. buf is nil when there is nothing to send: pkt was not DNS, the
// query was shed, or no reply could be packed.
//
// limit is the largest reply the transport carries. Below
// MaxMessageSize it is a datagram ceiling, and the reply is further
// held to the payload size the query advertised — 512 without an OPT;
// a larger answer leaves truncated, TC set. A stream or a virtual
// datagram passes MaxMessageSize and gets every reply whole.
func serveQuery(ctx context.Context, h Handler, hub *telemetry.Hub, st *serveScratch, pkt []byte, client netip.AddrPort, transport string, limit int) (buf []byte, n int) {
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
	var sp *telemetry.Span // nil-safe, like the hub's Finish
	if hub != nil {
		sp = hub.BeginAddr(st.req.Name(), st.req.Type().String(), transport, client)
		ctx = telemetry.ContextWith(ctx, sp)
	}
	rcode := ResolveTo(ctx, h, &st.reply, &st.req)
	if buf, n := st.reply.buf, st.reply.n; st.req.addedOPT && buf != nil {
		// Cut the OPT the ECS plugin added off the reply again, unless the
		// walk refuses the reply or its extended rcode needs the OPT. The
		// walk's TTL offsets fit on the stack for up to 16 records.
		var ttls [16]int
		if img, err := dnswire.PatchOffsets(buf[:n], ttls[:0]); err == nil {
			if n, err = dnswire.FollowOPT(buf, n, img.OPT, false); err == nil {
				st.reply.n = n
			}
		}
	}
	hub.Finish(sp, rcode.String())
	return st.reply.buf, st.reply.n
}

// replyImage is the one ResponseWriter the chain is run against, by the
// three ingresses and Resolve (through serveQuery), by a cache miss
// (Cache.fill) and by a prefetch alike. It keeps the first response
// written as a wire image in a pooled buffer whoever reads buf then
// owns: taken over as it is from a plugin that relays or writes one
// (Cache.reply, Stub, Forward, WriteReply), packed here from a Message
// (the resolver plugin's). It is the one place a reply is cut to size:
// an image above limit is truncated in place (dnswire.Truncate).
type replyImage struct {
	buf   []byte // nil until written
	n     int
	limit int
}

// Written implements ResponseWriter.
func (w *replyImage) Written() bool { return w.buf != nil }

// WriteWireOwned implements OwnedWireWriter: buf becomes the reply, so
// a cache hit's patched image needs no copy on its way to the socket.
func (w *replyImage) WriteWireOwned(buf []byte, n int) (err error) {
	if w.buf == nil {
		if n, err = dnswire.Truncate(buf, n, w.limit); err == nil {
			w.buf, w.n = buf, n
			return nil
		}
	}
	dnswire.PutBuffer(buf)
	return err
}

// WriteMsg implements ResponseWriter: pack into a pooled buffer and
// take that over like any other image.
func (w *replyImage) WriteMsg(m *dnswire.Message) error {
	buf := dnswire.GetBuffer()
	wire, err := m.AppendPack(buf[:0])
	if err != nil {
		dnswire.PutBuffer(buf)
		return err
	}
	return w.WriteWireOwned(buf, len(wire))
}

// WriteImage hands w the response image buf[:n] and the pooled buffer
// it is in (Cache, Forward, WriteReply). An OwnedWireWriter takes the
// buffer itself, saving the last copy before the socket. A writer that
// cannot take bytes gets it decoded, here and only here.
func WriteImage(w ResponseWriter, buf []byte, n int) error {
	if ow, ok := w.(OwnedWireWriter); ok {
		return ow.WriteWireOwned(buf, n)
	}
	msg := new(dnswire.Message)
	err := msg.Unpack(buf[:n])
	dnswire.PutBuffer(buf)
	if err != nil {
		return err
	}
	return w.WriteMsg(msg)
}

// WriteReply writes every reply the server authors — a zone's, the C-DNS
// router's, the one ResolveTo synthesizes — with dnswire.AppendReply
// into a pooled buffer handed on through WriteImage. It returns reply's
// rcode, or SERVFAIL with the error when nothing could be written.
func WriteReply(w ResponseWriter, r *Request, reply *dnswire.Reply) (dnswire.Rcode, error) {
	buf := dnswire.GetBuffer()
	wire, err := dnswire.AppendReply(buf[:0], r.Msg, reply)
	if err != nil {
		dnswire.PutBuffer(buf)
		return dnswire.RcodeServerFailure, err
	}
	if err := WriteImage(w, buf, len(wire)); err != nil {
		return dnswire.RcodeServerFailure, err
	}
	return reply.Rcode, nil
}

// writeUnscoped is WriteReply for a reply that is the same for every
// subnet: an ECS option the query carried is echoed at scope 0 (RFC
// 7871 §7.2.1), so resolvers may serve it to all their clients.
func writeUnscoped(w ResponseWriter, r *Request, reply dnswire.Reply) (dnswire.Rcode, error) {
	var echo dnswire.ECSOption
	if ecs, ok := r.Msg.ECS(); ok {
		echo = ecs.Echo(0)
		reply.Echo = &echo
	}
	return WriteReply(w, r, &reply)
}
