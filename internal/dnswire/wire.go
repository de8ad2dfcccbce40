package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// This file holds the wire-level fast-path helpers: a pool of
// MaxMessageSize packet buffers shared by the socket read loops,
// response packing, and the client transport, plus in-place patch
// helpers that let a cached packed response be re-served without the
// decode → clone → re-encode round trip. A cached reply then costs one
// buffer copy, a 2-byte ID patch, two flag-bit patches, a fixed set of
// 4-byte TTL rewrites and — for an ECS query — one option splice, all
// at offsets recorded once at insert time.

// bufPool recycles MaxMessageSize packet buffers. Entries are stored
// as *[]byte; the headers themselves circulate through boxPool so a
// steady-state Get/Put cycle allocates nothing at all — taking the
// address of a local []byte in PutBuffer would otherwise heap-box a
// fresh 24-byte header on every recycle, one allocation per packet.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, MaxMessageSize)
		return &b
	},
}

// boxPool recycles the *[]byte headers bufPool entries travel in.
// A header leaves boxPool emptied (nil slice) whenever its buffer is
// checked out, so a pooled box never pins a buffer the caller owns.
var boxPool = sync.Pool{}

// GetBuffer returns a packet buffer of length MaxMessageSize from the
// shared pool. Return it with PutBuffer when the packet has been
// fully consumed; the contents are not zeroed between uses.
func GetBuffer() []byte {
	p := bufPool.Get().(*[]byte)
	b := *p
	*p = nil
	boxPool.Put(p)
	poolTrackGet(b)
	return b
}

// PutBuffer recycles a buffer obtained from GetBuffer (or any slice
// with at least MaxMessageSize capacity; smaller slices are dropped,
// so callers may hand back foreign buffers safely). The caller must
// not touch b afterwards. Returning the same buffer twice corrupts a
// later response; build with -tags pooldebug to make that panic at
// the second Put instead.
func PutBuffer(b []byte) {
	if cap(b) < MaxMessageSize {
		return
	}
	b = b[:MaxMessageSize]
	poolTrackPut(b)
	var p *[]byte
	if v := boxPool.Get(); v != nil {
		p = v.(*[]byte)
	} else {
		p = new([]byte)
	}
	*p = b
	bufPool.Put(p)
}

// skipName advances past one wire-format name without decoding it.
// A compression pointer terminates the name in place (pointers are
// two bytes and always end the label sequence).
func skipName(msg []byte, off int) (int, error) {
	for {
		if off >= len(msg) {
			return 0, ErrBufferTooSmall
		}
		c := msg[off]
		switch {
		case c == 0:
			return off + 1, nil
		case c&0xC0 == 0xC0:
			if off+2 > len(msg) {
				return 0, ErrBadPointer
			}
			return off + 2, nil
		case c&0xC0 != 0:
			return 0, fmt.Errorf("dnswire: reserved label type 0x%02x", c&0xC0)
		default:
			off += 1 + int(c)
		}
	}
}

// ECSAt locates the ECS option of a packed response's OPT record for
// EchoECS: the offsets of the record's RDLENGTH field and of the
// option's OPTION-CODE. The zero value means there is no such option.
type ECSAt struct{ RDLen, Opt int }

// ErrOPTNotLast rejects a response whose ECS-bearing OPT record is
// followed by further records: EchoECS may change the option's length,
// and bytes after it could hold compression pointers it cannot fix up.
var ErrOPTNotLast = errors.New("dnswire: records follow an ECS-bearing OPT")

// PatchOffsets walks a packed message and returns what a cache records
// once, at insert, so every later reply is a copy plus fixed-position
// patches: the byte offsets of every resource-record TTL field outside
// OPT pseudo-records (whose TTL carries the extended rcode, not a
// lifetime), and the location of the first OPT's ECS option.
func PatchOffsets(wire []byte) (ttls []int, ecs ECSAt, err error) {
	if len(wire) < 12 {
		return nil, ECSAt{}, ErrShortMessage
	}
	qd := int(binary.BigEndian.Uint16(wire[4:]))
	// arStart is the index of the first additional-section record: like
	// Message.OPT, only that section's first OPT counts as the EDNS record.
	arStart := int(binary.BigEndian.Uint16(wire[6:])) + int(binary.BigEndian.Uint16(wire[8:]))
	rrs := arStart + int(binary.BigEndian.Uint16(wire[10:]))
	off := 12
	for i := 0; i < qd; i++ {
		if off, err = skipName(wire, off); err != nil {
			return nil, ECSAt{}, err
		}
		off += 4 // type + class
		if off > len(wire) {
			return nil, ECSAt{}, ErrBufferTooSmall
		}
	}
	sawOPT := false
	for i := 0; i < rrs; i++ {
		if off, err = skipName(wire, off); err != nil {
			return nil, ECSAt{}, err
		}
		if off+10 > len(wire) {
			return nil, ECSAt{}, ErrBufferTooSmall
		}
		isOPT := Type(binary.BigEndian.Uint16(wire[off:])) == TypeOPT
		if !isOPT {
			ttls = append(ttls, off+4)
		}
		end := off + 10 + int(binary.BigEndian.Uint16(wire[off+8:]))
		if end > len(wire) {
			return nil, ECSAt{}, ErrBufferTooSmall
		}
		if isOPT && !sawOPT && i >= arStart {
			sawOPT = true
			for o := off + 10; o+4 <= end; {
				olen := int(binary.BigEndian.Uint16(wire[o+2:]))
				if binary.BigEndian.Uint16(wire[o:]) == OptionCodeECS {
					if olen < 4 || o+4+olen > end {
						return nil, ECSAt{}, ErrBadRdata
					}
					if i != rrs-1 {
						return nil, ECSAt{}, ErrOPTNotLast
					}
					ecs = ECSAt{RDLen: off + 8, Opt: o}
					break
				}
				o += 4 + olen
			}
		}
		off = end
	}
	return ttls, ecs, nil
}

// EchoECS rewrites the ECS option at at, inside the packed response
// buf[:n], into the RFC 7871 §7.2.1 echo of a query that carried q:
// family, source prefix and address mirror the query, while the scope
// stays the stored answer's — the entry may have been stored by a
// sibling subnet whose address differs in the bits beyond the scope.
// The option length, the OPT RDLENGTH and whatever follows the option
// are moved to fit; the new message length is returned. The bytes are
// those Pack would emit for the decoded message with its echo replaced.
func EchoECS(buf []byte, n int, at ECSAt, q *ECSOption) (int, error) {
	data := at.Opt + 4
	old := int(binary.BigEndian.Uint16(buf[at.Opt+2:]))
	echo := *q
	echo.ScopePrefix = buf[data+3]
	var scratch [20]byte // family, source, scope and at most 16 address octets
	opt, err := echo.packOption(scratch[:0])
	if err != nil {
		return 0, err
	}
	delta := len(opt) - old
	if n+delta > len(buf) {
		return 0, fmt.Errorf("dnswire: ECS echo grows the message past %d bytes", len(buf))
	}
	copy(buf[data+len(opt):], buf[data+old:n])
	copy(buf[data:], opt)
	binary.BigEndian.PutUint16(buf[at.Opt+2:], uint16(len(opt)))
	binary.BigEndian.PutUint16(buf[at.RDLen:], uint16(int(binary.BigEndian.Uint16(buf[at.RDLen:]))+delta))
	return n + delta, nil
}

// AgeTTLs subtracts age seconds from each TTL field at the given
// offsets (recorded by PatchOffsets), clamping at zero — the in-place
// equivalent of decoding the message and aging each record.
func AgeTTLs(wire []byte, offsets []int, age uint32) {
	if age == 0 {
		return
	}
	for _, off := range offsets {
		if off+4 > len(wire) {
			continue
		}
		ttl := binary.BigEndian.Uint32(wire[off:])
		if ttl > age {
			ttl -= age
		} else {
			ttl = 0
		}
		binary.BigEndian.PutUint32(wire[off:], ttl)
	}
}

// ClampTTLs caps each TTL field at the given offsets (recorded by
// PatchOffsets) to at most max seconds — the in-place patch behind
// RFC 8767 serve-stale, where an expired cached answer goes out with
// its TTLs clamped to a short stale lifetime instead of the original
// (now meaningless) values. TTLs already at or below max are left
// alone, so short-lived records never gain lifetime from going stale.
func ClampTTLs(wire []byte, offsets []int, max uint32) {
	for _, off := range offsets {
		if off+4 > len(wire) {
			continue
		}
		if binary.BigEndian.Uint32(wire[off:]) > max {
			binary.BigEndian.PutUint32(wire[off:], max)
		}
	}
}

// PatchID overwrites the transaction ID of a packed message.
func PatchID(wire []byte, id uint16) {
	if len(wire) >= 2 {
		binary.BigEndian.PutUint16(wire, id)
	}
}

// PatchReplyBits rewrites the request-mirrored flag bits of a packed
// response: RD (copied from the query per RFC 1035 §4.1.1) and CD
// (echoed per RFC 4035 §3.2.2). QR, AA, RA, rcode and the rest are
// properties of the stored answer and are left untouched.
func PatchReplyBits(wire []byte, rd, cd bool) {
	if len(wire) < 4 {
		return
	}
	const (
		rdBit = byte(flagRD >> 8) // high flag byte
		cdBit = byte(flagCD)      // low flag byte
	)
	wire[2] &^= rdBit
	if rd {
		wire[2] |= rdBit
	}
	wire[3] &^= cdBit
	if cd {
		wire[3] |= cdBit
	}
}

// WireRcode extracts the 4-bit header rcode of a packed message
// (extended rcode bits from an OPT record are not folded in).
func WireRcode(wire []byte) Rcode {
	if len(wire) < 4 {
		return RcodeServerFailure
	}
	return Rcode(wire[3] & 0xF)
}
