package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
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

// ECSAt locates the ECS option of a packed response's OPT record for
// EchoECS: the offsets of the record's RDLENGTH field and of the
// option's OPTION-CODE. The zero value means there is no such option.
type ECSAt struct{ RDLen, Opt int }

// ErrOPTNotLast rejects a response whose ECS-bearing OPT record is
// followed by further records: EchoECS may change the option's length,
// and bytes after it could hold compression pointers it cannot fix up.
// PatchOffsets reports it after the whole walk, Image filled in: such a
// response is well-formed and may be relayed, just not stored.
var ErrOPTNotLast = errors.New("dnswire: records follow an ECS-bearing OPT")

// Image is what one walk over a packed response reads off it: where a
// cache patches every later reply, and what a forwarder or cache would
// otherwise decode the message to learn.
type Image struct {
	// TTLs are the offsets of every record's TTL field outside OPT
	// pseudo-records (whose TTL carries the extended rcode, not a
	// lifetime); ECS locates the ECS option of the first OPT in the
	// additional section, the one Message.OPT returns.
	TTLs []int
	ECS  ECSAt
	// Rcode has that OPT's extended bits folded in; Answers is ANCOUNT;
	// Scope is the ECS option's scope prefix, 0 without the option.
	Rcode   Rcode
	Answers int
	Scope   uint8
	// TTL is the lifetime in seconds the records give the response: the
	// minimum answer TTL, or without answers the RFC 2308 min(TTL,
	// MINIMUM) of the first authority SOA, or 0 with neither.
	TTL uint32
}

// PatchOffsets walks a packed message once and returns its Image,
// appending the TTL offsets to ttls. A response that passes may be
// relayed and cached without ever being decoded, so the walk refuses
// everything Message.Unpack refuses; FuzzResponseWalk holds it to that,
// and to reading the same rcode, lifetime and scope off the bytes.
func PatchOffsets(wire []byte, ttls []int) (Image, error) {
	if len(wire) < 12 {
		return Image{}, ErrShortMessage
	}
	if len(wire) > MaxMessageSize {
		return Image{}, fmt.Errorf("dnswire: message is %d bytes, max %d", len(wire), MaxMessageSize)
	}
	qd := int(binary.BigEndian.Uint16(wire[4:]))
	an := int(binary.BigEndian.Uint16(wire[6:]))
	ns := int(binary.BigEndian.Uint16(wire[8:]))
	ar := int(binary.BigEndian.Uint16(wire[10:]))
	if qd > maxSectionRecords || an > maxSectionRecords || ns > maxSectionRecords || ar > maxSectionRecords {
		return Image{}, ErrTooManyRecords
	}
	img := Image{TTLs: ttls, Rcode: Rcode(wire[3] & 0xF), Answers: an}
	if an > 0 {
		img.TTL = 1<<32 - 1
	}
	off := 12
	var err error
	for i := 0; i < qd; i++ {
		if off, err = checkName(wire, off, nil); err != nil {
			return Image{}, err
		}
		if off += 4; off > len(wire) { // type + class
			return Image{}, ErrBufferTooSmall
		}
	}
	sawOPT, sawSOA, notLast := false, false, false
	for i, rrs := 0, an+ns+ar; i < rrs; i++ {
		if off, err = checkName(wire, off, img.TTLs); err != nil {
			return Image{}, err
		}
		if off+10 > len(wire) {
			return Image{}, ErrBufferTooSmall
		}
		t := Type(binary.BigEndian.Uint16(wire[off:]))
		ttl := binary.BigEndian.Uint32(wire[off+4:])
		end := off + 10 + int(binary.BigEndian.Uint16(wire[off+8:]))
		if end > len(wire) {
			return Image{}, ErrBufferTooSmall
		}
		if t != TypeOPT {
			img.TTLs = append(img.TTLs, off+4)
		}
		ecsOpt, err := checkRdata(wire, off+10, end, t, img.TTLs)
		switch {
		case err != nil:
			return Image{}, err
		case t != TypeOPT && i < an:
			img.TTL = min(img.TTL, ttl)
		case t == TypeSOA && an == 0 && i < ns && !sawSOA:
			sawSOA = true
			img.TTL = min(ttl, binary.BigEndian.Uint32(wire[end-4:]))
		case t == TypeOPT && i >= an+ns && !sawOPT:
			sawOPT = true
			img.Rcode |= Rcode(ttl>>24) << 4
			if ecsOpt != 0 {
				img.ECS = ECSAt{RDLen: off + 8, Opt: ecsOpt}
				img.Scope = wire[ecsOpt+7]
				notLast = i != rrs-1
			}
		}
		off = end
	}
	if off != len(wire) {
		return Image{}, ErrTrailingGarbage
	}
	if notLast {
		return img, ErrOPTNotLast
	}
	return img, nil
}

// checkName is scanName for a response that is patched undecoded: where
// the name follows compression pointers it must read only bytes no
// patch rewrites — nothing in the header (ID and flag bits change per
// reply), in a TTL field (ttls: those walked so far), or at or past the
// pointer it jumped from, where later records' lie. A compressor points
// at an earlier name, so no honest response notices; a name aliasing
// patched bytes would decode differently, or not, after every restamp.
func checkName(wire []byte, off int, ttls []int) (int, error) {
	next, err := scanName(wire, off)
	if err != nil {
		return 0, err
	}
	for limit := -1; ; {
		c, n := wire[off], 1
		if c >= 0xC0 {
			n = 2
		} else {
			n += int(c)
		}
		if limit >= 0 {
			i := sort.Search(len(ttls), func(i int) bool { return ttls[i]+4 > off })
			if off < 12 || off+n > limit || i < len(ttls) && ttls[i] < off+n {
				return 0, ErrBadPointer
			}
		}
		switch {
		case c == 0:
			return next, nil
		case c >= 0xC0:
			limit, off = off, int(c&0x3F)<<8|int(wire[off+1])
		default:
			off += n
		}
	}
}

// checkRdata holds the RDATA at wire[off:end] of a record of type t to
// the shape that type's unpackData demands — so many fixed octets, so
// many names (checkName), so many fixed octets — and returns, for an
// OPT, the offset of its first ECS option, 0 when there is none.
func checkRdata(wire []byte, off, end int, t Type, ttls []int) (ecsOpt int, err error) {
	head, names, tail := 0, 0, 0
	switch t {
	case TypeA:
		head = 4
	case TypeAAAA:
		head = 16
	case TypeCNAME, TypeNS, TypePTR:
		names = 1
	case TypeMX:
		head, names = 2, 1
	case TypeSRV:
		head, names = 6, 1
	case TypeSOA:
		names, tail = 2, 20
	case TypeTXT:
		for off < end {
			off += 1 + int(wire[off])
		}
	case TypeOPT:
		for off < end {
			if off+4 > end {
				return 0, ErrBadRdata
			}
			opt := off
			if off += 4 + int(binary.BigEndian.Uint16(wire[off+2:])); off > end {
				return 0, ErrBadRdata
			}
			if binary.BigEndian.Uint16(wire[opt:]) == OptionCodeECS {
				if err := new(ECSOption).unpackOption(wire[opt+4 : off]); err != nil {
					return 0, err
				}
				if ecsOpt == 0 {
					ecsOpt = opt
				}
			}
		}
	default:
		return 0, nil
	}
	off += head
	for ; names > 0; names-- {
		if off >= end {
			return 0, ErrBadRdata
		}
		if off, err = checkName(wire, off, ttls); err != nil {
			return 0, err
		}
	}
	if off+tail != end {
		return 0, ErrBadRdata
	}
	return ecsOpt, nil
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
