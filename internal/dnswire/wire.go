package dnswire

import (
	"bytes"
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

// ErrOPTNotLast rejects a response whose OPT record is followed by
// further records: EchoECS may change the record's length and FollowOPT
// may cut it off, and bytes after it could hold compression pointers
// neither can fix up. PatchOffsets reports it after the whole walk,
// Image filled in: such a response is well-formed and may be relayed,
// just not stored.
var ErrOPTNotLast = errors.New("dnswire: records follow an OPT")

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
	// OPT is the offset of that OPT record, 0 when there is none; it is
	// the response's last record unless PatchOffsets reports
	// ErrOPTNotLast.
	OPT int
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
		start := off
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
			img.OPT, notLast = start, i != rrs-1
			if ecsOpt != 0 {
				img.ECS = ECSAt{RDLen: off + 8, Opt: ecsOpt}
				img.Scope = wire[ecsOpt+7]
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
	echo := q.Echo(buf[data+3])
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

// FollowOPT makes the packed response buf[:n] carry an OPT record
// exactly when the query it answers did (RFC 6891 §7), edns telling
// whether the query had one. opt is where the response's OPT record
// starts, Image.OPT, 0 for none, and it must be the response's last
// record (PatchOffsets reports ErrOPTNotLast otherwise). A response
// without one gains a bare OPT advertising DefaultEDNSSize; one the
// query did not ask for is cut off, unless its extended rcode needs it.
// The new message length is returned. The bytes are those Pack emits
// for the decoded message with the OPT added or removed.
func FollowOPT(buf []byte, n, opt int, edns bool) (int, error) {
	switch {
	case edns && opt == 0:
		if n+11 > len(buf) || n < 12 {
			return 0, fmt.Errorf("dnswire: an OPT grows the message past %d bytes", len(buf))
		}
		// The root owner, TYPE OPT, the payload size as CLASS, a zero TTL
		// (no extended rcode, version 0, no flags) and no RDATA.
		copy(buf[n:], []byte{0, 0, byte(TypeOPT), DefaultEDNSSize >> 8, DefaultEDNSSize & 0xFF, 0, 0, 0, 0, 0, 0})
		binary.BigEndian.PutUint16(buf[10:], binary.BigEndian.Uint16(buf[10:])+1)
		return n + 11, nil
	case !edns && opt != 0:
		fixed, err := scanName(buf[:n], opt) // TYPE, CLASS, then the TTL: extended rcode first
		if err != nil || fixed+4 >= n {
			return 0, ErrBufferTooSmall
		}
		if buf[fixed+4] != 0 {
			return 0, fmt.Errorf("dnswire: the response's extended rcode needs its OPT record")
		}
		binary.BigEndian.PutUint16(buf[10:], binary.BigEndian.Uint16(buf[10:])-1)
		return opt, nil
	}
	return n, nil
}

// Truncate cuts the packed response buf[:n] in place to at most limit
// octets (RFC 2181 §9) and returns its length: the header, the question
// and the OPT records of the additional section under the root owner,
// with TC set and every other record gone. A client keeps nothing from
// a TC=1 reply but the signal to retry over TCP, so records packed into
// one would reach nobody but a spoofed query's victim. One that fits is
// left as it is; one that is malformed or whose question and OPT records
// alone do not fit is refused, its records perhaps overwritten. An image
// Pack wrote becomes what Pack writes for the decoded message cut the
// same way.
func Truncate(buf []byte, n, limit int) (int, error) {
	if n <= limit {
		return n, nil
	}
	if n < 12 {
		return 0, ErrShortMessage
	}
	wire := buf[:n]
	rrs := int(binary.BigEndian.Uint16(wire[6:])) + int(binary.BigEndian.Uint16(wire[8:])) // the answers and authorities
	ar := int(binary.BigEndian.Uint16(wire[10:]))
	off, err := 12, error(nil)
	for i := binary.BigEndian.Uint16(wire[4:]); i > 0 && err == nil; i-- {
		off, err = scanName(wire, off)
		off += 4 // type, class
	}
	// Each OPT record moves down behind the question, written no further
	// on than it was read from; names are skipped, never followed, so no
	// byte is read after it was overwritten.
	end, opts := off, 0
	for i := 0; i < rrs+ar && err == nil; i++ {
		var fixed, next int
		if fixed, next, err = recordAt(wire, off); err == nil && i >= rrs && Type(binary.BigEndian.Uint16(wire[fixed:])) == TypeOPT {
			wire[end] = 0 // the root owner
			end += 1 + copy(wire[end+1:], wire[fixed:next])
			opts++
		}
		off = next
	}
	switch {
	case err != nil:
		return 0, err
	case off != n:
		return 0, ErrTrailingGarbage
	case end > limit:
		return 0, fmt.Errorf("dnswire: the question and OPT records alone exceed %d octets", limit)
	}
	wire[2] |= flagTC >> 8
	binary.BigEndian.PutUint32(wire[6:], 0) // ANCOUNT, NSCOUNT
	binary.BigEndian.PutUint16(wire[10:], uint16(opts))
	return end, nil
}

// recordAt returns where the record at off has its TYPE field and where
// it ends. Its owner is skipped up to its root octet or first pointer.
func recordAt(wire []byte, off int) (fixed, end int, err error) {
	for off < len(wire) && wire[off] != 0 && wire[off] < 0xC0 {
		off += 1 + int(wire[off])
	}
	if fixed = off + 1; off < len(wire) && wire[off] != 0 {
		fixed++ // a pointer
	}
	if fixed+10 > len(wire) || fixed+10+int(binary.BigEndian.Uint16(wire[fixed+8:])) > len(wire) {
		return 0, 0, ErrBufferTooSmall
	}
	return fixed, fixed + 10 + int(binary.BigEndian.Uint16(wire[fixed+8:])), nil
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

// PatchQuestionCase spells the question name of a packed message the
// way name does, when the two are one name ASCII case aside (RFC 4343).
// A reply must echo its query's question octet for octet: a client
// that randomizes the case of its names (the "0x20" defence against
// spoofing) drops one that does not. The question name is the first
// name in the message, so it is never compressed, and every other name
// that points at it takes the new spelling too. A name that is not the
// question's, ASCII case aside, changes nothing.
func PatchQuestionCase(wire []byte, name string) {
	if len(wire) < 12 || wire[4]|wire[5] == 0 {
		return
	}
	var nb [maxNameWire + 2]byte
	want, err := packName(nb[:0], name, nil)
	if err != nil || 12+len(want) > len(wire) {
		return
	}
	if got := wire[12 : 12+len(want)]; !bytes.Equal(got, want) && EqualFoldASCII(got, want) {
		copy(got, want)
	}
}
