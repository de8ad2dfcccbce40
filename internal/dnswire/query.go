package dnswire

import (
	"encoding/binary"
	"strings"
)

// This file holds the server-ingress unpack path. Unpack is general:
// it re-derives every section slice and builds each question name
// through the label escaper, which is correct for arbitrary messages
// but costs ~10 allocations for the one-question query that is every
// real client packet. UnpackQuery keeps the same wire semantics while
// reusing the caller's Message storage, OPT and ECS option included,
// and interning question names, so parsing a repeat of a hot query
// allocates nothing.

// NameIntern is a bounded wire-name → presentation-name table used by
// UnpackQuery to avoid re-decoding (and re-allocating) the qname of
// every packet. Keys are the raw wire bytes of the name as they appear
// in the question section, so a lookup is one map probe with no
// conversion; values are the canonical presentation-format strings
// unpackName would have produced.
//
// A name never seen is copied — key, then presentation form — into a
// chunk the table owns: a strings.Builder that is only ever appended to
// and is replaced, not grown, when the next name does not fit. The
// first chunk holds the first name alone, so a table that parses one
// query costs what that name's string would; each later one doubles, up
// to maxChunk. So one allocation serves dozens of names, and every
// string the table hands out is immutable: its bytes are never written
// again.
//
// A NameIntern is not safe for concurrent use: give each worker its
// own. The table is cleared wholesale when it reaches its bound, so a
// hostile stream of unique names costs a rebuild, never unbounded
// memory. Interned strings are safe to retain anywhere, but one keeps
// its whole chunk alive: what outlives the query for long (the cache's
// keys, the query log's records) copies the bytes instead.
type NameIntern struct {
	names map[string]string
	max   int
	chunk strings.Builder
}

// maxChunk bounds the chunks a NameIntern copies names into; the
// largest name, with its key, is 1 275 bytes.
const maxChunk = 4096

// NewNameIntern returns an intern table bounded to max names;
// max <= 0 means 4096.
func NewNameIntern(max int) *NameIntern {
	if max <= 0 {
		max = 4096
	}
	return &NameIntern{names: make(map[string]string, 64), max: max}
}

// put enters the question name wire, which starts msg's question
// section and which UnpackQuery has scanned, and returns its
// presentation form.
func (t *NameIntern) put(msg, wire []byte) string {
	var buf [5 * maxNameWire]byte // the key, then every octet as \DDD
	text := appendName(append(buf[:0], wire...), msg, 12)
	if t.chunk.Cap()-t.chunk.Len() < len(text) {
		size := len(text)
		if c := t.chunk.Cap(); c > 0 {
			size = max(min(2*c, maxChunk), size)
		}
		t.chunk = strings.Builder{} // the old chunk's strings keep their bytes
		t.chunk.Grow(size)
	}
	start := t.chunk.Len()
	t.chunk.Write(text)
	s := t.chunk.String()[start:]
	if len(t.names) >= t.max {
		clear(t.names)
	}
	t.names[s[:len(wire)]] = s[len(wire):]
	return s[len(wire):]
}

// UnpackQuery parses wire-format data into m like Unpack, replacing
// m's contents but reusing its storage, with question names interned
// through tbl (which may be nil). It is intended for the server read
// loops, where m is a per-worker scratch message: a message parsed this
// way must not be retained past the request, because the next packet
// overwrites it, its OPT record and ECS option in place: Clone what must
// outlive the request. The name strings are immutable and safe to keep
// (NameIntern says what keeping one costs).
//
// The reuse fast path covers the shape of every real client query —
// one question, empty answer/authority sections, at most one
// additional record (EDNS OPT). Anything else falls back to Unpack,
// so the two paths accept and reject identical inputs.
func (m *Message) UnpackQuery(data []byte, tbl *NameIntern) error {
	if len(data) < 12 {
		return ErrShortMessage
	}
	if len(data) > MaxMessageSize {
		return m.Unpack(data) // same oversize error as the general path
	}
	qd := int(binary.BigEndian.Uint16(data[4:]))
	an := int(binary.BigEndian.Uint16(data[6:]))
	ns := int(binary.BigEndian.Uint16(data[8:]))
	ar := int(binary.BigEndian.Uint16(data[10:]))
	if qd != 1 || an != 0 || ns != 0 || ar > 1 {
		return m.Unpack(data)
	}

	// Scan the qname's wire extent first: interning keys on the raw
	// bytes, and a compressed or malformed name punts to Unpack so
	// error behaviour stays identical.
	off := 12
	for {
		if off >= len(data) {
			return ErrBufferTooSmall
		}
		c := data[off]
		if c == 0 {
			off++
			break
		}
		if c&0xC0 != 0 {
			// Compression pointers (or reserved label types) in a
			// question are legal but vanishingly rare; take the
			// general path rather than chase pointers here.
			return m.Unpack(data)
		}
		off += 1 + int(c)
		if off-12 >= maxNameWire { // scanName's bound: the labels fill 255 octets
			return ErrNameTooLong
		}
	}
	wireName := data[12:off]
	if off+4 > len(data) {
		return ErrBufferTooSmall
	}

	var name string
	if tbl != nil {
		name = tbl.names[string(wireName)] // no alloc: map probe by converted key
		if name == "" {
			name = tbl.put(data, wireName)
		}
	} else {
		var text [4 * maxNameWire]byte // room for every octet as \DDD
		name = string(appendName(text[:0], data, 12))
	}

	flags := binary.BigEndian.Uint16(data[2:])
	m.ID = binary.BigEndian.Uint16(data)
	m.Response = flags&flagQR != 0
	m.Opcode = Opcode(flags >> 11 & 0xF)
	m.Authoritative = flags&flagAA != 0
	m.Truncated = flags&flagTC != 0
	m.RecursionDesired = flags&flagRD != 0
	m.RecursionAvailable = flags&flagRA != 0
	m.AuthenticatedData = flags&flagAD != 0
	m.CheckingDisabled = flags&flagCD != 0
	m.Rcode = Rcode(flags & 0xF)
	m.Questions = append(m.Questions[:0], Question{
		Name:  name,
		Type:  Type(binary.BigEndian.Uint16(data[off:])),
		Class: Class(binary.BigEndian.Uint16(data[off+2:])),
	})
	m.Answers = m.Answers[:0]
	m.Authorities = m.Authorities[:0]
	m.Additionals = m.Additionals[:0]
	off += 4

	if ar == 1 {
		var spare *OPT // the last query's: the record, its options and ECS are reused
		if cap(m.Additionals) > 0 {
			spare, _ = m.Additionals[:1][0].(*OPT)
		}
		rr, end, err := unpackRR(data, off, spare)
		if err != nil {
			return err
		}
		off = end
		m.Additionals = append(m.Additionals, rr)
	}
	if off != len(data) {
		return ErrTrailingGarbage
	}
	if opt, ok := m.OPT(); ok {
		m.Rcode |= Rcode(opt.ExtendedRcode()) << 4
	}
	return nil
}
