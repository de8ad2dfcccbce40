package dnswire

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
)

// Errors returned by name packing and unpacking.
var (
	ErrNameTooLong    = errors.New("dnswire: domain name exceeds 255 octets")
	ErrLabelTooLong   = errors.New("dnswire: label exceeds 63 octets")
	ErrEmptyLabel     = errors.New("dnswire: empty label in domain name")
	ErrBadPointer     = errors.New("dnswire: bad compression pointer")
	ErrPointerLoop    = errors.New("dnswire: compression pointer loop")
	ErrBufferTooSmall = errors.New("dnswire: buffer too small")
	ErrBadRdata       = errors.New("dnswire: malformed rdata")
)

const (
	maxNameWire    = 255 // total encoded length including length octets
	maxLabel       = 63
	maxPointerHops = 64 // far above any legitimate chain
)

// compressor lists where names start in the message being packed: the
// offset of every label a name was written from, so each distinct
// suffix once, at its first occurrence. A suffix is looked up by
// comparing it with the wire bytes there — no second, textual form of a
// name exists to disagree with the one on the wire. The table is fixed:
// past maxCompressOffsets suffixes (or the 14-bit pointer range) later
// names compress against the ones listed; the message is only larger.
type compressor struct {
	n    int
	offs [maxCompressOffsets]uint16
}

const maxCompressOffsets = 128

// find returns the offset of the first listed name equal to want, an
// uncompressed wire name, ASCII case aside (RFC 4343). Listed names may
// end in pointers; packName wrote them, so following needs no checks.
func (c *compressor) find(msg, want []byte) (int, bool) {
next:
	for _, start := range c.offs[:c.n] {
		off, w := int(start), want
		for {
			l := msg[off]
			if l >= 0xC0 {
				off = int(l&0x3F)<<8 | int(msg[off+1])
				continue
			}
			if l != w[0] {
				continue next
			}
			if l == 0 {
				return int(start), true
			}
			n := 1 + int(l)
			if !EqualFoldASCII(msg[off+1:off+n], w[1:n]) {
				continue next
			}
			off, w = off+n, w[n:]
		}
	}
	return 0, false
}

// EqualFoldASCII compares the octets of two wire names of equal length
// as RFC 4343 does: A–Z like a–z, every other octet (length octets
// too, none of which is a letter) exactly.
func EqualFoldASCII(a, b []byte) bool {
	for i := range a {
		if x, y := a[i], b[i]; x != y && (x|0x20 != y|0x20 || x|0x20 < 'a' || x|0x20 > 'z') {
			return false
		}
	}
	return true
}

// unescape decodes the escape whose backslash is name[i], \DDD or a
// backslashed octet, and returns the octet and its last index.
func unescape(name string, i int) (byte, int, error) {
	if i+1 >= len(name) {
		return 0, 0, fmt.Errorf("dnswire: dangling escape in %q", name)
	}
	if d := name[i+1]; d < '0' || d > '9' {
		return d, i + 1, nil
	}
	if i+3 < len(name) {
		// The first of the three is a digit, so Atoi takes no sign.
		if v, err := strconv.Atoi(name[i+1 : i+4]); err == nil && v <= 255 {
			return byte(v), i + 3, nil
		}
	}
	return 0, 0, fmt.Errorf("dnswire: bad \\DDD escape in %q", name)
}

// packName appends the wire encoding of name to b, using and updating
// the compressor c. A nil compressor disables compression entirely
// (required inside SRV rdata and anywhere a digest is computed). The
// presentation string is read once, escapes decoded on the way, and the
// name then cut at the first label from which it repeats a listed one.
func packName(b []byte, name string, c *compressor) ([]byte, error) {
	if name == "." || name == "" {
		return append(b, 0), nil
	}
	start := len(b)
	b = slices.Grow(b, len(name)+2)
	lenAt := len(b) // the open label's length octet
	b = append(b, 0)
	for i := 0; i < len(name); i++ {
		ch := name[i]
		if ch == '.' {
			if len(b) == lenAt+1 {
				return nil, ErrEmptyLabel
			}
			b[lenAt] = byte(len(b) - lenAt - 1)
			lenAt = len(b)
			b = append(b, 0)
			continue
		}
		if ch == '\\' {
			var err error
			if ch, i, err = unescape(name, i); err != nil {
				return nil, err
			}
		}
		if len(b)-lenAt > maxLabel {
			return nil, ErrLabelTooLong
		}
		b = append(b, ch)
	}
	// A trailing dot left an empty label open: that octet is the root.
	if n := len(b) - lenAt - 1; n > 0 {
		b[lenAt] = byte(n)
		b = append(b, 0)
	}
	if len(b)-start > maxNameWire {
		return nil, ErrNameTooLong
	}
	if c == nil {
		return b, nil
	}
	for p := start; b[p] != 0; p += 1 + int(b[p]) {
		if off, ok := c.find(b, b[p:]); ok {
			return append(b[:p], 0xC0|byte(off>>8), byte(off)), nil
		}
		if p < 0x4000 && c.n < len(c.offs) {
			c.offs[c.n] = uint16(p)
			c.n++
		}
	}
	return b, nil
}

// scanName is the one validator of a possibly-compressed wire name,
// behind the decoder (unpackName) and the walk that lets a response be
// relayed undecoded (PatchOffsets). It returns the offset of the first
// byte after the name as laid out at off (pointers are followed for
// content but do not advance the caller's cursor past their two bytes).
func scanName(msg []byte, off int) (next int, err error) {
	if off < 0 || off >= len(msg) {
		return 0, ErrBufferTooSmall
	}
	ptrCount := 0
	next = -1 // set on the first pointer
	budget := maxNameWire
	for {
		if off >= len(msg) {
			return 0, ErrBufferTooSmall
		}
		c := msg[off]
		switch {
		case c == 0:
			if next < 0 {
				next = off + 1
			}
			return next, nil
		case c&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return 0, ErrBadPointer
			}
			ptr := int(c&0x3F)<<8 | int(msg[off+1])
			if next < 0 {
				next = off + 2
			}
			if ptrCount++; ptrCount > maxPointerHops {
				return 0, ErrPointerLoop
			}
			if ptr >= off {
				// Forward pointers enable loops; RFC-compliant
				// encoders only point backwards.
				return 0, ErrBadPointer
			}
			off = ptr
		case c&0xC0 != 0:
			return 0, fmt.Errorf("dnswire: reserved label type 0x%02x", c&0xC0)
		default:
			n := int(c)
			if off+1+n > len(msg) {
				return 0, ErrBufferTooSmall
			}
			if budget -= n + 1; budget <= 0 {
				return 0, ErrNameTooLong
			}
			off += 1 + n
		}
	}
}

// unpackName decodes the name at off into presentation format — dots
// and backslashes escaped, unprintable octets as \DDD — and returns it
// with scanName's offset. The one allocation is the string.
func unpackName(msg []byte, off int) (string, int, error) {
	next, err := scanName(msg, off)
	if err != nil {
		return "", 0, err
	}
	var text [4 * maxNameWire]byte // room for every octet as \DDD
	b := text[:0]
	for msg[off] != 0 {
		if c := msg[off]; c >= 0xC0 {
			off = int(c&0x3F)<<8 | int(msg[off+1])
			continue
		}
		end := off + 1 + int(msg[off])
		for _, ch := range msg[off+1 : end] {
			switch {
			case ch == '.' || ch == '\\':
				b = append(b, '\\', ch)
			case ch < '!' || ch > '~':
				b = append(b, '\\', '0'+ch/100, '0'+ch/10%10, '0'+ch%10)
			default:
				b = append(b, ch)
			}
		}
		b = append(b, '.')
		off = end
	}
	if len(b) == 0 {
		return ".", next, nil
	}
	return string(b), next, nil
}
