// Package lpm is a longest-prefix-match table mapping IP prefixes to
// PoP identifiers — the C-DNS routing data plane. A Table is built
// once from up to millions of IPv4/IPv6 rows and then answers
// Lookup(addr) in well under a microsecond with zero allocations.
//
// Layout: binary search over sorted disjoint intervals. The builder
// flattens the (possibly nested) input prefixes into a sorted list of
// non-overlapping address spans, each carrying the PoP and prefix
// length of the most specific route covering it: it sorts its rows in
// place, by start and then prefix length, and one sweep writes the
// spans straight into the table. Rows keep their insertion order, so
// a Builder stays reusable after a Build. A lookup is then a single
// branch-light binary search for the greatest span start <= the
// address. Compared to a level-compressed radix trie this trades
// incremental update (we rebuild and atomically swap instead — see
// DESIGN.md "Subnet routing") for a layout that is immutable,
// pointer-free, and sequential in memory: ~10 bytes per IPv4 span in
// three parallel slices, so the search touches at most ~log2(2n) cache
// lines and the whole structure is trivially shareable across
// goroutines without locks.
package lpm

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"net/netip"
	"slices"
)

// PoP identifies a point of presence (an edge cache site) in the
// routing table. The zero value is a valid PoP ID; absence of a route
// is signalled by Lookup's ok result, not by a sentinel PoP.
type PoP uint32

// u128 is an unsigned 128-bit integer, the key space of IPv6 spans.
type u128 struct{ hi, lo uint64 }

func (a u128) compare(b u128) int {
	if a.hi != b.hi {
		return cmp.Compare(a.hi, b.hi)
	}
	return cmp.Compare(a.lo, b.lo)
}

// inc returns a+1, wrapping to zero past the last u128.
func (a u128) inc() u128 {
	a.lo++
	if a.lo == 0 {
		a.hi++
	}
	return a
}

// last returns the last address of the prefix a/bits in a family of
// width-bit addresses.
func (a u128) last(bits uint8, width uint) u128 {
	host := width - uint(bits)
	if host > 64 {
		a.hi |= 1<<(host-64) - 1
	}
	a.lo |= 1<<host - 1
	return a
}

// row is one input route, keyed by its prefix's first address in the
// family's key type; its last address follows from start and bits.
type row[A uint32 | u128] struct {
	start A
	pop   PoP
	order uint32 // insertion order; of two equal prefixes the later wins
	bits  uint8
}

// enclosing is a route the sweep is inside: its last address, widened
// to u128, and its outcome.
type enclosing struct {
	last u128
	pop  PoP
	bits uint8
}

// Builder accumulates routes for a Table. Not safe for concurrent use.
type Builder struct {
	v4    []row[uint32]
	v6    []row[u128]
	order uint32
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// Add registers prefix → pop. 4-in-6 prefixes (::ffff:a.b.c.d/n with
// n >= 96) are normalized into the IPv4 table. A prefix added twice
// keeps the last PoP. A Builder holds at most 2³²−1 routes: Add refuses
// the next one, since past that count insertion order, which decides
// between duplicates, would wrap.
func (b *Builder) Add(prefix netip.Prefix, pop PoP) error {
	if !prefix.IsValid() {
		return fmt.Errorf("lpm: invalid prefix %v", prefix)
	}
	if b.order == math.MaxUint32 {
		return fmt.Errorf("lpm: more than %d routes", uint32(math.MaxUint32))
	}
	prefix = prefix.Masked()
	addr := prefix.Addr()
	pbits := prefix.Bits()
	if addr.Is4In6() && pbits >= 96 {
		addr = addr.Unmap()
		pbits -= 96
	}
	b.order++
	if addr.Is4() {
		a4 := addr.As4()
		b.v4 = append(grow(b.v4), row[uint32]{start: binary.BigEndian.Uint32(a4[:]), pop: pop, order: b.order, bits: uint8(pbits)})
		return nil
	}
	a16 := addr.As16()
	start := u128{hi: binary.BigEndian.Uint64(a16[:8]), lo: binary.BigEndian.Uint64(a16[8:])}
	b.v6 = append(grow(b.v6), row[u128]{start: start, pop: pop, order: b.order, bits: uint8(pbits)})
	return nil
}

// grow doubles a full slice's capacity. Past a few hundred elements
// append grows by a quarter, which for a large table copies its rows
// about four times over.
func grow[R any](rows []R) []R {
	if len(rows) < cap(rows) {
		return rows
	}
	return slices.Grow(rows, len(rows)+1)
}

// Len returns the number of routes added so far.
func (b *Builder) Len() int { return len(b.v4) + len(b.v6) }

// Table is the immutable lookup structure. Safe for concurrent reads;
// replace wholesale (e.g. through an atomic.Pointer) to update.
type Table struct {
	// Parallel slices of disjoint spans per family, sorted by start.
	// bits < 0 marks a gap span with no covering route. A sentinel gap
	// at address zero guarantees the binary search always lands on a
	// span, so lookups need no bounds branch.
	v4start []uint32
	v4pop   []PoP
	v4bits  []int16

	v6start []u128
	v6pop   []PoP
	v6bits  []int16

	rows4, rows6 int
}

// Build flattens the accumulated routes into a Table: it sorts each
// family's rows in place by start, then prefix length, and sweeps them
// once into the table's spans. Each row keeps its insertion order, so
// the Builder stays reusable: further Adds and Builds see the routes
// as if they had never been sorted.
func (b *Builder) Build() *Table {
	slices.SortFunc(b.v4, func(x, y row[uint32]) int {
		return cmp.Compare(uint64(x.start)<<8|uint64(x.bits), uint64(y.start)<<8|uint64(y.bits))
	})
	slices.SortFunc(b.v6, func(x, y row[u128]) int {
		return cmp.Or(x.start.compare(y.start), cmp.Compare(x.bits, y.bits))
	})
	t := &Table{rows4: len(b.v4), rows6: len(b.v6)}
	t.v4start, t.v4pop, t.v4bits = sweep(b.v4, 32,
		func(a uint32) u128 { return u128{lo: uint64(a)} }, func(k u128) uint32 { return uint32(k.lo) })
	t.v6start, t.v6pop, t.v6bits = sweep(b.v6, 128,
		func(a u128) u128 { return a }, func(k u128) u128 { return k })
	return t
}

// sweep flattens one family's sorted rows into disjoint spans, each
// carrying the PoP and prefix length of the innermost route covering
// it (bits -1 where none does), from a sentinel gap at address zero.
// A parent prefix sorts before its children, so a stack holds the
// chain of routes enclosing the current address: a row's start opens
// a span for it, and past a route's last address the span returns to
// its parent. Of equal prefixes, which sort together, only the
// later-added is kept, and adjacent spans with the same outcome merge.
// width is the family's address width; wide and narrow convert its
// keys to and from u128.
func sweep[A uint32 | u128](rows []row[A], width uint, wide func(A) u128, narrow func(u128) A) (starts []A, pops []PoP, bits []int16) {
	if len(rows) == 0 {
		return nil, nil, nil
	}
	n := 2*len(rows) + 1 // a row opens at most two spans
	starts, pops, bits = make([]A, 0, n), make([]PoP, 0, n), make([]int16, 0, n)
	// emit starts a span at `at`, which never decreases from one call
	// to the next: an empty last span takes the new outcome instead,
	// and merges into its predecessor if that has the same one. A span
	// at a new address differs from the one before it, which belongs
	// to a route enclosing the new one (a shorter prefix) or to none
	// when a row starts, and to the closed route or one inside it (a
	// longer prefix) when a route closes.
	emit := func(at A, pop PoP, b int16) {
		if n := len(starts); n > 0 && starts[n-1] == at {
			pops[n-1], bits[n-1] = pop, b
			if n > 1 && pops[n-2] == pop && bits[n-2] == b {
				starts, pops, bits = starts[:n-1], pops[:n-1], bits[:n-1]
			}
			return
		}
		starts, pops, bits = append(starts, at), append(pops, pop), append(bits, b)
	}
	var zero A
	emit(zero, 0, -1)

	var stack []enclosing
	// leave closes the innermost route. The span after it belongs to
	// its parent, or to no route when the stack empties; a route that
	// ends the family's space has none, as its successor wraps to zero.
	leave := func() {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		after := narrow(top.last.inc())
		if after == zero {
			return
		}
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			emit(after, p.pop, int16(p.bits))
		} else {
			emit(after, 0, -1)
		}
	}
	for i := 0; i < len(rows); i++ {
		r := rows[i]
		for ; i+1 < len(rows) && rows[i+1].start == r.start && rows[i+1].bits == r.bits; i++ {
			if rows[i+1].order > r.order {
				r = rows[i+1]
			}
		}
		start := wide(r.start)
		for len(stack) > 0 && stack[len(stack)-1].last.compare(start) < 0 {
			leave()
		}
		emit(r.start, r.pop, int16(r.bits))
		stack = append(stack, enclosing{last: start.last(r.bits, width), pop: r.pop, bits: r.bits})
	}
	for len(stack) > 0 {
		leave()
	}
	return starts, pops, bits
}

// Lookup returns the PoP of the most specific route covering addr, the
// matched route's prefix length, and whether any route matched.
// Zero-allocation and safe for concurrent use. 4-in-6 addresses are
// looked up in the IPv4 table.
func (t *Table) Lookup(addr netip.Addr) (PoP, int, bool) {
	if !addr.IsValid() {
		return 0, 0, false
	}
	if addr.Is4() || addr.Is4In6() {
		if len(t.v4start) == 0 {
			return 0, 0, false
		}
		a4 := addr.As4()
		key := uint32(a4[0])<<24 | uint32(a4[1])<<16 | uint32(a4[2])<<8 | uint32(a4[3])
		// Find the greatest i with v4start[i] <= key. The sentinel span
		// at 0 guarantees i >= 0.
		lo, hi := 0, len(t.v4start)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if t.v4start[mid] <= key {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		i := lo - 1
		if b := t.v4bits[i]; b >= 0 {
			return t.v4pop[i], int(b), true
		}
		return 0, 0, false
	}
	if len(t.v6start) == 0 {
		return 0, 0, false
	}
	a16 := addr.As16()
	var key u128
	for i := 0; i < 8; i++ {
		key.hi = key.hi<<8 | uint64(a16[i])
		key.lo = key.lo<<8 | uint64(a16[i+8])
	}
	lo, hi := 0, len(t.v6start)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		s := t.v6start[mid]
		if s.hi < key.hi || (s.hi == key.hi && s.lo <= key.lo) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	i := lo - 1
	if b := t.v6bits[i]; b >= 0 {
		return t.v6pop[i], int(b), true
	}
	return 0, 0, false
}

// Rows returns the number of routes the table was built from.
func (t *Table) Rows() int { return t.rows4 + t.rows6 }

// RowsV4 returns the number of IPv4 routes loaded.
func (t *Table) RowsV4() int { return t.rows4 }

// RowsV6 returns the number of IPv6 routes loaded.
func (t *Table) RowsV6() int { return t.rows6 }

// Equal reports whether t and u route every address alike and were
// built from as many rows per family: their sorted span arrays match,
// whatever order the rows were added in. A nil table equals only nil.
func (t *Table) Equal(u *Table) bool {
	if t == nil || u == nil {
		return t == u
	}
	return t.rows4 == u.rows4 && t.rows6 == u.rows6 &&
		slices.Equal(t.v4start, u.v4start) && slices.Equal(t.v4pop, u.v4pop) && slices.Equal(t.v4bits, u.v4bits) &&
		slices.Equal(t.v6start, u.v6start) && slices.Equal(t.v6pop, u.v6pop) && slices.Equal(t.v6bits, u.v6bits)
}

// Spans returns the number of flattened intervals the table stores —
// the working-set size a lookup binary-searches over.
func (t *Table) Spans() int { return len(t.v4start) + len(t.v6start) }

// String summarizes the table for debugging.
func (t *Table) String() string {
	return fmt.Sprintf("lpm.Table{rows=%d (v4=%d v6=%d) spans=%d}",
		t.Rows(), t.rows4, t.rows6, t.Spans())
}
