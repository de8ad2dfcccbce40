// Package lpm is a longest-prefix-match table mapping IP prefixes to
// PoP identifiers — the C-DNS routing data plane. A Table is built
// once from up to millions of IPv4/IPv6 rows and then answers
// Lookup(addr) in well under a microsecond with zero allocations.
//
// Layout: binary search over sorted disjoint intervals. The builder
// flattens the (possibly nested) input prefixes into a sorted list of
// non-overlapping address spans, each carrying the PoP and prefix
// length of the most specific route covering it; a lookup is then a
// single branch-light binary search for the greatest span start <= the
// address. Compared to a level-compressed radix trie this trades
// incremental update (we rebuild and atomically swap instead — see
// DESIGN.md "Subnet routing") for a layout that is immutable,
// pointer-free, and sequential in memory: ~10 bytes per IPv4 span in
// three parallel slices, so the search touches at most ~log2(2n) cache
// lines and the whole structure is trivially shareable across
// goroutines without locks.
package lpm

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"
)

// PoP identifies a point of presence (an edge cache site) in the
// routing table. The zero value is a valid PoP ID; absence of a route
// is signalled by Lookup's ok result, not by a sentinel PoP.
type PoP uint32

// u128 is an unsigned 128-bit integer, the key space of IPv6 spans.
type u128 struct{ hi, lo uint64 }

func u128Less(a, b u128) bool {
	return a.hi < b.hi || (a.hi == b.hi && a.lo < b.lo)
}

// inc returns a+1 and whether it did not wrap.
func (a u128) inc() (u128, bool) {
	a.lo++
	if a.lo == 0 {
		a.hi++
		if a.hi == 0 {
			return a, false
		}
	}
	return a, true
}

// row is one input route before flattening.
type row struct {
	start, end u128 // inclusive address range of the prefix
	pop        PoP
	bits       int16
	seq        int // insertion order; later rows win exact duplicates
}

// Builder accumulates routes for a Table. Not safe for concurrent use;
// Build may be called once the rows are in.
type Builder struct {
	v4, v6 []row
	seq    int
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// Add registers prefix → pop. 4-in-6 prefixes (::ffff:a.b.c.d/n with
// n >= 96) are normalized into the IPv4 table. A prefix added twice
// keeps the last PoP.
func (b *Builder) Add(prefix netip.Prefix, pop PoP) error {
	if !prefix.IsValid() {
		return fmt.Errorf("lpm: invalid prefix %v", prefix)
	}
	prefix = prefix.Masked()
	addr := prefix.Addr()
	pbits := prefix.Bits()
	if addr.Is4In6() && pbits >= 96 {
		addr = addr.Unmap()
		pbits -= 96
	}
	b.seq++
	if addr.Is4() {
		a4 := addr.As4()
		start := uint64(a4[0])<<24 | uint64(a4[1])<<16 | uint64(a4[2])<<8 | uint64(a4[3])
		var host uint64
		if pbits < 32 {
			host = (1 << (32 - pbits)) - 1
		}
		b.v4 = append(b.v4, row{
			start: u128{lo: start},
			end:   u128{lo: start | host},
			pop:   pop,
			bits:  int16(pbits),
			seq:   b.seq,
		})
		return nil
	}
	a16 := addr.As16()
	var start u128
	for i := 0; i < 8; i++ {
		start.hi = start.hi<<8 | uint64(a16[i])
		start.lo = start.lo<<8 | uint64(a16[i+8])
	}
	end := start
	if pbits <= 64 {
		if pbits < 64 {
			end.hi |= ^uint64(0) >> pbits
		}
		end.lo = ^uint64(0)
	} else if pbits < 128 {
		end.lo |= ^uint64(0) >> (pbits - 64)
	}
	b.v6 = append(b.v6, row{start: start, end: end, pop: pop, bits: int16(pbits), seq: b.seq})
	return nil
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

// Build flattens the accumulated routes into a Table. The Builder may
// be reused afterwards (further Adds affect only later Builds).
func (b *Builder) Build() *Table {
	t := &Table{rows4: len(b.v4), rows6: len(b.v6)}
	max4 := u128{lo: 0xFFFFFFFF}
	max6 := u128{hi: ^uint64(0), lo: ^uint64(0)}
	for _, sp := range flatten(b.v4, max4) {
		t.v4start = append(t.v4start, uint32(sp.start.lo))
		t.v4pop = append(t.v4pop, sp.pop)
		t.v4bits = append(t.v4bits, sp.bits)
	}
	for _, sp := range flatten(b.v6, max6) {
		t.v6start = append(t.v6start, sp.start)
		t.v6pop = append(t.v6pop, sp.pop)
		t.v6bits = append(t.v6bits, sp.bits)
	}
	return t
}

// span is one flattened output interval: it begins at start and runs
// to the next span's start (or the end of the address space).
type span struct {
	start u128
	pop   PoP
	bits  int16 // -1: no route covers this span
}

// flatten turns possibly-nested rows into disjoint spans via a single
// sweep with a parent stack. Rows are sorted so that a parent prefix
// precedes its children (start ascending, then end descending); the
// stack holds the chain of enclosing routes, and each row boundary
// emits a span carrying the innermost route in force. max is the last
// address of the family's space: a route ending there has no successor
// span (incrementing past it would escape the family's key range).
func flatten(rows []row, max u128) []span {
	if len(rows) == 0 {
		return nil
	}
	sorted := make([]row, len(rows))
	copy(sorted, rows)
	sort.Slice(sorted, func(i, j int) bool {
		a, c := sorted[i], sorted[j]
		if a.start != c.start {
			return u128Less(a.start, c.start)
		}
		if a.end != c.end {
			return u128Less(c.end, a.end) // wider (parent) first
		}
		return a.seq < c.seq // duplicates: keep insertion order, last wins below
	})
	// Collapse exact-duplicate prefixes to the last-added row.
	dd := sorted[:0]
	for i, r := range sorted {
		if i+1 < len(sorted) && sorted[i+1].start == r.start && sorted[i+1].end == r.end {
			continue
		}
		dd = append(dd, r)
	}
	sorted = dd

	out := make([]span, 0, 2*len(sorted)+1)
	// emit starts a new span at `at`; it merges spans with equal
	// routing outcome and drops zero-length predecessors.
	emit := func(at u128, pop PoP, b int16) {
		if n := len(out); n > 0 {
			last := &out[n-1]
			if last.start == at {
				last.pop, last.bits = pop, b
				if n > 1 && out[n-2].pop == pop && out[n-2].bits == b {
					out = out[:n-1]
				}
				return
			}
			if last.pop == pop && last.bits == b {
				return
			}
		}
		out = append(out, span{start: at, pop: pop, bits: b})
	}
	emit(u128{}, 0, -1) // sentinel: address space starts unrouted

	var stack []row
	// pop closes the innermost route: control past its end returns to
	// its parent, or to no-route when the stack empties. A route ending
	// at the family's last address has no successor span.
	pop := func() {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if top.end == max {
			return
		}
		after, _ := top.end.inc()
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			emit(after, p.pop, p.bits)
		} else {
			emit(after, 0, -1)
		}
	}
	for _, r := range sorted {
		for len(stack) > 0 && u128Less(stack[len(stack)-1].end, r.start) {
			pop()
		}
		emit(r.start, r.pop, r.bits)
		stack = append(stack, r)
	}
	for len(stack) > 0 {
		pop()
	}
	return out
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
