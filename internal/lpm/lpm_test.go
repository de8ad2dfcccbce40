package lpm

import (
	"math"
	"math/rand"
	"net/netip"
	"strings"
	"testing"
)

func mustAdd(t *testing.T, b *Builder, prefix string, pop PoP) {
	t.Helper()
	if err := b.Add(netip.MustParsePrefix(prefix), pop); err != nil {
		t.Fatalf("Add(%s): %v", prefix, err)
	}
}

func checkLookup(t *testing.T, tab *Table, addr string, wantPop PoP, wantBits int, wantOK bool) {
	t.Helper()
	pop, bits, ok := tab.Lookup(netip.MustParseAddr(addr))
	if ok != wantOK || (ok && (pop != wantPop || bits != wantBits)) {
		t.Errorf("Lookup(%s) = (%d, %d, %v), want (%d, %d, %v)",
			addr, pop, bits, ok, wantPop, wantBits, wantOK)
	}
}

func TestLookupBasic(t *testing.T) {
	b := NewBuilder()
	mustAdd(t, b, "10.0.0.0/8", 1)
	mustAdd(t, b, "10.1.0.0/16", 2)
	mustAdd(t, b, "10.1.7.0/24", 3)
	mustAdd(t, b, "192.0.2.0/24", 4)
	tab := b.Build()

	checkLookup(t, tab, "10.0.0.1", 1, 8, true)
	checkLookup(t, tab, "10.1.0.1", 2, 16, true)
	checkLookup(t, tab, "10.1.7.200", 3, 24, true)
	checkLookup(t, tab, "10.1.8.0", 2, 16, true) // just past the /24
	checkLookup(t, tab, "10.2.0.0", 1, 8, true)  // just past the /16
	checkLookup(t, tab, "11.0.0.0", 0, 0, false) // just past the /8
	checkLookup(t, tab, "9.255.255.255", 0, 0, false)
	checkLookup(t, tab, "192.0.2.0", 4, 24, true)
	checkLookup(t, tab, "192.0.2.255", 4, 24, true)
	checkLookup(t, tab, "192.0.3.0", 0, 0, false)
}

func TestLookupBoundaries(t *testing.T) {
	b := NewBuilder()
	mustAdd(t, b, "0.0.0.0/8", 1)
	mustAdd(t, b, "255.0.0.0/8", 2)
	mustAdd(t, b, "255.255.255.255/32", 3)
	tab := b.Build()
	checkLookup(t, tab, "0.0.0.0", 1, 8, true)
	checkLookup(t, tab, "0.255.255.255", 1, 8, true)
	checkLookup(t, tab, "1.0.0.0", 0, 0, false)
	checkLookup(t, tab, "255.0.0.0", 2, 8, true)
	checkLookup(t, tab, "255.255.255.254", 2, 8, true)
	checkLookup(t, tab, "255.255.255.255", 3, 32, true)
}

// TestHostRoutes pins /32 and /128 host routes: 128 does not fit in
// an int8, so a too-narrow bits column turns every v6 host route into
// a gap span (found by FuzzLPMLookup, testdata/a741ec62e5b666ce).
func TestHostRoutes(t *testing.T) {
	b := NewBuilder()
	mustAdd(t, b, "10.1.2.3/32", 7)
	mustAdd(t, b, "3030:3030:3030:3030:3030:3030:3030:3030/128", 48)
	mustAdd(t, b, "2001:db8::/32", 9)
	mustAdd(t, b, "2001:db8::1/128", 10)
	tab := b.Build()
	checkLookup(t, tab, "10.1.2.3", 7, 32, true)
	checkLookup(t, tab, "10.1.2.2", 0, 0, false)
	checkLookup(t, tab, "10.1.2.4", 0, 0, false)
	checkLookup(t, tab, "3030:3030:3030:3030:3030:3030:3030:3030", 48, 128, true)
	checkLookup(t, tab, "3030:3030:3030:3030:3030:3030:3030:3031", 0, 0, false)
	checkLookup(t, tab, "2001:db8::1", 10, 128, true)
	checkLookup(t, tab, "2001:db8::2", 9, 32, true)
}

func TestLookupDefaultRoute(t *testing.T) {
	b := NewBuilder()
	mustAdd(t, b, "0.0.0.0/0", 9)
	mustAdd(t, b, "10.0.0.0/8", 1)
	tab := b.Build()
	checkLookup(t, tab, "9.1.2.3", 9, 0, true)
	checkLookup(t, tab, "10.1.2.3", 1, 8, true)
	checkLookup(t, tab, "255.255.255.255", 9, 0, true)
}

func TestLookupV6(t *testing.T) {
	b := NewBuilder()
	mustAdd(t, b, "2001:db8::/32", 1)
	mustAdd(t, b, "2001:db8:7::/48", 2)
	mustAdd(t, b, "::/0", 9)
	tab := b.Build()
	checkLookup(t, tab, "2001:db8::1", 1, 32, true)
	checkLookup(t, tab, "2001:db8:7::1", 2, 48, true)
	checkLookup(t, tab, "2001:db8:8::", 1, 32, true)
	checkLookup(t, tab, "2001:db9::", 9, 0, true)
	checkLookup(t, tab, "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff", 9, 0, true)
	checkLookup(t, tab, "::", 9, 0, true)
}

// A v6-mapped v4 prefix must land in the IPv4 table and answer both
// plain v4 and 4-in-6 lookups; a 4-in-6 lookup must hit v4 routes.
func TestFourInSixNormalization(t *testing.T) {
	b := NewBuilder()
	mustAdd(t, b, "::ffff:10.1.0.0/112", 5) // == 10.1.0.0/16
	mustAdd(t, b, "192.0.2.0/24", 6)
	tab := b.Build()
	if tab.RowsV4() != 2 || tab.RowsV6() != 0 {
		t.Fatalf("rows v4=%d v6=%d, want 2/0", tab.RowsV4(), tab.RowsV6())
	}
	checkLookup(t, tab, "10.1.2.3", 5, 16, true)
	checkLookup(t, tab, "::ffff:10.1.2.3", 5, 16, true)
	checkLookup(t, tab, "::ffff:192.0.2.9", 6, 24, true)
}

func TestDuplicatePrefixLastWins(t *testing.T) {
	b := NewBuilder()
	mustAdd(t, b, "10.0.0.0/8", 1)
	mustAdd(t, b, "10.0.0.0/8", 7)
	tab := b.Build()
	checkLookup(t, tab, "10.9.9.9", 7, 8, true)
}

func TestEmptyTable(t *testing.T) {
	tab := NewBuilder().Build()
	checkLookup(t, tab, "10.0.0.1", 0, 0, false)
	checkLookup(t, tab, "2001:db8::1", 0, 0, false)
	if tab.Rows() != 0 || tab.Spans() != 0 {
		t.Errorf("empty table: rows=%d spans=%d", tab.Rows(), tab.Spans())
	}
	var invalid netip.Addr
	if _, _, ok := tab.Lookup(invalid); ok {
		t.Error("invalid addr matched")
	}
}

func TestAddInvalidPrefix(t *testing.T) {
	var p netip.Prefix
	if err := NewBuilder().Add(p, 0); err == nil {
		t.Error("invalid prefix accepted")
	}
	var ref Reference
	if err := ref.Add(p, 0); err == nil {
		t.Error("reference accepted invalid prefix")
	}
}

// TestAddRefusesOrderWrap: a Builder numbers its rows in a uint32, so
// it takes 2³²−1 of them and refuses the next; a wrapped number would
// let an earlier duplicate win.
func TestAddRefusesOrderWrap(t *testing.T) {
	b := &Builder{order: math.MaxUint32 - 1}
	mustAdd(t, b, "10.0.0.0/8", 1)
	if err := b.Add(netip.MustParsePrefix("10.0.0.0/8"), 2); err == nil {
		t.Fatal("the 2³²-th row was accepted")
	}
	if b.Len() != 1 {
		t.Fatalf("Len = %d after a refused row, want 1", b.Len())
	}
	checkLookup(t, b.Build(), "10.1.2.3", 1, 8, true)
}

// randomTables builds a Table and Reference from the same random route
// set, for differential comparison.
func randomTables(rng *rand.Rand, n int) (*Table, *Reference) {
	b := NewBuilder()
	ref := &Reference{}
	for i := 0; i < n; i++ {
		var p netip.Prefix
		if rng.Intn(4) == 0 { // quarter v6
			var a [16]byte
			rng.Read(a[:])
			a[0] = 0x20 // keep out of the 4-in-6 space
			p, _ = netip.AddrFrom16(a).Prefix(rng.Intn(129))
		} else {
			var a [4]byte
			rng.Read(a[:])
			p, _ = netip.AddrFrom4(a).Prefix(rng.Intn(33))
		}
		pop := PoP(rng.Intn(64))
		b.Add(p, pop)
		ref.Add(p, pop)
	}
	return b.Build(), ref
}

func TestDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab, ref := randomTables(rng, 500)
	for i := 0; i < 5000; i++ {
		var addr netip.Addr
		if i%4 == 0 {
			var a [16]byte
			rng.Read(a[:])
			a[0] = 0x20
			addr = netip.AddrFrom16(a)
		} else {
			var a [4]byte
			rng.Read(a[:])
			addr = netip.AddrFrom4(a)
		}
		gp, gb, gok := tab.Lookup(addr)
		wp, wb, wok := ref.Lookup(addr)
		if gp != wp || gb != wb || gok != wok {
			t.Fatalf("Lookup(%s) = (%d,%d,%v), reference (%d,%d,%v)",
				addr, gp, gb, gok, wp, wb, wok)
		}
	}
}

// TestTableEqual: the same rows added in another order build an equal
// table; one changed PoP, or one row fewer, does not.
func TestTableEqual(t *testing.T) {
	rows := []struct {
		prefix string
		pop    PoP
	}{
		{"10.0.0.0/8", 1}, {"10.1.0.0/16", 2}, {"10.1.7.0/24", 3},
		{"192.0.2.0/24", 4}, {"2001:db8::/32", 5}, {"2001:db8:1::/48", 6},
	}
	build := func(order []int, change int) *Table {
		b := NewBuilder()
		for _, i := range order {
			pop := rows[i].pop
			if i == change {
				pop += 10
			}
			mustAdd(t, b, rows[i].prefix, pop)
		}
		return b.Build()
	}
	base := build([]int{0, 1, 2, 3, 4, 5}, -1)
	if other := build([]int{5, 2, 3, 0, 4, 1}, -1); !base.Equal(other) || !other.Equal(base) {
		t.Error("the same rows in another insertion order are not Equal")
	}
	for i := range rows {
		if base.Equal(build([]int{0, 1, 2, 3, 4, 5}, i)) {
			t.Errorf("table with %s's PoP changed is Equal", rows[i].prefix)
		}
	}
	if base.Equal(build([]int{0, 1, 2, 3, 4}, -1)) {
		t.Error("table missing a row is Equal")
	}

	// A per-cell-site table: a /16 over each /16 of 10.0.0.0/7, then
	// /24s for 100 000 of its /24s in ascending order, and the same rows
	// shuffled.
	rng := rand.New(rand.NewSource(1))
	var cells []netip.Prefix
	for s := 0; s < 1<<17; s += 256 {
		cells = append(cells, netip.PrefixFrom(netip.AddrFrom4([4]byte{10 + byte(s>>16), byte(s >> 8), 0, 0}), 16))
	}
	for s := 0; s < 1<<17; s++ {
		if (s*40503)&(1<<17-1) < 100_000 {
			cells = append(cells, netip.PrefixFrom(netip.AddrFrom4([4]byte{10 + byte(s>>16), byte(s >> 8), byte(s), 0}), 24))
		}
	}
	pops := make(map[netip.Prefix]PoP, len(cells))
	for _, p := range cells {
		pops[p] = PoP(rng.Intn(16))
	}
	buildCells := func() *Table {
		b := NewBuilder()
		for _, p := range cells {
			if err := b.Add(p, pops[p]); err != nil {
				t.Fatal(err)
			}
		}
		return b.Build()
	}
	sorted := buildCells()
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	if !buildCells().Equal(sorted) {
		t.Error("the cell-site table, its rows shuffled, is not Equal")
	}
	var none *Table
	if base.Equal(none) || none.Equal(base) || !none.Equal(nil) {
		t.Error("nil tables: only nil equals nil")
	}
}

func TestParseRoutes(t *testing.T) {
	const text = `
# subnet            PoP
10.1.0.0/16         1
10.1.7.0/24         2     # more specific override
2001:db8::/32       3

`
	tab, err := ParseRoutes(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 3 {
		t.Fatalf("rows = %d, want 3", tab.Rows())
	}
	checkLookup(t, tab, "10.1.7.9", 2, 24, true)
	checkLookup(t, tab, "10.1.8.9", 1, 16, true)
	checkLookup(t, tab, "2001:db8::42", 3, 32, true)
}

func TestParseRoutesErrors(t *testing.T) {
	for _, bad := range []string{
		"10.0.0.0/8",            // missing pop
		"10.0.0.0/8 1 extra",    // too many fields
		"not-a-prefix 1",        // bad prefix
		"10.0.0.0/8 notanum",    // bad pop
		"10.0.0.0/8 4294967296", // pop overflows uint32
	} {
		if _, err := ParseRoutes(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseRoutes(%q) accepted", bad)
		}
	}
}

func TestLookupAllocsAndTableScale(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tab, _ := randomTables(rng, 2000)
	addr := netip.MustParseAddr("10.1.2.3")
	if n := testing.AllocsPerRun(100, func() { tab.Lookup(addr) }); n != 0 {
		t.Errorf("Lookup allocates %v per op", n)
	}
	addr6 := netip.MustParseAddr("2001:db8::1")
	if n := testing.AllocsPerRun(100, func() { tab.Lookup(addr6) }); n != 0 {
		t.Errorf("v6 Lookup allocates %v per op", n)
	}
}
