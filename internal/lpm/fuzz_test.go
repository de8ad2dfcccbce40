package lpm

import (
	"encoding/binary"
	"net/netip"
	"strconv"
	"strings"
	"testing"
)

// FuzzLPMLookup differentially tests the interval table against the
// naive linear-scan reference: the fuzzer's bytes are decoded into a
// route set plus probe addresses, both implementations are loaded with
// the same routes, and every probe — the fuzz-chosen addresses plus
// each route's own start and end boundary — must agree. The table's
// shape is checked too: each family's spans start at address zero,
// ascend, and never repeat their predecessor's PoP and prefix length;
// and the same rows, each carrying the PoP that survives for its
// prefix, added in reverse order build an Equal table, so a reload
// of a re-sorted routes file is seen as no change.
func FuzzLPMLookup(f *testing.F) {
	f.Add([]byte{0x00, 10, 0, 0, 0, 16, 1, 0x00, 10, 1, 0, 0, 24, 2})
	f.Add([]byte{0x01, 0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 32, 3})
	f.Add([]byte{0x00, 0, 0, 0, 0, 0, 9}) // 0.0.0.0/0
	f.Fuzz(func(t *testing.T, data []byte) {
		b := NewBuilder()
		ref := &Reference{}
		var prefixes []netip.Prefix
		survivor := map[netip.Prefix]PoP{} // by the prefix Add files the row under
		// Decode records: tag byte selects family; v4 records are
		// addr(4)+bits(1)+pop(1), v6 records addr(16)+bits(1)+pop(1).
		// Cap the route count so a large input can't stall the fuzzer.
		for len(data) > 0 && len(prefixes) < 64 {
			tag := data[0]
			data = data[1:]
			var addr netip.Addr
			var maxBits int
			if tag&1 == 0 {
				if len(data) < 6 {
					break
				}
				var a [4]byte
				copy(a[:], data)
				addr, maxBits = netip.AddrFrom4(a), 32
				data = data[4:]
			} else {
				if len(data) < 18 {
					break
				}
				var a [16]byte
				copy(a[:], data)
				addr, maxBits = netip.AddrFrom16(a), 128
				data = data[16:]
			}
			bits := int(data[0]) % (maxBits + 1)
			pop := PoP(data[1])
			data = data[2:]
			p, err := addr.Prefix(bits)
			if err != nil {
				continue
			}
			if err := b.Add(p, pop); err != nil {
				t.Fatalf("Builder.Add(%v): %v", p, err)
			}
			if err := ref.Add(p, pop); err != nil {
				t.Fatalf("Reference.Add(%v): %v", p, err)
			}
			prefixes = append(prefixes, p)
			survivor[filed(p)] = pop
		}
		tab := b.Build()
		checkSpans(t, tab.v4start, tab.v4pop, tab.v4bits, func(a uint32) u128 { return u128{lo: uint64(a)} })
		checkSpans(t, tab.v6start, tab.v6pop, tab.v6bits, func(a u128) u128 { return a })
		rev := NewBuilder()
		for i := len(prefixes) - 1; i >= 0; i-- {
			if err := rev.Add(prefixes[i], survivor[filed(prefixes[i])]); err != nil {
				t.Fatal(err)
			}
		}
		if !rev.Build().Equal(tab) {
			t.Fatalf("the rows in reverse order, with their surviving PoPs, build another table: %v", prefixes)
		}

		check := func(addr netip.Addr) {
			gp, gb, gok := tab.Lookup(addr)
			wp, wb, wok := ref.Lookup(addr)
			if gp != wp || gb != wb || gok != wok {
				t.Fatalf("Lookup(%s) = (%d,%d,%v), reference (%d,%d,%v)",
					addr, gp, gb, gok, wp, wb, wok)
			}
		}
		// Probe every route's first and last covered address — the
		// interval boundaries, where an off-by-one would live.
		for _, p := range prefixes {
			check(p.Masked().Addr())
			check(lastAddr(p))
		}
		// And any leftover fuzz bytes as raw probe addresses.
		for len(data) >= 4 {
			if len(data) >= 16 {
				var a [16]byte
				copy(a[:], data)
				check(netip.AddrFrom16(a))
			}
			var a [4]byte
			copy(a[:], data)
			check(netip.AddrFrom4(a))
			data = data[4:]
		}
	})
}

// filed returns the prefix Builder.Add files p under: masked, and a
// 4-in-6 prefix of 96 bits or more as its IPv4 prefix.
func filed(p netip.Prefix) netip.Prefix {
	p = p.Masked()
	if a := p.Addr(); a.Is4In6() && p.Bits() >= 96 {
		return netip.PrefixFrom(a.Unmap(), p.Bits()-96)
	}
	return p
}

// checkSpans fails unless one family's spans start at address zero,
// ascend, and each differ from their predecessor in PoP or prefix
// length.
func checkSpans[A uint32 | u128](t *testing.T, starts []A, pops []PoP, bits []int16, wide func(A) u128) {
	t.Helper()
	var zero A
	if len(starts) > 0 && starts[0] != zero {
		t.Fatalf("first span starts at %v, not zero", starts[0])
	}
	for i := 1; i < len(starts); i++ {
		if wide(starts[i-1]).compare(wide(starts[i])) >= 0 {
			t.Fatalf("span %d starts at %v, not after span %d's %v", i, starts[i], i-1, starts[i-1])
		}
		if pops[i] == pops[i-1] && bits[i] == bits[i-1] {
			t.Fatalf("spans %d and %d both route to PoP %d at /%d", i-1, i, pops[i], bits[i])
		}
	}
}

// lastAddr returns the highest address covered by p.
func lastAddr(p netip.Prefix) netip.Addr {
	addr := p.Masked().Addr()
	if addr.Is4() {
		a4 := addr.As4()
		v := binary.BigEndian.Uint32(a4[:])
		if p.Bits() < 32 {
			v |= ^uint32(0) >> p.Bits()
		}
		binary.BigEndian.PutUint32(a4[:], v)
		return netip.AddrFrom4(a4)
	}
	a16 := addr.As16()
	for i := p.Bits(); i < 128; i++ {
		a16[i/8] |= 1 << (7 - i%8)
	}
	return netip.AddrFrom16(a16)
}

// FuzzParseRoutes differentially tests the routes-file parser: the same
// text is read line by line here, as ParseRoutes' doc comment states the
// format, into a Reference. The parser must accept exactly the texts
// this reading accepts, and its table must give the reference's PoP and
// prefix length for every route's first and last address and for
// addresses taken from the fuzzer's bytes.
func FuzzParseRoutes(f *testing.F) {
	f.Add("# subnet PoP\n10.1.0.0/16 1\n10.1.7.0/24 2 # override\n2001:db8::/32 3\n", []byte{10, 1, 7, 9, 10, 1, 8, 9})
	f.Add("0.0.0.0/0 7\r\n10.0.0.0/8\t9\n", []byte{10, 0, 0, 1})
	f.Add("::ffff:10.0.0.0/104 4\n10.0.0.0/8 5\n", []byte{10, 2, 3, 4})
	f.Add("10.0.0.0/8 1 extra\n", []byte{})
	f.Add("10.0.0.0/8 4294967296\n", []byte{})
	f.Fuzz(func(t *testing.T, text string, probes []byte) {
		if len(text) > 64<<10 {
			return // ParseRoutes' line limit is not the property under test
		}
		ref, prefixes, ok := referenceRoutes(text)
		tab, err := ParseRoutes(strings.NewReader(text))
		if (err == nil) != ok {
			t.Fatalf("ParseRoutes(%q) error %v, the line-by-line reading accepts: %v", text, err, ok)
		}
		if !ok {
			return
		}
		check := func(addr netip.Addr) {
			gp, gb, gok := tab.Lookup(addr)
			wp, wb, wok := ref.Lookup(addr)
			if gp != wp || gb != wb || gok != wok {
				t.Fatalf("%q: Lookup(%s) = (%d,%d,%v), reference (%d,%d,%v)", text, addr, gp, gb, gok, wp, wb, wok)
			}
		}
		for _, p := range prefixes {
			check(p.Masked().Addr())
			check(lastAddr(p))
		}
		for ; len(probes) >= 4; probes = probes[4:] {
			check(netip.AddrFrom4([4]byte(probes[:4])))
			if len(probes) >= 16 {
				check(netip.AddrFrom16([16]byte(probes[:16])))
			}
		}
	})
}

// referenceRoutes reads routes text into a Reference: each line cut at
// its first '#', split on white space, and either empty or a prefix and
// a decimal uint32 PoP. ok is false when a line is neither.
func referenceRoutes(text string) (ref *Reference, prefixes []netip.Prefix, ok bool) {
	ref = &Reference{}
	for _, line := range strings.Split(text, "\n") {
		line, _, _ = strings.Cut(line, "#")
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 {
			return nil, nil, false
		}
		p, err := netip.ParsePrefix(fields[0])
		if err != nil {
			return nil, nil, false
		}
		pop, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil || ref.Add(p, PoP(pop)) != nil {
			return nil, nil, false
		}
		prefixes = append(prefixes, p)
	}
	return ref, prefixes, true
}
