package dnswire

import (
	"fmt"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// packQuery builds the wire form of a simple query for tests.
func packQuery(t *testing.T, build func(*Message)) []byte {
	t.Helper()
	m := new(Message)
	m.SetQuestion("cdn.edge.example.org.", TypeA)
	m.ID = 0x1234
	if build != nil {
		build(m)
	}
	wire, err := m.Pack()
	if err != nil {
		t.Fatalf("packing query: %v", err)
	}
	return wire
}

// TestUnpackQueryMatchesUnpack is the differential contract: for any
// input, UnpackQuery must produce exactly the Message Unpack does —
// same fields on success, an error whenever Unpack errors. The corpus
// runs back to back on one scratch message, in both orders, the way a
// serve loop parses: whatever the last query left in the OPT, its
// option slice or its ECS option must not survive into this one.
func TestUnpackQueryMatchesUnpack(t *testing.T) {
	ecs := func(prefix string) *ECSOption { return NewECSOption(netip.MustParsePrefix(prefix)) }
	cookie := &GenericOption{OptCode: OptionCodeCookie, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	withOptions := func(opts ...EDNSOption) []byte {
		return packQuery(t, func(m *Message) {
			m.SetEDNS(1232).Options = opts
		})
	}
	label63 := strings.Repeat("a", 63) + "."
	name255 := packQuery(t, func(m *Message) {
		m.Questions[0].Name = label63 + label63 + label63 + strings.Repeat("b", 61) + "."
	})
	inputs := []struct {
		name string
		wire []byte
	}{
		{"plain A query", packQuery(t, nil)},
		{"ECS v4", withOptions(ecs("10.1.2.0/24"))},
		{"EDNS query", withOptions()},
		{"ECS v6", withOptions(ecs("2001:db8:1::/48"))},
		{"no OPT", packQuery(t, nil)},
		{"cookie only", withOptions(cookie)},
		{"ECS + cookie", withOptions(cookie, ecs("192.0.2.0/26"))},
		{"two ECS", withOptions(ecs("10.9.0.0/16"), ecs("10.8.0.0/16"))},
		{"ECS scope set", withOptions(&ECSOption{Family: 1, SourcePrefix: 20, ScopePrefix: 9, Address: netip.MustParseAddr("10.3.16.0")})},
		{"bad ECS", withOptions(&GenericOption{OptCode: OptionCodeECS, Data: []byte{0, 1, 24}})},
		{"DO bit, BADVERS bits", packQuery(t, func(m *Message) {
			m.SetEDNS(4096).Hdr.TTL = 1<<24 | 1<<15
		})},
		{"root qname", packQuery(t, func(m *Message) {
			m.SetQuestion(".", TypeNS)
		})},
		{"CD+non-RD flags", packQuery(t, func(m *Message) {
			m.RecursionDesired = false
			m.CheckingDisabled = true
		})},
		{"mixed case and escapes", packQuery(t, func(m *Message) {
			m.Questions[0].Name = `Obj\.1\\x\000\255.CDN.test.`
		})},
		// 255 octets is the most a name may have; 256 is one too many.
		{"255-octet name", name255},
		{"256-octet name", func() []byte {
			at := 12 + 3*64 // the last label's length octet
			w := slices.Insert(slices.Clone(name255), at+1, 'b')
			w[at]++
			return w
		}()},
		{"response with answers", func() []byte {
			m := new(Message)
			m.SetQuestion("a.example.org.", TypeA)
			m.Response = true
			m.Answers = []RR{&A{Hdr: RRHeader{Name: "a.example.org.", Class: ClassINET, TTL: 60}, Addr: netip.AddrFrom4([4]byte{192, 0, 2, 1})}}
			wire, err := m.Pack()
			if err != nil {
				t.Fatal(err)
			}
			return wire
		}()},
		{"short header", []byte{0x12, 0x34, 0x01}},
		{"empty", []byte{}},
		{"truncated qname", append(packQuery(t, nil)[:14], 0x3F)},
		{"trailing garbage", append(packQuery(t, nil), 0xAA)},
		{"ECS again", withOptions(ecs("10.1.3.0/24"))},
	}
	// canon is a deep copy of m with empty slices nil: reuse keeps
	// zero-length slices where Unpack leaves nil.
	canon := func(m *Message) *Message {
		c := m.Clone()
		for _, s := range []*[]RR{&c.Answers, &c.Authorities, &c.Additionals} {
			if len(*s) == 0 {
				*s = nil
			}
		}
		for _, rr := range c.Additionals {
			if opt, ok := rr.(*OPT); ok && len(opt.Options) == 0 {
				opt.Options = nil
			}
		}
		return c
	}
	for _, reverse := range []bool{false, true} {
		var got Message
		tbl := NewNameIntern(0)
		for i := range inputs {
			in, name := inputs[i], inputs[i].name
			if reverse {
				in = inputs[len(inputs)-1-i]
				name = in.name + " (reverse order)"
			}
			t.Run(name, func(t *testing.T) {
				var want Message
				wantErr := want.Unpack(in.wire)
				gotErr := got.UnpackQuery(in.wire, tbl)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("Unpack err = %v, UnpackQuery err = %v", wantErr, gotErr)
				}
				if wantErr != nil {
					return
				}
				if g, w := canon(&got), canon(&want); !reflect.DeepEqual(g, w) {
					t.Fatalf("UnpackQuery mismatch:\n got %v\nwant %v", g, w)
				}
			})
		}
	}
}

// TestUnpackQueryCompressedQnameFallsBack covers the rare legal shape
// the fast path punts on: a question name using a compression pointer.
func TestUnpackQueryCompressedQnameFallsBack(t *testing.T) {
	// Hand-build: header with qd=1, a qname that is a pointer to
	// itself's suffix... simplest legal form: name at 12 is a pointer
	// to a name stored right after the fixed header is impossible in a
	// query, so point at a label we embed after the question instead.
	// Easier: pointer must point backwards; offset 12 is the first
	// name, so embed the target inside the header is not possible.
	// Use a two-entry trick: qd=1 with name = label + pointer to 12 is
	// a loop and must error in BOTH paths.
	wire := []byte{
		0x12, 0x34, 0x01, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0xC0, 12, // pointer to itself: loop
		0x00, 0x01, 0x00, 0x01,
	}
	var a, b Message
	aErr := a.Unpack(wire)
	bErr := b.UnpackQuery(wire, nil)
	if (aErr == nil) != (bErr == nil) {
		t.Fatalf("Unpack err = %v, UnpackQuery err = %v; paths disagree", aErr, bErr)
	}
}

func TestUnpackQueryReusesStorage(t *testing.T) {
	wireA := packQuery(t, nil)
	wireB := packQuery(t, func(m *Message) {
		m.SetQuestion("other.example.org.", TypeAAAA)
		m.ID = 0x9999
	})
	var m Message
	tbl := NewNameIntern(0)
	if err := m.UnpackQuery(wireA, tbl); err != nil {
		t.Fatal(err)
	}
	first := &m.Questions[0]
	if err := m.UnpackQuery(wireB, tbl); err != nil {
		t.Fatal(err)
	}
	if &m.Questions[0] != first {
		t.Error("Questions slice was reallocated across calls")
	}
	if m.Questions[0].Name != "other.example.org." || m.Questions[0].Type != TypeAAAA || m.ID != 0x9999 {
		t.Errorf("second parse leaked first parse's state: %+v", m.Questions[0])
	}
}

func TestUnpackQueryInternsNames(t *testing.T) {
	for _, qname := range []string{"cdn.edge.example.org.", "CdN.eDgE.Example.ORG."} {
		wire := packQuery(t, func(m *Message) { m.Questions[0].Name = qname })
		tbl := NewNameIntern(0)
		var m Message
		if err := m.UnpackQuery(wire, tbl); err != nil {
			t.Fatal(err)
		}
		n1 := m.Questions[0].Name
		if err := m.UnpackQuery(wire, tbl); err != nil {
			t.Fatal(err)
		}
		n2 := m.Questions[0].Name
		if n2 != qname {
			t.Errorf("%s: parsed %q", qname, n2)
		}
		if unsafePointerOf(n1) != unsafePointerOf(n2) {
			t.Errorf("%s: repeat parse did not return the interned string", qname)
		}
	}
}

func TestNameInternBounded(t *testing.T) {
	tbl := NewNameIntern(4)
	var m Message
	for i := 0; i < 10; i++ {
		wire := packQuery(t, func(m *Message) { m.Questions[0].Name = fmt.Sprintf("n%d.example.", i) })
		if err := m.UnpackQuery(wire, tbl); err != nil {
			t.Fatal(err)
		}
	}
	if len(tbl.names) > 4 {
		t.Fatalf("intern table grew to %d entries, bound is 4", len(tbl.names))
	}
}

// TestUnpackQueryNoAllocOnRepeat: a repeat of a seen name allocates
// nothing, with or without an OPT and an ECS option, and in a stream
// that alternates them (the scratch keeps its ECS option through an
// OPT-only query); names never seen share the table's chunks, so they
// cost a few allocations per hundred, counted over more names than the
// table holds. testing.AllocsPerRun would round that down to 0.
func TestUnpackQueryNoAllocOnRepeat(t *testing.T) {
	ecs := packQuery(t, func(m *Message) {
		m.SetEDNS(1232).Options = []EDNSOption{NewECSOption(netip.MustParsePrefix("10.1.2.0/24"))}
	})
	optOnly := packQuery(t, func(m *Message) { m.SetEDNS(1232) })
	tbl := NewNameIntern(0)
	var m Message
	for _, c := range []struct {
		name  string
		wires [][]byte
	}{
		{"plain", [][]byte{packQuery(t, nil)}},
		{"ECS", [][]byte{ecs}},
		{"ECS, OPT-only, ECS", [][]byte{ecs, optOnly, ecs}},
		{"0x20-cased", [][]byte{packQuery(t, func(m *Message) { m.Questions[0].Name = "CdN.eDgE.Example.ORG." })}},
	} {
		parse := func() {
			for _, wire := range c.wires {
				if err := m.UnpackQuery(wire, tbl); err != nil {
					t.Fatal(err)
				}
			}
		}
		parse()
		if allocs := testing.AllocsPerRun(1000, parse); allocs != 0 {
			t.Errorf("%s: UnpackQuery allocates %.1f per repeat parse, want 0", c.name, allocs)
		}
	}
	const names = 10000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= names; i++ {
		wire := ecs
		wire[13], wire[14], wire[15] = byte(i), byte(i>>8), byte(i>>16) // a new first label
		if err := m.UnpackQuery(wire, tbl); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perName := float64(after.Mallocs-before.Mallocs) / names; perName > 0.05 {
		t.Errorf("UnpackQuery allocates %.3f per never-seen name, want <= 0.05", perName)
	} else {
		t.Logf("UnpackQuery allocates %.4f per never-seen name", perName)
	}
}

// unsafePointerOf identifies a string's backing data, so tests can
// check two strings are the same interned instance.
func unsafePointerOf(s string) *byte { return unsafe.StringData(s) }
