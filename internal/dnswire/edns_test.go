package dnswire

import (
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

func TestECSOptionRoundTrip(t *testing.T) {
	tests := []netip.Prefix{
		netip.MustParsePrefix("203.0.113.0/24"),
		netip.MustParsePrefix("10.45.0.0/16"),
		netip.MustParsePrefix("192.0.2.128/25"),
		netip.MustParsePrefix("0.0.0.0/0"),
		netip.MustParsePrefix("2001:db8::/56"),
		netip.MustParsePrefix("2001:db8:1234::/48"),
	}
	for _, prefix := range tests {
		m := new(Message)
		m.SetQuestion("ecs.test.", TypeA)
		opt := m.SetEDNS(DefaultEDNSSize)
		opt.Options = append(opt.Options, NewECSOption(prefix))

		wire, err := m.Pack()
		if err != nil {
			t.Fatalf("Pack with ECS %v: %v", prefix, err)
		}
		var got Message
		if err := got.Unpack(wire); err != nil {
			t.Fatalf("Unpack with ECS %v: %v", prefix, err)
		}
		ecs, ok := got.ECS()
		if !ok {
			t.Fatalf("ECS option lost for %v", prefix)
		}
		if ecs.Prefix() != prefix.Masked() {
			t.Errorf("ECS prefix = %v, want %v", ecs.Prefix(), prefix.Masked())
		}
	}
}

func TestECSScopePrefixRoundTrip(t *testing.T) {
	o := &ECSOption{Family: 1, SourcePrefix: 24, ScopePrefix: 22,
		Address: netip.MustParseAddr("198.51.100.0")}
	b, err := o.packOption(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got ECSOption
	if err := got.unpackOption(b); err != nil {
		t.Fatal(err)
	}
	if got.ScopePrefix != 22 || got.SourcePrefix != 24 {
		t.Errorf("scope/source = %d/%d", got.ScopePrefix, got.SourcePrefix)
	}
}

func TestECSAddressTruncation(t *testing.T) {
	// /20 must encode exactly 3 address octets with low bits zeroed.
	o := NewECSOption(netip.MustParsePrefix("203.0.255.0/20"))
	b, err := o.packOption(nil)
	if err != nil {
		t.Fatal(err)
	}
	// 2 family + 1 source + 1 scope + 3 address.
	if len(b) != 7 {
		t.Fatalf("encoded length = %d, want 7 (% x)", len(b), b)
	}
	if b[6]&0x0F != 0 {
		t.Errorf("low bits not zeroed: %08b", b[6])
	}
}

func TestECSFamilyMismatchRejected(t *testing.T) {
	o := &ECSOption{Family: 1, SourcePrefix: 24, Address: netip.MustParseAddr("2001:db8::1")}
	if _, err := o.packOption(nil); err == nil {
		t.Error("family-1 ECS with IPv6 address packed without error")
	}
}

func TestECSUnpackWrongLength(t *testing.T) {
	// Family 1, /24, but 4 address octets instead of 3.
	data := []byte{0, 1, 24, 0, 1, 2, 3, 4}
	var o ECSOption
	if err := o.unpackOption(data); err == nil {
		t.Error("over-long ECS address accepted")
	}
	if err := o.unpackOption([]byte{0, 1}); err == nil {
		t.Error("short ECS accepted")
	}
}

func TestOPTAccessors(t *testing.T) {
	opt := NewOPT(4096)
	if opt.UDPSize() != 4096 {
		t.Errorf("UDPSize = %d", opt.UDPSize())
	}
	opt.SetUDPSize(1232)
	if opt.UDPSize() != 1232 {
		t.Errorf("after SetUDPSize = %d", opt.UDPSize())
	}
	if opt.Version() != 0 {
		t.Errorf("Version = %d", opt.Version())
	}
	if opt.Header().Name != "." {
		t.Errorf("OPT owner = %q", opt.Header().Name)
	}
}

func TestGenericOptionRoundTrip(t *testing.T) {
	m := new(Message)
	m.SetQuestion("cookie.test.", TypeA)
	opt := m.SetEDNS(1232)
	opt.Options = append(opt.Options, &GenericOption{
		OptCode: OptionCodeCookie,
		Data:    []byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4},
	})
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	var got Message
	if err := got.Unpack(wire); err != nil {
		t.Fatal(err)
	}
	gopt, ok := got.OPT()
	if !ok || len(gopt.Options) != 1 {
		t.Fatalf("OPT options lost: %+v", gopt)
	}
	if !reflect.DeepEqual(gopt.Options[0], opt.Options[0]) {
		t.Errorf("cookie round trip: %+v", gopt.Options[0])
	}
}

func TestSetEDNSIdempotent(t *testing.T) {
	m := new(Message)
	m.SetQuestion("x.test.", TypeA)
	m.SetEDNS(512)
	m.SetEDNS(4096)
	count := 0
	for _, rr := range m.Additionals {
		if rr.Header().Type == TypeOPT {
			count++
		}
	}
	if count != 1 {
		t.Errorf("SetEDNS created %d OPT records", count)
	}
	opt, _ := m.OPT()
	if opt.UDPSize() != 4096 {
		t.Errorf("UDPSize = %d", opt.UDPSize())
	}
}

func TestOPTCloneIsDeep(t *testing.T) {
	opt := NewOPT(1232)
	opt.Options = append(opt.Options,
		NewECSOption(netip.MustParsePrefix("10.0.0.0/8")),
		&GenericOption{OptCode: 99, Data: []byte{1}})
	c := opt.Clone().(*OPT)
	c.Options[0].(*ECSOption).SourcePrefix = 32
	c.Options[1].(*GenericOption).Data[0] = 9
	if opt.Options[0].(*ECSOption).SourcePrefix != 8 {
		t.Error("OPT.Clone shares ECS option")
	}
	if opt.Options[1].(*GenericOption).Data[0] != 1 {
		t.Error("OPT.Clone shares generic option data")
	}
}

func TestECSOptionUnpackNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		var o ECSOption
		_ = o.unpackOption(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Stray address bits inside the final disclosed octet make the option
// malformed (RFC 7871 §6: they MUST be zero on the wire), so they never
// reach routing code.
func TestECSUnpackRejectsStrayBits(t *testing.T) {
	for _, data := range [][]byte{
		{0, 1, 20, 0, 203, 0, 0xFF},                          // /20, the low nibble of the third octet set
		{0, 2, 61, 0, 0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0x07}, // /61, bits 62-64 set
	} {
		var o ECSOption
		if err := o.unpackOption(data); err == nil {
			t.Errorf("% x decodes to %v", data, o.Prefix())
		}
	}
	// The same prefixes with the stray bits clear decode.
	for data, want := range map[string]string{
		string([]byte{0, 1, 20, 0, 203, 0, 0xF0}):                       "203.0.240.0/20",
		string([]byte{0, 2, 61, 0, 0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0}): "2001:db8::/61",
	} {
		var o ECSOption
		if err := o.unpackOption([]byte(data)); err != nil || o.Prefix().String() != want {
			t.Errorf("% x: %v, %v; want %s", data, o.Prefix(), err, want)
		}
	}
}

func TestECSNormalizeQuery(t *testing.T) {
	o := &ECSOption{Family: 1, SourcePrefix: 24, ScopePrefix: 17,
		Address: netip.MustParseAddr("198.51.100.77")}
	o.NormalizeQuery()
	if o.ScopePrefix != 0 {
		t.Errorf("scope = %d, want 0", o.ScopePrefix)
	}
	if want := netip.MustParseAddr("198.51.100.0"); o.Address != want {
		t.Errorf("address = %v, want %v", o.Address, want)
	}
	if o.SourcePrefix != 24 {
		t.Errorf("source = %d changed", o.SourcePrefix)
	}

	// Zero-length disclosure keeps nothing.
	z := &ECSOption{Family: 1, SourcePrefix: 0, ScopePrefix: 3,
		Address: netip.MustParseAddr("198.51.100.77")}
	z.NormalizeQuery()
	if want := netip.MustParseAddr("0.0.0.0"); z.Address != want || z.ScopePrefix != 0 {
		t.Errorf("normalized /0 = %v/%d", z.Address, z.ScopePrefix)
	}

	// An invalid (zero) address must not panic.
	inv := &ECSOption{Family: 1, SourcePrefix: 8, ScopePrefix: 1}
	inv.NormalizeQuery()
	if inv.ScopePrefix != 0 {
		t.Errorf("invalid-address scope = %d", inv.ScopePrefix)
	}
}
