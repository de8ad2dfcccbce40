package dnswire

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestPackUnpackNameRoundTrip(t *testing.T) {
	names := []string{
		".",
		"com.",
		"example.com.",
		"a0.muscache.com.",
		"q-cf.bstatic.com.",
		"static.tacdn.com.",
		"cdn0.agoda.net.",
		"a.cdn.intentmedia.net.",
		"video.demo1.mycdn.ciab.test.",
		"_sip._tcp.example.org.",
		strings.Repeat("a", 63) + ".example.",
	}
	for _, name := range names {
		b, err := packName(nil, name, nil)
		if err != nil {
			t.Fatalf("packName(%q): %v", name, err)
		}
		got, off, err := unpackName(b, 0)
		if err != nil {
			t.Fatalf("unpackName(%q): %v", name, err)
		}
		if got != name {
			t.Errorf("round trip of %q: got %q", name, got)
		}
		if off != len(b) {
			t.Errorf("unpackName(%q): consumed %d of %d bytes", name, off, len(b))
		}
	}
}

func TestPackNameWithoutTrailingDot(t *testing.T) {
	b, err := packName(nil, "example.com", nil)
	if err != nil {
		t.Fatalf("packName: %v", err)
	}
	got, _, err := unpackName(b, 0)
	if err != nil {
		t.Fatalf("unpackName: %v", err)
	}
	if got != "example.com." {
		t.Errorf("got %q, want example.com.", got)
	}
}

func TestPackNameEscapes(t *testing.T) {
	// A label containing a literal dot must round-trip escaped.
	name := `foo\.bar.example.`
	b, err := packName(nil, name, nil)
	if err != nil {
		t.Fatalf("packName: %v", err)
	}
	// The first label must be 7 raw octets: f o o . b a r
	if b[0] != 7 || string(b[1:8]) != "foo.bar" {
		t.Fatalf("first label wire = %q (len %d)", b[1:8], b[0])
	}
	got, _, err := unpackName(b, 0)
	if err != nil {
		t.Fatalf("unpackName: %v", err)
	}
	if got != name {
		t.Errorf("round trip: got %q want %q", got, name)
	}
}

func TestPackNameDecimalEscape(t *testing.T) {
	name := `\000\255.example.`
	b, err := packName(nil, name, nil)
	if err != nil {
		t.Fatalf("packName: %v", err)
	}
	if b[0] != 2 || b[1] != 0 || b[2] != 255 {
		t.Fatalf("wire label = % x", b[:3])
	}
	got, _, err := unpackName(b, 0)
	if err != nil {
		t.Fatalf("unpackName: %v", err)
	}
	if got != name {
		t.Errorf("round trip: got %q want %q", got, name)
	}
}

func TestPackNameErrors(t *testing.T) {
	tests := []struct {
		name string
		want error
	}{
		{strings.Repeat("a", 64) + ".com.", ErrLabelTooLong},
		{strings.Repeat(strings.Repeat("a", 63)+".", 5), ErrNameTooLong},
		{"..", ErrEmptyLabel},
		{"a..b.", ErrEmptyLabel},
	}
	for _, tt := range tests {
		if _, err := packName(nil, tt.name, nil); !errors.Is(err, tt.want) {
			t.Errorf("packName(%q) error = %v, want %v", tt.name, err, tt.want)
		}
	}
}

func TestUnpackNamePointerLoop(t *testing.T) {
	// A name that points at itself.
	msg := []byte{0xC0, 0x00}
	if _, _, err := unpackName(msg, 0); err == nil {
		t.Fatal("expected error for self-referencing pointer")
	}
}

func TestUnpackNameForwardPointerRejected(t *testing.T) {
	// Pointer to a later offset must be rejected.
	msg := []byte{0xC0, 0x04, 0x00, 0x00, 0x01, 'a', 0x00}
	if _, _, err := unpackName(msg, 0); !errors.Is(err, ErrBadPointer) {
		t.Fatalf("error = %v, want ErrBadPointer", err)
	}
}

func TestUnpackNameTruncated(t *testing.T) {
	cases := [][]byte{
		{},
		{5, 'a', 'b'},
		{0xC0},
		{3, 'c', 'o', 'm'}, // missing terminator
	}
	for _, msg := range cases {
		if _, _, err := unpackName(msg, 0); err == nil {
			t.Errorf("unpackName(% x): expected error", msg)
		}
	}
}

func TestCompressionProducesPointer(t *testing.T) {
	c := new(compressor)
	b, err := packName(nil, "www.example.com.", c)
	if err != nil {
		t.Fatal(err)
	}
	first := len(b)
	b, err = packName(b, "ftp.example.com.", c)
	if err != nil {
		t.Fatal(err)
	}
	second := len(b) - first
	// "ftp" label (4) + pointer (2) = 6 bytes; uncompressed would be 17.
	if second != 6 {
		t.Errorf("compressed encoding is %d bytes, want 6", second)
	}
	got, _, err := unpackName(b, first)
	if err != nil {
		t.Fatal(err)
	}
	if got != "ftp.example.com." {
		t.Errorf("decompressed to %q", got)
	}
}

func TestCompressionIsCaseInsensitive(t *testing.T) {
	c := new(compressor)
	b, _ := packName(nil, "EXAMPLE.com.", c)
	before := len(b)
	b, _ = packName(b, "www.example.COM.", c)
	if len(b)-before >= before {
		t.Errorf("no compression across case variants: %d bytes added", len(b)-before)
	}
}

func TestNameRoundTripProperty(t *testing.T) {
	f := func(labels [][]byte) bool {
		// Build a legal name from arbitrary label bytes.
		total := 1
		var wire []byte
		for _, l := range labels {
			if len(l) == 0 {
				continue
			}
			if len(l) > 63 {
				l = l[:63]
			}
			if total+len(l)+1 > 255 {
				break
			}
			total += len(l) + 1
			wire = append(append(wire, byte(len(l))), l...)
		}
		name, _, err := unpackName(append(wire, 0), 0)
		if err != nil {
			t.Logf("unpackName(% x): %v", wire, err)
			return false
		}
		b, err := packName(nil, name, nil)
		if err != nil {
			t.Logf("packName(%q): %v", name, err)
			return false
		}
		got, off, err := unpackName(b, 0)
		if err != nil {
			t.Logf("unpackName(%q): %v", name, err)
			return false
		}
		return got == name && off == len(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestUnpackNameNeverPanics(t *testing.T) {
	f := func(msg []byte, off uint8) bool {
		start := 0
		if len(msg) > 0 {
			start = int(off) % len(msg)
		}
		_, _, _ = unpackName(msg, start) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCanonicalName(t *testing.T) {
	tests := []struct{ in, want string }{
		{"", "."},
		{".", "."},
		{"Example.COM", "example.com."},
		{"example.com.", "example.com."},
		{"A0.Muscache.Com", "a0.muscache.com."},
	}
	for _, tt := range tests {
		if got := CanonicalName(tt.in); got != tt.want {
			t.Errorf("CanonicalName(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestIsSubdomain(t *testing.T) {
	tests := []struct {
		parent, child string
		want          bool
	}{
		{"com.", "example.com.", true},
		{"example.com.", "example.com.", true},
		{"example.com.", "www.example.com.", true},
		{"example.com.", "notexample.com.", false},
		{"example.com.", "com.", false},
		{".", "anything.at.all.", true},
		{"mycdn.ciab.test.", "video.demo1.mycdn.ciab.test.", true},
		{"Mycdn.CIAB.test", "VIDEO.demo1.mycdn.ciab.test.", true},
	}
	for _, tt := range tests {
		if got := IsSubdomain(tt.parent, tt.child); got != tt.want {
			t.Errorf("IsSubdomain(%q, %q) = %v, want %v", tt.parent, tt.child, got, tt.want)
		}
	}
}

func TestCountLabelsAndParent(t *testing.T) {
	if n := CountLabels("."); n != 0 {
		t.Errorf("CountLabels(.) = %d", n)
	}
	if n := CountLabels("a.b.c."); n != 3 {
		t.Errorf("CountLabels(a.b.c.) = %d", n)
	}
	if p := Parent("www.example.com."); p != "example.com." {
		t.Errorf("Parent = %q", p)
	}
	if p := Parent("com."); p != "." {
		t.Errorf("Parent(com.) = %q", p)
	}
	if p := Parent("."); p != "." {
		t.Errorf("Parent(.) = %q", p)
	}
}

func TestEscapeLabelPrintable(t *testing.T) {
	for label, want := range map[string]string{
		"abc-123": "abc-123.",
		"a.b":     `a\.b.`,
		"a\x00b":  `a\000b.`,
		`a\b`:     `a\\b.`,
		"\xff ~!": `\255\032~!.`,
	} {
		wire := append(append([]byte{byte(len(label))}, label...), 0)
		if got, _, err := unpackName(wire, 0); err != nil || got != want {
			t.Errorf("unpackName of label %q = %q, %v; want %q", label, got, err, want)
		}
	}
}

func TestPackNameBufferIsAppended(t *testing.T) {
	prefix := []byte{1, 2, 3}
	b, err := packName(prefix, "x.", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b, prefix) {
		t.Error("packName did not preserve existing buffer contents")
	}
}

// TestCompressionKeepsDistinctNamesApart: two names that differ only in
// an escaped dot, or only in a non-ASCII octet, are different names and
// must not be compressed onto one another. (The map-keyed compressor
// joined labels with "." and folded case with strings.ToLower, so the
// second name of each pair came back as the first.)
func TestCompressionKeepsDistinctNamesApart(t *testing.T) {
	for _, pair := range [][2]string{
		{"a.b.example.", `a\.b.example.`},
		{`\255.example.`, `\254.example.`},
		{`\195\137.example.`, `\195\169.example.`}, // É and é in UTF-8: not ASCII, not folded
	} {
		m := new(Message)
		m.SetQuestion(pair[0], TypeCNAME)
		m.Response = true
		m.Answers = []RR{&CNAME{Hdr: RRHeader{Name: pair[0], Type: TypeCNAME, Class: ClassINET, TTL: 60}, Target: pair[1]}}
		wire, err := m.Pack()
		if err != nil {
			t.Fatalf("%q: %v", pair, err)
		}
		var got Message
		if err := got.Unpack(wire); err != nil {
			t.Fatalf("%q: %v", pair, err)
		}
		if owner, target := got.Answers[0].Header().Name, got.Answers[0].(*CNAME).Target; owner != pair[0] || target != pair[1] {
			t.Errorf("packed %q, decoded owner %q target %q", pair, owner, target)
		}
	}
}

// TestPackNameUnrootedEscapedDot: a name ending in an escaped dot has no
// root dot to trim; the dot belongs to the last label.
func TestPackNameUnrootedEscapedDot(t *testing.T) {
	for name, want := range map[string][]byte{
		`a\.`:  {2, 'a', '.', 0},
		`a\..`: {2, 'a', '.', 0},
		`\.`:   {1, '.', 0},
		`a\\.`: {2, 'a', '\\', 0}, // an escaped backslash, then the root dot
	} {
		if b, err := packName(nil, name, nil); err != nil || !bytes.Equal(b, want) {
			t.Errorf("packName(%q) = % x, %v; want % x", name, b, err, want)
		}
	}
}

// TestCompressorTableBound: past maxCompressOffsets distinct suffixes a
// message still packs to something that decodes to itself; later names
// compress against the listed ones only.
func TestCompressorTableBound(t *testing.T) {
	m := new(Message)
	m.SetQuestion("zone.test.", TypeAXFR)
	m.Response = true
	for i := 0; i < 3*maxCompressOffsets; i++ {
		owner := "h" + strings.Repeat("x", i%7) + string(rune('a'+i%26)) + string(rune('a'+i/26)) + ".zone.test."
		m.Answers = append(m.Answers,
			&CNAME{Hdr: RRHeader{Name: owner, Type: TypeCNAME, Class: ClassINET, TTL: 60}, Target: "t." + owner},
			&CNAME{Hdr: RRHeader{Name: owner, Type: TypeCNAME, Class: ClassINET, TTL: 60}, Target: "u." + owner})
	}
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	var got Message
	if err := got.Unpack(wire); err != nil {
		t.Fatal(err)
	}
	for i, rr := range got.Answers {
		if want := m.Answers[i].(*CNAME); rr.Header().Name != want.Hdr.Name || rr.(*CNAME).Target != want.Target {
			t.Fatalf("record %d decoded as %v, packed %v", i, rr, want)
		}
	}
	if _, err := PatchOffsets(wire, nil); err != nil {
		t.Errorf("walk refuses the packed message: %v", err)
	}
}

// TestNameCodecAllocs is the name codec's allocation budget: growing
// the buffer, once, to pack into a nil one (none into one with room),
// one string to unpack, and three for a whole Pack of the reply shape
// the C-DNS router sends — output buffer, compressor table, nothing per
// name.
func TestNameCodecAllocs(t *testing.T) {
	const name = `video.demo1.my\.cdn.ciab.test.`
	wire, err := packName(nil, name, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 64)
	reply := routerReply()
	// What growing a nil slice once costs: 1, or 2 under the race
	// detector, which turns off the compiler's append(make) rewrite.
	var grown []byte
	grow := testing.AllocsPerRun(100, func() { grown = slices.Grow([]byte(nil), 64) })
	_ = grown
	for _, c := range []struct {
		what string
		max  float64
		f    func()
	}{
		{"packName into nil", grow, func() { _, _ = packName(nil, name, nil) }},
		{"packName into a buffer with room", 0, func() { _, _ = packName(buf, name, nil) }},
		{"packName twice, compressing", 0, func() {
			var c compressor
			b, _ := packName(buf, name, &c)
			_, _ = packName(b, name, &c)
		}},
		{"unpackName", 1, func() { _, _, _ = unpackName(wire, 0) }},
		{"Pack of the router's A + OPT/ECS reply", 3, func() { _, _ = reply.Pack() }},
	} {
		if got := testing.AllocsPerRun(100, c.f); got > c.max {
			t.Errorf("%s: %v allocations, budget %v", c.what, got, c.max)
		} else {
			t.Logf("%s: %v allocations", c.what, got)
		}
	}
}
