package main

import (
	"bytes"
	"flag"
	"io"
	"net/netip"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnsd"
	"github.com/meccdn/meccdn/internal/mesh"
)

func parse(t *testing.T, args ...string) (dnsd.Config, error) {
	t.Helper()
	var cfg dnsd.Config
	fs := flag.NewFlagSet("dnsd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	bind(fs, &cfg)
	return cfg, fs.Parse(args)
}

// TestHelpGolden: flag names, defaults and usage strings are `dnsd -h`
// byte for byte (testdata/help.golden, first line normalized to the
// flag set's name).
func TestHelpGolden(t *testing.T) {
	var cfg dnsd.Config
	var out bytes.Buffer
	fs := flag.NewFlagSet("dnsd", flag.ContinueOnError)
	fs.SetOutput(&out)
	bind(fs, &cfg)
	if err := fs.Parse([]string{"-h"}); err != flag.ErrHelp {
		t.Fatalf("Parse(-h) = %v, want flag.ErrHelp", err)
	}
	want, err := os.ReadFile("testdata/help.golden")
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("dnsd -h differs from testdata/help.golden:\n%s", out.String())
	}
}

// TestFlagsReachTheirFields sets every flag once, each to a value no
// other flag gets, and the repeatable ones twice: a flag bound to the
// wrong field, or a second occurrence replacing the first, shows.
func TestFlagsReachTheirFields(t *testing.T) {
	got, err := parse(t,
		"-listen", "127.0.0.1:1053",
		"-forward", "192.0.2.1:53,192.0.2.2:53",
		"-hedge", "21ms",
		"-admin", "127.0.0.1:8026",
		"-qlog-sample", "27",
		"-probe-interval", "37s",
		"-cdn-domain", "cdn43.test.",
		"-routes", "/etc/routes44",
		"-mesh", "127.0.0.1:7047",
		"-mesh-name", "site48",
		"-zone", "a.test.=/zones/a", "-zone", "b.test.=/zones/b=odd",
		"-stub", "s1.test.=192.0.2.51:53", "-stub", "s2.test.=192.0.2.52:53, 192.0.2.53:5353",
		"-pop", "1=203.0.113.1", "-pop", "2=2001:db8::2",
		"-peers", "east=192.0.2.61:7000", "-peers", "west=192.0.2.62:7000",
	)
	if err != nil {
		t.Fatal(err)
	}
	ap := netip.MustParseAddrPort
	want := dnsd.Config{
		Listen:        "127.0.0.1:1053",
		Forward:       "192.0.2.1:53,192.0.2.2:53",
		Hedge:         21 * time.Millisecond,
		Admin:         "127.0.0.1:8026",
		QlogSample:    27,
		ProbeInterval: 37 * time.Second,
		CDNDomain:     "cdn43.test.",
		Routes:        "/etc/routes44",
		Mesh:          "127.0.0.1:7047",
		MeshName:      "site48",
		// Only the first "=" splits: a path may contain one.
		Zones: []dnsd.ZoneFile{{Origin: "a.test.", Path: "/zones/a"}, {Origin: "b.test.", Path: "/zones/b=odd"}},
		Stubs: []dnsd.StubRoute{
			{Domain: "s1.test.", Upstreams: []netip.AddrPort{ap("192.0.2.51:53")}},
			{Domain: "s2.test.", Upstreams: []netip.AddrPort{ap("192.0.2.52:53"), ap("192.0.2.53:5353")}},
		},
		PoPs: []dnsd.PoPAddr{
			{ID: 1, Addr: netip.MustParseAddr("203.0.113.1")},
			{ID: 2, Addr: netip.MustParseAddr("2001:db8::2")},
		},
		Peers: []mesh.Peer{{Name: "east", Addr: "192.0.2.61:7000"}, {Name: "west", Addr: "192.0.2.62:7000"}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parsed config =\n%+v\nwant\n%+v", got, want)
	}
	// Every field of the expectation is set, so a flag added without a
	// row above fails here rather than passing unnoticed.
	v := reflect.ValueOf(want)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Errorf("Config.%s has no flag in this test", v.Type().Field(i).Name)
		}
	}
}

// TestMalformedFlagValues: each malformed k=v form is refused at parse
// time, with the flag named.
func TestMalformedFlagValues(t *testing.T) {
	for _, args := range [][]string{
		{"-zone", "missing-equals"},
		{"-stub", "noequals"},
		{"-stub", "d.test.=notanaddr"},
		{"-stub", "d.test.=192.0.2.1:53,"},
		{"-stub", "d.test.=192.0.2.1"},
		{"-pop", "noequals"},
		{"-pop", "x=192.0.2.1"},
		{"-pop", "-1=192.0.2.1"},
		{"-pop", "1=notanaddr"},
		{"-peers", "noequals"},
		{"-peers", "b=notanaddr"},
		{"-peers", "b=192.0.2.1"},
	} {
		_, err := parse(t, args...)
		if err == nil {
			t.Errorf("%v accepted", args)
		} else if !strings.Contains(err.Error(), "flag "+args[0]) {
			t.Errorf("%v: error %q does not name the flag", args, err)
		}
	}
}

// TestREADMEFlagTable: README's dnsd flag table names exactly the flags
// bind defines, each in one row.
func TestREADMEFlagTable(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "`dnsd` flags:\n")
	if !ok {
		t.Fatal("README has no \"`dnsd` flags:\" table")
	}
	var documented []string
	flagName := regexp.MustCompile("`-([a-z-]+)`")
	for _, line := range strings.Split(strings.TrimLeft(table, "\n"), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			break // the table has ended
		}
		for _, m := range flagName.FindAllStringSubmatch(cells[1], -1) {
			documented = append(documented, m[1])
		}
	}
	var defined []string
	fs := flag.NewFlagSet("dnsd", flag.ContinueOnError)
	bind(fs, new(dnsd.Config))
	fs.VisitAll(func(f *flag.Flag) { defined = append(defined, f.Name) })
	slices.Sort(documented)
	if !slices.Equal(documented, defined) {
		t.Errorf("README's dnsd flag table names %v,\nbind defines %v", documented, defined)
	}
}
