package meccdn_test

// Production code is what a program links. A function under internal/
// that no command, example or the benchmark links is exercised only by
// tests: a capability with no caller, kept for one that may never come.
// Tests are not programs, the root package's included. The test builds
// every program with inlining off in this module (so a call is a
// symbol, not a copy), reads each binary's symbol table with `go tool
// nm`, and requires every function and method declared in a non-test
// internal/ file that the host's build constraints include to appear in
// at least one of them.

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const modulePath = "github.com/meccdn/meccdn"

// linkAllowlist names the functions that stay although no program links
// them, each with the reason. None of them is a capability: each is a
// test oracle or entry point, a platform fallback, or a read-only accessor
// that a named test reads.
var linkAllowlist = map[string]string{
	// Test oracles.
	"internal/lpm.(*Reference).Add":              "oracle: FuzzLPMLookup and FuzzParseRoutes build the linear-scan twin",
	"internal/lpm.(*Reference).Lookup":           "oracle: FuzzLPMLookup compares every Table lookup against it",
	"internal/telemetry.RecordFromSpan":          "oracle: TestSampledFinishAllocs compares the hub's logged record against it",
	"internal/dnsserver.(*socketShard).sendLoop": "platform fallback: the egress where sendmmsg is not wired up",
	"internal/dnsserver.Resolve":                 "test entry: the tests of dnsserver, cdn, resolver, cmd/dnsd and the root package run a chain through serveQuery with it",

	// Read-only accessors.
	"internal/cdn.(*HashRing).Load":              "TestBoundedLoadInvariant reads a member's load against the cap",
	"internal/cdn.(*Router).Mesh":                "TestMeshGossipBetweenDaemons reads that the router got the mesh view",
	"internal/dnsclient.(*NetTransport).Stats":   "TestPoolSequentialExchangesDialOnce, TestPoolIdleCap and TestRealSocketConcurrentClients read the socket pool's counts",
	"internal/dnsserver.(*Metrics).CountByRcode": "TestMetricsPlugin reads a response-code count",
	"internal/dnsserver.(*Metrics).CountByType":  "TestMetricsHostileLabels reads the overflow type cell",
	"internal/dnsserver.(*Server).RejectedConns": "TestTCPMaxConns reads the refused-connection count",
	"internal/dnsserver.(*Server).ServedPackets": "TestShedContract reads served for received == served + shed",
	"internal/dnsserver.(*Server).SocketPackets": "TestWorkerCounterAggregationExact reads each socket's count",
	"internal/health.(*Registry).Routable":       "TestDownWithinDownAfterProbes reads a target's verdict",
	"internal/lte.(*Testbed).AttachedENB":        "TestMultipleBaseStationsAndReattach reads the UE's base station",
	"internal/mesh.(*View).CapRejections":        "TestBoundedLoadCapsSteering reads the skipped-at-cap count",
	"internal/mesh.(*View).Load":                 "TestAnnounceSteersContent reads a peer's steering load",
	"internal/mesh.Filter.Bits":                  "TestAnnounceRoundTrip reads the decoded bitmap size",
	"internal/mesh.Filter.Contains":              "TestDigestNoFalseNegatives probes the announced filter by name",
	"internal/stats.(*Sample).Values":            "TestValuesCopy reads the observations",
	"internal/telemetry.(*QueryLog).Stats":       "TestServeQueryAllocs reads that every sampled query was logged",
	"internal/telemetry.(*Family).Values":        "TestCounterVecValueSumSnapshot reads every cell",
	"internal/telemetry.(*Span).Hops":            "TestSpanConcurrentHops reads the recorded hops",
	"internal/telemetry.(*Span).Outcome":         "TestSpanEndIdempotent reads the first outcome",
	"internal/telemetry.(*Span).Sampled":         "TestHubHeadSampling reads the sampling verdict",
	"internal/telemetry.(*Span).Total":           "TestSpanEndIdempotent reads the duration",
	"internal/trace.(*Tap).Events":               "TestResetBetweenExchanges reads the recorded hops",
}

func TestEveryFunctionIsLinked(t *testing.T) {
	linked := linkedSymbols(t)

	fset := token.NewFileSet()
	type decl struct {
		pos string
		// wrapper is a value-receiver method's pointer wrapper; it calls
		// the method, so either symbol proves a caller.
		wrapper string
	}
	declared := map[string]decl{}
	err := filepath.WalkDir("internal", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		importPath := modulePath + "/" + filepath.ToSlash(dir)
		for _, name := range pkg.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				return err
			}
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Body == nil || fn.Name.Name == "init" || fn.Name.Name == "_" {
					continue
				}
				sym, wrapper := funcSymbol(importPath, fn)
				declared[sym] = decl{fset.Position(fn.Pos()).String(), wrapper}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var unlinked []string
	isLinked := func(sym string) bool {
		return linked[sym] || linked[declared[sym].wrapper]
	}
	for sym, d := range declared {
		if isLinked(sym) || linkAllowlist[shortSymbol(sym)] != "" {
			continue
		}
		unlinked = append(unlinked, fmt.Sprintf("%s (%s)", shortSymbol(sym), d.pos))
	}
	sort.Strings(unlinked)
	for _, u := range unlinked {
		t.Errorf("%s: no program links it; give a program a caller or delete it", u)
	}

	for name, reason := range linkAllowlist {
		sym := modulePath + "/" + name
		if _, ok := declared[sym]; !ok {
			t.Errorf("allowlist entry %s names no function", name)
		} else if isLinked(sym) && !strings.HasPrefix(reason, "platform fallback") {
			// A platform fallback is linked where its platform builds.
			t.Errorf("allowlist entry %s is linked by a program; drop the entry", name)
		}
	}
}

// linkedSymbols builds the programs — cmd/..., examples/... and the
// benchmark module — and returns the function symbols their binaries
// hold, generic instantiations folded to the generic name.
func linkedSymbols(t *testing.T) map[string]bool {
	out := t.TempDir()
	noInline := "-gcflags=" + modulePath + "/...=-l"
	goCmd(t, ".", "build", noInline, "-o", out+string(filepath.Separator), "./cmd/...", "./examples/...")
	goCmd(t, "benchmark", "build", noInline, "-o", filepath.Join(out, "benchmark.bin"), ".")

	bins, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	if want := mainPackages(t, "cmd", "examples") + 1; len(bins) != want {
		t.Fatalf("built %d binaries, want %d: every command, every example and the benchmark", len(bins), want)
	}
	syms := map[string]bool{}
	for _, bin := range bins {
		nm := goCmd(t, ".", "tool", "nm", filepath.Join(out, bin.Name()))
		sc := bufio.NewScanner(bytes.NewReader(nm))
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			// "<addr> <kind> <name>"; a name may hold spaces (shape types).
			fields := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
			if len(fields) == 3 && strings.HasPrefix(fields[2], modulePath+"/") {
				syms[stripTypeArgs(fields[2])] = true
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return syms
}

// mainPackages counts the main packages directly under each of dirs.
func mainPackages(t *testing.T, dirs ...string) int {
	n := 0
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			if pkg, err := build.ImportDir(filepath.Join(dir, e.Name()), 0); err == nil && pkg.Name == "main" {
				n++
			}
		}
	}
	return n
}

func goCmd(t *testing.T, dir string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out
}

// funcSymbol is the linker's name for fn — pkg.F, pkg.T.M or
// pkg.(*T).M — and, for a value receiver, its pointer wrapper's.
func funcSymbol(importPath string, fn *ast.FuncDecl) (sym, wrapper string) {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return importPath + "." + fn.Name.Name, ""
	}
	typ := fn.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		star, typ = true, s.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	recv := typ.(*ast.Ident).Name
	ptr := importPath + ".(*" + recv + ")." + fn.Name.Name
	if star {
		return ptr, ""
	}
	return importPath + "." + recv + "." + fn.Name.Name, ptr
}

// shortSymbol drops the module prefix: internal/cdn.(*Router).Route.
func shortSymbol(sym string) string { return strings.TrimPrefix(sym, modulePath+"/") }

// stripTypeArgs removes every bracketed type-argument list from a
// symbol: pkg.(*Ring[go.shape.string]).Get → pkg.(*Ring).Get.
func stripTypeArgs(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}
