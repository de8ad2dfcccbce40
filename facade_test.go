package meccdn_test

// Facade coverage: the helpers the public API exposes do what their
// internal counterparts do, and the facade is what its programs use —
// every exported name of the root package must be reached as
// meccdn.<Name> by an example, a command or the root's integration and
// example tests. A name nothing uses is deleted, not kept for a
// hypothetical caller.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	meccdn "github.com/meccdn/meccdn"
)

func TestFacadeHasUsers(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				names = append(names, exportedNames(decl)...)
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("no exported names found in the root package")
	}

	var users strings.Builder
	for _, dir := range []string{"examples", "cmd"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			b, err := os.ReadFile(path)
			users.Write(b)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range []string{"integration_test.go", "example_test.go"} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		users.Write(b)
	}
	src := users.String()

	var unused []string
	for _, name := range names {
		if !regexp.MustCompile(`\bmeccdn\.` + name + `\b`).MatchString(src) {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d exported names have no user in examples/, cmd/, integration_test.go or example_test.go: %s",
			len(unused), strings.Join(unused, ", "))
	}
}

func TestFacadeConstructors(t *testing.T) {
	if meccdn.NewDNSMetrics() == nil {
		t.Error("NewDNSMetrics")
	}
	if meccdn.NewRouter("d.test.") == nil {
		t.Error("NewRouter")
	}
	if meccdn.NewCatalog("d.test.") == nil || meccdn.NewOrigin() == nil {
		t.Error("catalog/origin")
	}
}

func TestFacadeMobilityAndSamplers(t *testing.T) {
	tb := meccdn.NewTestbed(meccdn.TestbedConfig{Seed: 9, BaseStations: 2})
	if meccdn.NewMobilityManager(tb.Net, meccdn.Constant(time.Millisecond), 0) == nil {
		t.Fatal("NewMobilityManager")
	}
	if meccdn.ENB(1) != "enb1" {
		t.Error("ENB")
	}
	node := tb.AddMEC("extra")
	if meccdn.NewCacheServer(node, meccdn.CacheServerConfig{Name: "extra", CapacityBytes: 1}) == nil {
		t.Error("NewCacheServer")
	}
	if meccdn.TierEdge.String() != "edge" || meccdn.TierMid.String() != "mid" {
		t.Error("tier aliases")
	}
}

// exportedNames lists the exported top-level names one declaration
// introduces; methods are part of their type.
func exportedNames(decl ast.Decl) []string {
	var out []string
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil && d.Name.IsExported() {
			out = append(out, d.Name.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() {
					out = append(out, s.Name.Name)
				}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					if n.IsExported() {
						out = append(out, n.Name)
					}
				}
			}
		}
	}
	return out
}
