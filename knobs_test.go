package meccdn_test

// Every knob has a setter: an exported field of a config-carrying type
// is a setting only if some program sets it. A field that only ever
// takes its default is a constant spelled as an option, and a mechanism
// only it could switch on is dead code. The test parses the module's
// non-test Go files (benchmark/ included) and requires each listed
// type's exported fields to be set outside the file that declares
// them: a composite-literal key, an assignment to x.F, or &x.F (a flag
// binding).

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// knobTypes are the config-carrying types, by the directory of the
// package that declares them.
var knobTypes = map[string][]string{
	"internal/dnsd":         {"Config"},
	"internal/meccdn":       {"SiteConfig", "UEClient"},
	"internal/mesh":         {"Config"},
	"internal/health":       {"Config", "Checker"},
	"internal/cdn":          {"Router", "HashRing", "CacheServerConfig"},
	"internal/orchestrator": {"Config"},
	"internal/lte":          {"Config", "AirProfile"},
	"internal/dnsserver":    {"Server", "Cache", "Forward", "Stub", "LoadShed", "ECS", "Split"},
	"internal/dnsclient":    {"Client", "NetTransport"},
	"internal/resolver":     {"Resolver"},
}

// knobsWithoutProgramSetter are the fields that stay although no
// program sets them outside their declaring file.
var knobsWithoutProgramSetter = map[string]bool{
	// TestPrefetchDedupAndBound sets it to pin the in-flight bound.
	"internal/dnsserver.Cache.MaxPrefetch": true,
	// The fallback-timeout tests shorten the MEC attempt's budget.
	"internal/meccdn.UEClient.MECBudget": true,
	// New sets it from its argument.
	"internal/resolver.Resolver.Roots": true,
	// AddStub and AddPoP, the -stub and -pop flag functions, append
	// to them.
	"internal/dnsd.Config.Stubs": true,
	"internal/dnsd.Config.PoPs":  true,
}

func TestKnobsHaveSetters(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string]*ast.File{} // by slash path
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		files[filepath.ToSlash(path)] = f
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	// A knob is one exported field of a knob type.
	type knob struct{ key, name, file string }
	var knobs []knob
	declared := map[string]bool{}
	for path, f := range files {
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !slices.Contains(knobTypes[dir], ts.Name.Name) {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				declared[dir+"."+ts.Name.Name] = true
				for _, fl := range st.Fields.List {
					for _, name := range fl.Names {
						if name.IsExported() {
							knobs = append(knobs, knob{dir + "." + ts.Name.Name + "." + name.Name, name.Name, path})
						}
					}
				}
			}
		}
	}
	for dir, types := range knobTypes {
		for _, typ := range types {
			if !declared[dir+"."+typ] {
				t.Errorf("no struct type %s in %s: update knobTypes", typ, dir)
			}
		}
	}

	// sets[file] holds the field names the file sets: composite-literal
	// keys, assignments to x.F and &x.F. Matching is by name, as the
	// parser knows no types; a shared name errs towards passing.
	sets := map[string]map[string]bool{}
	for path, f := range files {
		set := map[string]bool{}
		sets[path] = set
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							set[key.Name] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						set[sel.Sel.Name] = true
					}
				}
			case *ast.UnaryExpr:
				if sel, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
					set[sel.Sel.Name] = true
				}
			}
			return true
		})
	}

	var unset []string
	for _, k := range knobs {
		if knobsWithoutProgramSetter[k.key] {
			continue
		}
		isSet := false
		for path, set := range sets {
			if path != k.file && set[k.name] {
				isSet = true
				break
			}
		}
		if !isSet {
			unset = append(unset, k.key)
		}
	}
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Errorf("%d settings are set by no program outside their declaring file (make each a constant): %s",
			len(unset), strings.Join(unset, ", "))
	}
}
