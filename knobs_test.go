package meccdn_test

// Every knob has a setter: an exported field of a config-carrying type
// is a setting only if some program sets it. A field that only ever
// takes its default is a constant spelled as an option, and a mechanism
// only it could switch on is dead code. The test parses the module's
// non-test Go files (benchmark/ included) and requires each listed
// type's exported fields to be set outside the file that declares
// them: a composite-literal key, an assignment to x.F, or &x.F (a flag
// binding).
//
// The parser knows no types, so the scan resolves what it can read off
// the syntax. A composite-literal key sets a field of the literal's own
// type (an elided element type is taken from the enclosing slice, array
// or map literal, and the facade's `type X = pkg.Y` aliases are
// followed). An assignment or &recv.F inside a method sets a field of
// the receiver's type. Every other assignment, and a literal whose type
// cannot be read, is matched by field name; a shared name errs towards
// passing.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
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
	"internal/experiments":  {"Fig2Config", "Fig5Config", "SweepConfig", "LoadBalanceConfig", "MeshConfig"},
}

// knobsWithoutProgramSetter are the fields that stay although no
// program sets them outside their declaring file.
var knobsWithoutProgramSetter = map[string]bool{
	// New sets it from its argument.
	"internal/resolver.Resolver.Roots": true,
	// AddStub and AddPoP, the -stub and -pop flag functions, append
	// to them.
	"internal/dnsd.Config.Stubs": true,
	"internal/dnsd.Config.PoPs":  true,
	// Profile data: LTE4G and NR5G set it.
	"internal/lte.AirProfile.Delay": true,
}

// goFile is one parsed non-test file with the package directory it
// belongs to and its import names, each mapped to a package directory.
type goFile struct {
	path, dir string
	ast       *ast.File
	imports   map[string]string
}

// typeKey names the module type a type expression denotes, as
// "dir.Name", or "" if the expression names none (a builtin, an
// anonymous struct, a package outside the module).
func (f *goFile) typeKey(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return f.dir + "." + e.Name
	case *ast.SelectorExpr:
		if pkg, ok := e.X.(*ast.Ident); ok && f.imports[pkg.Name] != "" {
			return f.imports[pkg.Name] + "." + e.Sel.Name
		}
	case *ast.StarExpr:
		return f.typeKey(e.X)
	case *ast.ParenExpr:
		return f.typeKey(e.X)
	case *ast.IndexExpr:
		return f.typeKey(e.X)
	}
	return ""
}

func TestKnobsHaveSetters(t *testing.T) {
	fset := token.NewFileSet()
	var files []*goFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		af, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		f := &goFile{path: filepath.ToSlash(p), ast: af, imports: map[string]string{}}
		f.dir = path.Dir(f.path)
		for _, imp := range af.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			dir, ok := strings.CutPrefix(ip, modulePath+"/")
			if ip == modulePath {
				dir, ok = ".", true
			}
			if !ok {
				continue
			}
			name := path.Base(ip)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			f.imports[name] = dir
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// A knob is one exported field of a knob type; aliases maps each
	// `type X = pkg.Y` to the type it names.
	type knob struct{ key, name, file string }
	var knobs []knob
	declared := map[string]bool{}
	aliases := map[string]string{}
	for _, f := range files {
		for _, decl := range f.ast.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				typ := f.dir + "." + ts.Name.Name
				if ts.Assign.IsValid() {
					aliases[typ] = f.typeKey(ts.Type)
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !slices.Contains(knobTypes[f.dir], ts.Name.Name) {
					continue
				}
				declared[typ] = true
				for _, fl := range st.Fields.List {
					for _, name := range fl.Names {
						if name.IsExported() {
							knobs = append(knobs, knob{typ + "." + name.Name, name.Name, f.path})
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
	resolve := func(key string) string {
		for aliases[key] != "" {
			key = aliases[key]
		}
		return key
	}

	// sets[file] holds what the file sets: "Type.Field" keys where the
	// type is known, bare field names where it is not.
	sets := map[string]map[string]bool{}
	for _, f := range files {
		set := map[string]bool{}
		sets[f.path] = set
		// elided holds the element type of composite literals written
		// without one, taken from the enclosing literal's type (an
		// elided &T{…} is written {…} under a *T element type).
		elided := map[*ast.CompositeLit]ast.Expr{}
		elide := func(e, typ ast.Expr) {
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			if cl, ok := e.(*ast.CompositeLit); ok && cl.Type == nil && typ != nil {
				elided[cl] = typ
			}
		}
		for _, decl := range f.ast.Decls {
			// recv is the receiver of the method decl belongs to, and
			// recvType the receiver's type.
			var recv, recvType string
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil && len(fd.Recv.List[0].Names) > 0 {
				recv = fd.Recv.List[0].Names[0].Name
				recvType = resolve(f.typeKey(fd.Recv.List[0].Type))
			}
			field := func(e ast.Expr) {
				sel, ok := e.(*ast.SelectorExpr)
				if !ok {
					return
				}
				if x, ok := sel.X.(*ast.Ident); ok && recv != "" && x.Name == recv {
					set[recvType+"."+sel.Sel.Name] = true
				} else {
					set[sel.Sel.Name] = true
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					typ := n.Type
					if typ == nil {
						typ = elided[n]
					}
					var elt, key ast.Expr
					switch tt := typ.(type) {
					case *ast.ArrayType:
						elt = tt.Elt
					case *ast.MapType:
						elt, key = tt.Value, tt.Key
					}
					owner := resolve(f.typeKey(typ))
					for _, e := range n.Elts {
						kv, ok := e.(*ast.KeyValueExpr)
						if !ok {
							elide(e, elt)
							continue
						}
						elide(kv.Value, elt)
						elide(kv.Key, key)
						if name, ok := kv.Key.(*ast.Ident); ok {
							if owner != "" {
								set[owner+"."+name.Name] = true
							} else {
								set[name.Name] = true
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						field(lhs)
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						field(n.X)
					}
				}
				return true
			})
		}
	}

	var unset []string
	for _, k := range knobs {
		if knobsWithoutProgramSetter[k.key] {
			continue
		}
		isSet := false
		for p, set := range sets {
			if p != k.file && (set[k.name] || set[k.key]) {
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
