package meccdn_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// selectedFuncs maps each go test flag that selects functions by name
// to the prefixes of the functions it selects.
var selectedFuncs = map[string][]string{"run": {"Test", "Fuzz"}, "fuzz": {"Fuzz"}, "bench": {"Benchmark"}}

// TestCINamesResolve: `go test -run X` passes when no test matches X, so
// a test lost or renamed would drop its contract from `make ci` without a
// sound. Every name the ci recipe selects a test by must match a function
// of the package its line tests: each alternative of a -run pattern (but
// the xxx that runs none) a Test or Fuzz function, each -fuzz name a
// Fuzz function, each -bench alternative a Benchmark function.
func TestCINamesResolve(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, line := range ciRecipe(t, string(makefile)) {
		args := shellFields(line)
		if len(args) < 2 || args[0] != "$(GO)" || args[1] != "test" {
			continue
		}
		var pkgs []string
		selects := map[string]string{} // flag → pattern
		for i := 2; i < len(args); i++ {
			a := args[i]
			switch {
			case a == "." || strings.HasPrefix(a, "./"):
				pkgs = append(pkgs, a)
			case strings.HasPrefix(a, "-"):
				name, value, hasValue := strings.Cut(strings.TrimLeft(a, "-"), "=")
				if _, ok := selectedFuncs[name]; !ok {
					continue
				}
				if !hasValue && i+1 < len(args) {
					i++
					value = args[i]
				}
				selects[name] = value
			}
		}
		for _, pkg := range pkgs {
			if strings.HasSuffix(pkg, "...") {
				continue
			}
			funcs := testFuncs(t, pkg)
			for flag, pattern := range selects {
				prefixes := selectedFuncs[flag]
				for _, alt := range strings.Split(pattern, "|") {
					if flag == "run" && alt == "xxx" {
						continue
					}
					re, err := regexp.Compile(alt)
					if err != nil {
						t.Errorf("%s: -%s %q: %v", pkg, flag, alt, err)
						continue
					}
					checked++
					if !matchesAny(re, funcs, prefixes) {
						t.Errorf("make ci: -%s %q matches no %s function in %s", flag, alt, strings.Join(prefixes, "/"), pkg)
					}
				}
			}
		}
	}
	if checked < 30 {
		t.Fatalf("checked %d names in the ci recipe; the recipe was not read", checked)
	}
}

// ciRecipe returns the command lines of the Makefile's ci target.
func ciRecipe(t *testing.T, makefile string) []string {
	var lines []string
	in := false
	for _, line := range strings.Split(makefile, "\n") {
		switch {
		case strings.HasPrefix(line, "ci:"):
			in = true
		case in && strings.HasPrefix(line, "\t"):
			lines = append(lines, strings.TrimSpace(line))
		case in:
			return lines
		}
	}
	if !in {
		t.Fatal("the Makefile has no ci target")
	}
	return lines
}

// shellFields splits a recipe line into words the way sh does for the
// quoting the recipe uses: blanks separate, quotes group and are removed.
func shellFields(line string) []string {
	var fields []string
	var word strings.Builder
	inWord := false
	var quote rune
	for _, r := range line {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			word.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				fields = append(fields, word.String())
				word.Reset()
				inWord = false
			}
		default:
			word.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		fields = append(fields, word.String())
	}
	return fields
}

// testFuncs returns the top-level function names of pkg's test files,
// whatever their build constraints.
func testFuncs(t *testing.T, pkg string) []string {
	files, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names
}

func matchesAny(re *regexp.Regexp, funcs, prefixes []string) bool {
	for _, fn := range funcs {
		for _, p := range prefixes {
			if strings.HasPrefix(fn, p) && re.MatchString(fn) {
				return true
			}
		}
	}
	return false
}
