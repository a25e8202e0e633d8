package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"solros/internal/core"
)

// machineShape is the only part of core.Config the benchmark may set: how big
// the machine is, plus the sink of the traced repetition. Every other field
// is a feature knob, and the benchmark measures what a user gets by default:
// when a knob is folded into the only path, the gain shows here without an
// edit to the benchmark.
var machineShape = map[string]bool{
	"Phis": true, "PhiMemBytes": true, "HostRAMBytes": true, "DiskBytes": true,
	"CacheBytes": true, "ProxyWorkers": true, "Telemetry": true, "Tracing": true,
}

func parseBenchmark(t *testing.T) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
}

// TestNoFeatureKnob fails if any core.Config literal in the benchmark sets a
// field outside the machine shape, or if any assignment targets a field that
// only core.Config's knobs are named after.
func TestNoFeatureKnob(t *testing.T) {
	knobs := map[string]bool{}
	ct := reflect.TypeOf(core.Config{})
	for i := 0; i < ct.NumField(); i++ {
		if name := ct.Field(i).Name; !machineShape[name] {
			knobs[name] = true
		}
	}
	for name := range machineShape {
		if _, ok := ct.FieldByName(name); !ok {
			t.Errorf("core.Config has no field %s any more: the benchmark's machine shape depends on it", name)
		}
	}
	fset, files := parseBenchmark(t)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				sel, ok := n.Type.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Config" {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "core" {
					return true
				}
				for _, e := range n.Elts {
					kv, ok := e.(*ast.KeyValueExpr)
					if !ok {
						t.Errorf("%s: core.Config literal without field names", fset.Position(e.Pos()))
						continue
					}
					if key := kv.Key.(*ast.Ident).Name; !machineShape[key] {
						t.Errorf("%s: core.Config literal sets %s, which is not machine shape", fset.Position(kv.Pos()), key)
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && knobs[sel.Sel.Name] {
						t.Errorf("%s: assignment to .%s, the name of a core.Config feature knob", fset.Position(lhs.Pos()), sel.Sel.Name)
					}
				}
			}
			return true
		})
	}
}

// TestSurfaceListed fails if the benchmark uses a package-level symbol of the
// program that README.md does not list as kept stable for the benchmark.
// Later changes may not edit the benchmark, so the list is the promise they
// have to keep; methods are listed there by hand.
func TestSurfaceListed(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, files := parseBenchmark(t)
	used := map[string]bool{}
	for _, f := range files {
		pkgs := map[string]bool{} // local names of the program's packages
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(path, "solros/internal/") {
				pkgs[filepath.Base(path)] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && pkgs[x.Name] && x.Obj == nil {
					used[x.Name+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	var missing []string
	for sym := range used {
		if !strings.Contains(string(readme), "`"+sym+"`") {
			missing = append(missing, sym)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("README.md does not list these imported symbols as kept stable: %s", strings.Join(missing, ", "))
	}
}
