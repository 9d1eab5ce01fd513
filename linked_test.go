package rex_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// productionBinaries are the module's main packages: every function under
// internal/ must be linked into at least one of them.
var productionBinaries = []string{"./cmd/rexd", "./cmd/rexbench", "./benchmark"}

// unlinkedAllowed names the functions (key "pkg.Func" or "pkg.Type.Method")
// and whole packages (key "pkg") that no binary links but that stay, each
// with the reason why.
var unlinkedAllowed = map[string]string{
	"rex/internal/model/modeltest":       "test-support package",
	"rex/internal/faultnet/scenariotest": "test-support package",
	"rex/internal/vec.SGDStep":           "reference for TestFusedSGDStepMatchesComposition",
	"rex/internal/topology.Materialize":  "reference for TestStreamedTopologyMatchesMaterialized",
}

// TestProductionCodeIsLinked fails on every function declared in a non-test
// file under internal/ that none of the production binaries links. The
// binaries are built without inlining in this module's packages, so every
// function a binary reaches keeps its own symbol, and `go tool nm` lists
// them; the declarations come from the files `go list` reports for the
// host GOOS/GOARCH.
func TestProductionCodeIsLinked(t *testing.T) {
	bin := t.TempDir()
	build := append([]string{"build", "-gcflags=rex/...=-l", "-o", bin + string(filepath.Separator)}, productionBinaries...)
	if out, err := exec.Command("go", build...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	linked := map[string]bool{}
	for _, p := range productionBinaries {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(bin, filepath.Base(p))).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", p, err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			f := strings.SplitN(strings.TrimSpace(line), " ", 3)
			if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
				for _, k := range symbolKeys(f[2]) {
					linked[k] = true
				}
			}
		}
	}

	out, err := exec.Command("go", "list", "-f", `{{.ImportPath}}{{"\t"}}{{.Dir}}{{"\t"}}{{join .GoFiles " "}}`, "./internal/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	fset := token.NewFileSet()
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		pkg, dir := f[0], f[1]
		declared[pkg] = true
		for _, name := range strings.Fields(f[2]) {
			path := filepath.Join(dir, name)
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "_" {
					continue
				}
				key := declKey(pkg, fd)
				declared[key] = true
				if linked[key] || unlinkedAllowed[key] != "" || unlinkedAllowed[pkg] != "" {
					continue
				}
				rel, _ := filepath.Rel(root, path)
				from, to := fset.Position(fd.Pos()).Line, fset.Position(fd.End()).Line
				t.Errorf("%s:%d: %s (%d lines) is linked into no production binary: delete it, or give it a caller",
					rel, from, strings.TrimPrefix(key, "rex/internal/"), to-from+1)
			}
		}
	}
	for key, why := range unlinkedAllowed {
		switch {
		case why == "":
			t.Errorf("allowlist entry %s gives no reason", key)
		case !declared[key]:
			t.Errorf("allowlist entry %s names nothing declared under internal/", key)
		case linked[key]:
			t.Errorf("allowlist entry %s is linked now: drop the entry", key)
		}
	}
}

// declKey is the key of a function declaration: "pkg.Func", or
// "pkg.Type.Method" for a method on Type, *Type or a generic Type[...].
func declKey(pkg string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkg + "." + fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	return pkg + "." + typ.(*ast.Ident).Name + "." + fd.Name.Name
}

// symbolKeys returns the declaration keys a linked text symbol of this
// module shows to be reached: "rex/internal/x.(*T[go.shape.int]).M-fm"
// reaches x.T.M, "rex/internal/x.F.func1" (a closure) reaches x.F. Both the
// first and the first two name components are returned, as a symbol does
// not say whether its first component is a type or a function.
func symbolKeys(sym string) []string {
	if !strings.HasPrefix(sym, "rex/") {
		return nil
	}
	var b strings.Builder // sym without its type arguments
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	s := b.String()
	slash := strings.LastIndex(s, "/")
	dot := strings.Index(s[slash:], ".")
	if dot < 0 {
		return nil
	}
	pkg, rest := s[:slash+dot], s[slash+dot+1:]
	rest = strings.NewReplacer("(*", "", ")", "", "-fm", "").Replace(rest)
	parts := strings.Split(rest, ".")
	keys := []string{pkg + "." + parts[0]}
	if len(parts) > 1 {
		keys = append(keys, pkg+"."+parts[0]+"."+parts[1])
	}
	return keys
}

// TestSymbolKeys pins symbolKeys on each form of symbol the production
// binaries hold, against the declKey of the declaration it belongs to.
func TestSymbolKeys(t *testing.T) {
	const pkg = "rex/internal/x"
	for _, c := range []struct{ sym, decl string }{
		{pkg + ".F", "func F() {}"},
		{pkg + ".(*T).M", "func (t *T) M() {}"},
		{pkg + ".T.M", "func (t T) M() {}"},
		{pkg + ".(*T).M", "func (t T) M() {}"}, // the pointer wrapper of a value method
		{pkg + ".(*T[go.shape.int]).M", "func (t *T[E]) M() {}"},
		{pkg + ".(*T[go.shape.int,go.shape.[]uint8]).M", "func (t *T[K, V]) M() {}"},
		{pkg + ".F[go.shape.struct { rex/internal/y.a []int; rex/internal/y.b float64 }]", "func F[E any]() {}"},
		{pkg + ".(*T).m-fm", "func (t *T) m() {}"},
		{pkg + ".F.func1", "func F() {}"},
		{pkg + ".(*T).M.func2.1", "func (t *T) M() {}"},
		{pkg + ".F.gowrap1", "func F() {}"},
		{pkg + ".init.0", "func init() {}"},
	} {
		file, err := parser.ParseFile(token.NewFileSet(), "x.go", "package x\n"+c.decl, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := declKey(pkg, file.Decls[0].(*ast.FuncDecl))
		if got := symbolKeys(c.sym); !slices.Contains(got, want) {
			t.Errorf("symbolKeys(%q) = %q, want it to hold %q", c.sym, got, want)
		}
	}
	for _, sym := range []string{"runtime.main", "type:.eq.rex/internal/x.T", "slices.Sort[go.shape.[]rex/internal/x.T]"} {
		if got := symbolKeys(sym); got != nil {
			t.Errorf("symbolKeys(%q) = %q, want none: not a function of this module", sym, got)
		}
	}
}
