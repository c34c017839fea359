package bicriteria_test

import (
	"bytes"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// updateAPI regenerates the public-API golden:
//
//	go test -run TestPublicAPIGolden -update-api .
var updateAPI = flag.Bool("update-api", false, "rewrite testdata/api.golden with the current go doc output")

// TestPublicAPIGolden pins the facade's public surface: the `go doc
// bicriteria` listing (package comment plus every exported declaration)
// is diffed against testdata/api.golden, so an accidental rename,
// removal or signature change of a facade identifier fails CI instead of
// slipping into a release. Intentional API changes regenerate the golden
// with -update-api.
func TestPublicAPIGolden(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	cmd := exec.Command(goBin, "doc", ".")
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go doc failed: %v\n%s", err, out)
	}
	path := filepath.Join("testdata", "api.golden")
	if *updateAPI {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing API golden (regenerate with: go test -run TestPublicAPIGolden -update-api .): %v", err)
	}
	if !bytes.Equal(out, want) {
		t.Fatalf("the public API drifted from testdata/api.golden\n"+
			"if the change is intentional, regenerate with: go test -run TestPublicAPIGolden -update-api .\n"+
			"--- got ---\n%s\n--- want ---\n%s", out, want)
	}
}

// TestFacadeIdentifiersHaveCallers keeps the facade to what its callers
// use. An exported identifier of bicriteria.go is kept when
//
//	(a) non-test code under cmd/ or examples/, or example_test.go, names it,
//	    as bicriteria.Name or in a comment or string (the CLIs document
//	    the seed salts in their help);
//	(b) the signature of a kept function names it;
//	(c) it shares a const block, or the type (...) block of Scenario spec
//	    sections, with a kept identifier: a Scenario literal needs every
//	    section and half an enum is not an API;
//	(d) it is ValidationError, which Compile's doc tells callers to match
//	    with errors.As.
//
// Every other exported identifier fails the test: delete it, or reach the
// internal package it wraps from a test of that package.
func TestFacadeIdentifiersHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "bicriteria.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	exported := map[string]bool{}
	for name := range facade.Scope.Objects {
		if ast.IsExported(name) {
			exported[name] = true
		}
	}

	kept := map[string]bool{"ValidationError": true} // (d)
	for _, path := range facadeCallerFiles(t) {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for name := range facadeNames(f, exported) {
			kept[name] = true // (a)
		}
	}
	for _, decl := range facade.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Recv != nil || !kept[fn.Name.Name] {
			continue
		}
		ast.Inspect(fn.Type, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				return false // a qualified name from another package
			case *ast.Ident:
				if exported[n.Name] {
					kept[n.Name] = true // (b)
				}
			}
			return true
		})
	}
	for _, decl := range facade.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || !gen.Lparen.IsValid() || (gen.Tok != token.CONST && gen.Tok != token.TYPE) {
			continue
		}
		var names []string
		anyKept := false
		for _, spec := range gen.Specs {
			switch spec := spec.(type) {
			case *ast.ValueSpec:
				for _, id := range spec.Names {
					names = append(names, id.Name)
				}
			case *ast.TypeSpec:
				names = append(names, spec.Name.Name)
			}
		}
		for _, name := range names {
			anyKept = anyKept || kept[name]
		}
		for _, name := range names {
			kept[name] = kept[name] || anyKept // (c)
		}
	}

	var uncalled []string
	for name := range exported {
		if !kept[name] {
			uncalled = append(uncalled, name)
		}
	}
	sort.Strings(uncalled)
	if len(uncalled) > 0 {
		t.Fatalf("%d facade identifiers have no caller in cmd/, examples/ or example_test.go "+
			"and name no type a kept function needs:\n%s", len(uncalled), strings.Join(uncalled, "\n"))
	}
}

// facadeCallerFiles lists the files whose uses keep a facade identifier:
// the non-test Go files under cmd/ and examples/, and example_test.go.
func facadeCallerFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"example_test.go"}
	for _, root := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// facadeNames returns the facade identifiers f names: the selectors it
// takes from the bicriteria import, under whatever local name f gives it,
// and the exported names its comments and string literals mention.
func facadeNames(f *ast.File, exported map[string]bool) map[string]bool {
	names := map[string]bool{}
	mention := func(text string) {
		for _, word := range strings.FieldsFunc(text, func(r rune) bool {
			return r != '_' && !unicode.IsLetter(r) && !unicode.IsDigit(r)
		}) {
			if exported[word] {
				names[word] = true
			}
		}
	}
	for _, group := range f.Comments {
		mention(group.Text())
	}
	local := ""
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "bicriteria" {
			local = "bicriteria"
			if imp.Name != nil {
				local = imp.Name.Name
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BasicLit:
			if n.Kind == token.STRING {
				mention(n.Value)
			}
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && local != "" && x.Name == local {
				names[n.Sel.Name] = true
			}
		}
		return true
	})
	return names
}
