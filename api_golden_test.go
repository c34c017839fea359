package bicriteria_test

import (
	"bytes"
	"flag"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// updateAPI regenerates the root package's goldens: the public-API golden
// and, with -run TestExamplesMatchGolden, the example goldens:
//
//	go test -run TestPublicAPIGolden -update-api .
var updateAPI = flag.Bool("update-api", false, "rewrite testdata/api.golden (go doc output) and testdata/examples/*.golden (example stdout)")

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

// TestInternalIdentifiersHaveCallers holds internal/ to the rule the
// facade keeps. An exported func, method or type of internal/<pkg> is
// kept when
//
//	(a) non-test code of another package of this repository names it:
//	    the root package, cmd/, examples/, the other internal/ packages,
//	    benchmark/ or tools/. A function or type is named as pkg.Name; a
//	    method is named by any selector .Name outside its package, since
//	    the receiver's type is not known without type checking;
//	(b) the exported signature, field or underlying type of a kept
//	    identifier names it;
//	(c) it is a method of an interface declared in this repository, in a
//	    standard package it imports, or of the builtin error, and its
//	    receiver type has every method of that interface: it is reached
//	    through the interface, not by name.
//
// internal/exact is exempt: it is the declared test oracle, and only
// tests call it.
func TestInternalIdentifiersHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	files := repoFiles(t, fset)

	type decl struct {
		pkg  string    // internal package directory, e.g. "internal/core"
		node ast.Node  // *ast.FuncDecl or *ast.TypeSpec
		file *ast.File // the declaring file, for its imports
	}
	decls := map[string]decl{} // "internal/core.Name" or "internal/core.Type.Method"
	ifaces := [][]string{{"Error"}}
	methods := map[string]map[string]bool{} // "internal/core.Type" -> its method names
	embeds := map[string]bool{}             // struct types with an embedded field
	stdImports := map[string]bool{}
	for _, f := range files {
		for _, imp := range f.ast.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if first, _, _ := strings.Cut(path, "/"); first != "bicriteria" && !strings.Contains(first, ".") {
				stdImports[path] = true
			}
		}
		ifaces = appendInterfaces(ifaces, f.ast)
		if !strings.HasPrefix(f.dir, "internal/") || f.dir == "internal/exact" {
			continue
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				key := f.dir + "." + d.Name.Name
				if d.Recv != nil {
					typ := f.dir + "." + recvTypeName(d.Recv)
					if methods[typ] == nil {
						methods[typ] = map[string]bool{}
					}
					methods[typ][d.Name.Name] = true
					key = typ + "." + d.Name.Name
				}
				if !d.Name.IsExported() {
					continue
				}
				decls[key] = decl{f.dir, d, f.ast}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if st, ok := ts.Type.(*ast.StructType); ok {
						embeds[f.dir+"."+ts.Name.Name] = slices.ContainsFunc(st.Fields.List, func(f *ast.Field) bool { return f.Names == nil })
					}
					if ts.Name.IsExported() {
						decls[f.dir+"."+ts.Name.Name] = decl{f.dir, ts, f.ast}
					}
				}
			}
		}
	}
	for path := range stdImports {
		pkg, err := build.Default.Import(path, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range pkg.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(pkg.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ifaces = appendInterfaces(ifaces, f)
		}
	}

	kept := map[string]bool{}
	var queue []string
	keep := func(key string) {
		if _, ok := decls[key]; ok && !kept[key] {
			kept[key] = true
			queue = append(queue, key)
		}
	}
	selected := map[string]map[string]bool{} // selector name -> dirs selecting it
	for _, f := range files {
		for name := range qualifiedNames(f.ast) {
			if name.pkg != f.dir {
				keep(name.pkg + "." + name.name) // (a)
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if selected[sel.Sel.Name] == nil {
					selected[sel.Sel.Name] = map[string]bool{}
				}
				selected[sel.Sel.Name][f.dir] = true
			}
			return true
		})
	}
	for key, d := range decls {
		fn, ok := d.node.(*ast.FuncDecl)
		if !ok || fn.Recv == nil {
			continue
		}
		if typ := d.pkg + "." + recvTypeName(fn.Recv); implements(methods[typ], embeds[typ], fn.Name.Name, ifaces) {
			keep(key) // (c)
		}
		for dir := range selected[fn.Name.Name] {
			if dir != d.pkg {
				keep(key) // (a)
			}
		}
	}
	for len(queue) > 0 {
		key := queue[0]
		queue = queue[1:]
		d := decls[key]
		var expr ast.Node
		switch n := d.node.(type) {
		case *ast.FuncDecl:
			if n.Recv != nil {
				keep(d.pkg + "." + recvTypeName(n.Recv))
			}
			expr = n.Type
		case *ast.TypeSpec:
			if n.TypeParams != nil {
				keepNamesIn(n.TypeParams, d.pkg, d.file, keep)
			}
			expr = n.Type
			if st, ok := n.Type.(*ast.StructType); ok {
				expr = nil
				for _, field := range st.Fields.List {
					if field.Names == nil || slices.ContainsFunc(field.Names, (*ast.Ident).IsExported) {
						keepNamesIn(field.Type, d.pkg, d.file, keep) // (b)
					}
				}
			}
		}
		if expr != nil {
			keepNamesIn(expr, d.pkg, d.file, keep) // (b)
		}
	}

	var uncalled []string
	for key := range decls {
		if !kept[key] {
			uncalled = append(uncalled, key)
		}
	}
	sort.Strings(uncalled)
	if len(uncalled) > 0 {
		t.Fatalf("%d exported identifiers of internal/ have no caller in another package "+
			"and are named by no kept signature: delete or unexport them\n%s", len(uncalled), strings.Join(uncalled, "\n"))
	}
}

type repoFile struct {
	dir string // slash-separated directory relative to the repository root
	ast *ast.File
}

// repoFiles parses the repository's non-test Go files, outside testdata.
func repoFiles(t *testing.T, fset *token.FileSet) []repoFile {
	t.Helper()
	var files []repoFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, repoFile{filepath.ToSlash(filepath.Dir(path)), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

type qualifiedName struct{ pkg, name string }

// qualifiedNames returns the pkg.Name selectors f takes from this
// repository's internal packages, keyed by the package's directory.
func qualifiedNames(f *ast.File) map[qualifiedName]bool {
	local := internalImports(f)
	names := map[qualifiedName]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && local[x.Name] != "" {
				names[qualifiedName{local[x.Name], sel.Sel.Name}] = true
			}
		}
		return true
	})
	return names
}

// internalImports maps f's local import names to the directories of the
// internal packages they import.
func internalImports(f *ast.File) map[string]string {
	local := map[string]string{}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		dir, ok := strings.CutPrefix(path, "bicriteria/")
		if !ok || !strings.HasPrefix(dir, "internal/") {
			continue
		}
		name := dir[strings.LastIndex(dir, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		local[name] = dir
	}
	return local
}

// keepNamesIn keeps every identifier of pkg, and every pkg.Name of an
// internal import of file, that n names.
func keepNamesIn(n ast.Node, pkg string, file *ast.File, keep func(string)) {
	local := internalImports(file)
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && local[x.Name] != "" {
				keep(local[x.Name] + "." + n.Sel.Name)
			}
			return false
		case *ast.Ident:
			keep(pkg + "." + n.Name)
		}
		return true
	})
}

// recvTypeName is the name of a method's receiver type, without pointer
// or type parameters.
func recvTypeName(recv *ast.FieldList) string {
	expr := recv.List[0].Type
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// appendInterfaces appends the method names of every interface type f
// declares. Embedded interfaces are left out, so a type may match an
// interface it only partly implements.
func appendInterfaces(ifaces [][]string, f *ast.File) [][]string {
	ast.Inspect(f, func(n ast.Node) bool {
		if it, ok := n.(*ast.InterfaceType); ok {
			var names []string
			for _, m := range it.Methods.List {
				for _, id := range m.Names {
					names = append(names, id.Name)
				}
			}
			if len(names) > 0 {
				ifaces = append(ifaces, names)
			}
		}
		return true
	})
	return ifaces
}

// implements reports whether a type with the given method names has
// every method of an interface that declares method. The methods a struct
// promotes from an embedded field are not known here, so such a struct
// only needs an interface that declares method.
func implements(methods map[string]bool, embeds bool, method string, ifaces [][]string) bool {
	for _, iface := range ifaces {
		if slices.Contains(iface, method) && (embeds || !slices.ContainsFunc(iface, func(m string) bool { return !methods[m] })) {
			return true
		}
	}
	return false
}
