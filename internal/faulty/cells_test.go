package faulty

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestFaultPathWritesCells enforces the fault path's shape: a guarded or
// injected call writes its typed cell into the destination vector the way a
// healthy call does, so no non-test function in internal/resource or
// internal/faulty — declared, an interface method or a literal — takes or
// returns a boxed feature.Value.
func TestFaultPathWritesCells(t *testing.T) {
	var files []string
	for _, pattern := range []string{"../resource/*.go", "*.go"} {
		matches, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, matches...)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		feature := "" // the file's name for internal/feature, if imported
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "crossmodal/internal/feature" {
				feature = "feature"
				if imp.Name != nil {
					feature = imp.Name.Name
				}
			}
		}
		if feature == "" {
			continue
		}
		boxed := func(fn string, ft *ast.FuncType) {
			found := false
			ast.Inspect(ft, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Value" {
					x, ok := sel.X.(*ast.Ident)
					found = found || ok && x.Name == feature
				}
				return !found
			})
			if found {
				t.Errorf("%s: %s takes or returns feature.Value: write the cell into the destination vector", fset.Position(ft.Pos()), fn)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				fn := n.Name.Name
				if n.Recv != nil {
					recv := n.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						fn = id.Name + "." + fn
					}
				}
				boxed(fn, n.Type)
			case *ast.TypeSpec:
				if it, ok := n.Type.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						if ft, ok := m.Type.(*ast.FuncType); ok && len(m.Names) > 0 {
							boxed(n.Name.Name+"."+m.Names[0].Name, ft)
						}
					}
				}
			case *ast.FuncLit:
				boxed("a func literal", n.Type)
			}
			return true
		})
	}
}
