package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestCuratesThroughCore enforces the package's rule: every experiment
// curates and trains through core.Pipeline. No non-test file may import a
// curation stage (mining, lf, labelmodel) or call a fusion.Train* trainer.
func TestCuratesThroughCore(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	stages := map[string]bool{
		"crossmodal/internal/mining":     true,
		"crossmodal/internal/lf":         true,
		"crossmodal/internal/labelmodel": true,
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
		fusion := "" // the file's name for internal/fusion, if imported
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if stages[path] {
				t.Errorf("%s imports %s: curate through core.Pipeline", name, path)
			}
			if path == "crossmodal/internal/fusion" {
				fusion = "fusion"
				if imp.Name != nil {
					fusion = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && fusion != "" && strings.HasPrefix(sel.Sel.Name, "Train") {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == fusion {
					t.Errorf("%s: calls fusion.%s: train through core.Pipeline", fset.Position(sel.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
	}
}
