package crossmodal_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// optionAllow lists the option types ("pkg.Type") and fields
// ("pkg.Type.Field") that stay without a caller outside their package, each
// with the reason. Anything else nobody sets becomes a constant beside its use.
var optionAllow = map[string]string{
	"core.Options.IncludeModalityFeatures":   "paper hyperparameter: the T+… / I+… end-model feature sets; the core suite turns it off",
	"core.Options.LFSets":                    "read by bench/'s stage replay, which rebuilds the LF and graph schemas from it (ROADMAP item 2)",
	"core.Options.LabelModel":                "read by bench/'s stage replay (ROADMAP item 2); its one exported field, ClassBalance, defaults to the dev base rate",
	"core.Options.MaxVocab":                  "end-model vocabulary cap passed to fusion.Config; nothing sets it yet (0: unlimited)",
	"core.Options.NegCutPrecision":           "paper hyperparameter: propagation-score cut fitted on dev (§4.4)",
	"core.Options.PosCutLift":                "paper hyperparameter: propagation-score cut fitted on dev (§4.4)",
	"core.Options.Prop":                      "read by bench/'s stage replay (ROADMAP item 2); curation sets its one exported field, Prior, to the dev base rate",
	"core.StreamOptions.ChunkHook":           "injection seam: the crash / resume suite's per-chunk hook",
	"core.StreamOptions.CommitHook":          "injection seam: passes through to disk.Options.CommitHook",
	"core.TrainSpec.IncludeModalityFeatures": "copied from core.Options by DefaultTrainSpec",
	"labelprop.GraphConfig.MinWeight":        "graph hyperparameter: the edge-weight floor (default 0.05); the selection tests vary it",
	"mining.Config":                          "paper hyperparameter: the mining thresholds (§4.3); internal/experiments sets only MaxOrder, bench/ only NumericQuantiles",
	"model.Config":                           "paper hyperparameter: the end model; the model suite varies BatchSize, L2 and PositiveWeight",
	"monitor.Config.Budget":                  "public option (crossmodal.MonitorConfig): a comparison's human-review budget (default 200); Example_lifecycle sets it",
	"monitor.DriftConfig.Consecutive":        "drift-detector setting (default 2 windows); the drift suite sets it only to its default",
	"monitor.DriftConfig.MinSamples":         "drift-detector setting (default 50 samples); nothing sets it yet",
	"synth.Config":                           "the synthetic world's definition",
	"synth.DatasetConfig.CalibrationSamples": "the synthetic world's definition: task-threshold calibration size",
}

var optionType = regexp.MustCompile(`^([A-Z]\w*)?(Config|Options|Spec)$`)

// TestEveryOptionHasACaller: every exported field of a *Config / *Options /
// *Spec struct declared in this module is given a value by some non-test
// file of another module package (bench/ and cmd/ included), or is in
// optionAllow.
func TestEveryOptionHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, std, err := loadModule(fset)
	if err != nil {
		t.Fatal(err)
	}
	uncalled, err := uncalledOptions(fset, pkgs, std)
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, field := range uncalled {
		typ := field[:strings.LastIndexByte(field, '.')]
		if optionAllow[typ] == "" && optionAllow[field] == "" {
			t.Errorf("%s: no non-test caller outside its package sets it — make it a constant beside its use, or allowlist it with a reason", field)
		}
		used[typ], used[field] = true, true
	}
	for entry := range optionAllow {
		if !used[entry] {
			t.Errorf("optionAllow[%q] excuses nothing: every field it names has a caller", entry)
		}
	}
}

// TestOptionAuditResolvesTypes: an option struct and another struct share a
// field name, and another package sets only the other struct's. A match by
// field name would count the option's field as set.
func TestOptionAuditResolvesTypes(t *testing.T) {
	fset := token.NewFileSet()
	var pkgs []srcPackage
	for _, src := range []struct{ path, code string }{
		{"p", "package p\ntype Config struct{ N int }\ntype Other struct{ N int }\n"},
		{"q", "package q\nimport \"p\"\nfunc F() { var o p.Other; o.N = 1; _ = o }\n"},
	} {
		f, err := parser.ParseFile(fset, src.path+".go", src.code, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, srcPackage{src.path, []*ast.File{f}})
	}
	uncalled, err := uncalledOptions(fset, pkgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(uncalled, []string{"p.Config.N"}) {
		t.Errorf("uncalled = %q, want [p.Config.N]", uncalled)
	}
}

// srcPackage is one module package's non-test files.
type srcPackage struct {
	path  string
	files []*ast.File
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// loadModule parses every module package's non-test files, in dependency
// order, and returns an importer that reads the standard library's export
// data, all from one `go list -export -deps`.
func loadModule(fset *token.FileSet) ([]srcPackage, types.Importer, error) {
	out, err := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,Standard", "./...").Output()
	if err != nil {
		return nil, nil, err
	}
	var pkgs []srcPackage
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var lp struct {
			ImportPath, Dir, Export string
			GoFiles                 []string
			Standard                bool
		}
		if err := dec.Decode(&lp); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, nil, err
		}
		if lp.Standard {
			exports[lp.ImportPath] = lp.Export
			continue
		}
		p := srcPackage{path: lp.ImportPath}
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, err
			}
			p.files = append(p.files, f)
		}
		pkgs = append(pkgs, p)
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	return pkgs, std, nil
}

// uncalledOptions type-checks pkgs, which must come in dependency order
// (imports outside them resolve through std), and returns as "pkg.Type.Field"
// every exported field of an option struct they declare that no other of
// them sets. A field is set where a keyed composite literal, an assignment,
// an increment or &x.F (a flag.*Var) resolves to that exact field; assigning
// x.A.F sets both A and F.
func uncalledOptions(fset *token.FileSet, pkgs []srcPackage, std types.Importer) ([]string, error) {
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})}
	var options []*types.TypeName
	set := map[*types.Var]bool{}
	for _, p := range pkgs {
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
		tp, err := conf.Check(p.path, fset, p.files, info)
		if err != nil {
			return nil, err
		}
		checked[p.path] = tp
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() && optionType.MatchString(name) {
				if _, ok := tn.Type().Underlying().(*types.Struct); ok {
					options = append(options, tn)
				}
			}
		}
		mark := func(obj types.Object) {
			if v, ok := obj.(*types.Var); ok && v.IsField() && v.Pkg() != tp {
				set[v.Origin()] = true
			}
		}
		chain := func(e ast.Expr) { // x.A.F: A and F are given values here
			for sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok; sel, ok = ast.Unparen(sel.X).(*ast.SelectorExpr) {
				if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					mark(s.Obj())
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						mark(info.Uses[id])
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						chain(lhs)
					}
				case *ast.IncDecStmt:
					chain(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						chain(n.X)
					}
				}
				return true
			})
		}
	}
	var uncalled []string
	for _, tn := range options {
		st := tn.Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() && !set[f] {
				uncalled = append(uncalled, tn.Pkg().Name()+"."+tn.Name()+"."+f.Name())
			}
		}
	}
	return uncalled, nil
}
