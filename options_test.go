package crossmodal_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// optionAllow lists the option types ("pkg.Type") and fields
// ("pkg.Type.Field") that stay without a caller outside their package, each
// with the reason. Anything else nobody sets becomes a constant beside its use.
var optionAllow = map[string]string{
	"core.Options.IncludeModalityFeatures":   "paper hyperparameter: modality-specific feature sets in the end model (§4.1)",
	"core.Options.LFSets":                    "paper hyperparameter: the service sets LFs may read (Table 2's ablation axis)",
	"core.Options.LabelModel":                "paper hyperparameter: the label model's EM settings (labelmodel.Config)",
	"core.Options.MaxVocab":                  "paper hyperparameter: end-model vocabulary cap",
	"core.Options.NegCutPrecision":           "paper hyperparameter: propagation-score cut fitted on dev (§4.4)",
	"core.Options.PosCutLift":                "paper hyperparameter: propagation-score cut fitted on dev (§4.4)",
	"core.Options.Prop":                      "paper hyperparameter: propagation settings (labelprop.PropConfig)",
	"core.StreamOptions.ChunkHook":           "injection seam: the crash / resume suite's per-chunk hook",
	"core.StreamOptions.CommitHook":          "injection seam: passes through to disk.Options.CommitHook",
	"core.StreamOptions.WarmPropagate":       "paper hyperparameter: warm propagation, ROADMAP item 10's subject",
	"core.TrainSpec.IncludeModalityFeatures": "paper hyperparameter: copied from core.Options by DefaultTrainSpec",
	"labelprop.GraphConfig.Exact":            "paper hyperparameter: pins the exact graph under LSH, ROADMAP item 12's subject",
	"labelprop.GraphConfig.MinWeight":        "paper hyperparameter: edge-weight floor, ROADMAP item 12 sweeps it",
	"labelprop.LSHConfig":                    "paper hyperparameter: ROADMAP item 12's subject",
	"mining.Config":                          "paper hyperparameter: the mining thresholds internal/experiments ablates",
	"model.Config":                           "paper hyperparameter: the end model",
	"monitor.DriftConfig.Consecutive":        "paper hyperparameter: the drift suite varies it",
	"monitor.DriftConfig.MinSamples":         "paper hyperparameter: the drift suite varies it",
	"synth.Config":                           "the synthetic world's definition",
	"synth.DatasetConfig.CalibrationSamples": "the synthetic world's definition: task-threshold calibration size",
}

var optionType = regexp.MustCompile(`^([A-Z]\w*)?(Config|Options|Spec)$`)

// TestEveryOptionHasACaller: every exported field of a *Config / *Options /
// *Spec struct is given a value — a composite-literal key, an
// assignment, or a flag.*Var(&x.F) — by some non-test file outside its
// declaring package, or is in optionAllow. Types resolve by syntax only
// (pkg.Type literals, the root façade's aliases); assignments and &x.F match
// by field name.
func TestEveryOptionHasACaller(t *testing.T) {
	fields := map[string][]string{} // "pkg.Type" -> exported fields
	declDir := map[string]string{}  // "pkg.Type" -> declaring directory
	alias := map[string]string{}    // "crossmodal.MiningConfig" -> "mining.Config"
	keyed := map[string]bool{}      // "pkg.Type.Field" keyed in a pkg.Type{...} literal
	named := map[string][]string{}  // field name -> directories that assign it or take its address
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, imports := filepath.Dir(p), map[string]string{}
		for _, im := range f.Imports {
			pkg, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(pkg)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = path.Base(pkg)
		}
		qualified := func(e ast.Expr) string { // "pkg.Type" of a pkg.Type expression, else ""
			if sel, ok := e.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
					return imports[x.Name] + "." + sel.Sel.Name
				}
			}
			return ""
		}
		name := func(e ast.Expr) { // x.A.F: A and F are given values here
			for sel, ok := e.(*ast.SelectorExpr); ok; sel, ok = sel.X.(*ast.SelectorExpr) {
				named[sel.Sel.Name] = append(named[sel.Sel.Name], dir)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				typ := f.Name.Name + "." + n.Name.Name
				if st, ok := n.Type.(*ast.StructType); ok && optionType.MatchString(n.Name.Name) {
					declDir[typ] = dir
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							if id.IsExported() {
								fields[typ] = append(fields[typ], id.Name)
							}
						}
					}
				} else if q := qualified(n.Type); q != "" && n.Assign.IsValid() {
					alias[typ] = q
				}
			case *ast.CompositeLit:
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							keyed[qualified(n.Type)+"."+id.Name] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					name(lhs)
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					name(n.X)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for a, typ := range alias {
		for _, f := range fields[typ] {
			keyed[typ+"."+f] = keyed[typ+"."+f] || keyed[a+"."+f]
		}
	}
	used := map[string]bool{}
	for typ, fs := range fields {
	field:
		for _, f := range fs {
			if keyed[typ+"."+f] {
				continue
			}
			for _, dir := range named[f] {
				if dir != declDir[typ] {
					continue field
				}
			}
			if optionAllow[typ] == "" && optionAllow[typ+"."+f] == "" {
				t.Errorf("%s.%s: no non-test caller outside %s sets it — make it a constant beside its use, or allowlist it with a reason", typ, f, declDir[typ])
			}
			used[typ], used[typ+"."+f] = true, true
		}
	}
	for entry := range optionAllow {
		if !used[entry] {
			t.Errorf("optionAllow[%q] excuses nothing: every field it names has a caller", entry)
		}
	}
}
