package crossmodal_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"crossmodal"
	"crossmodal/internal/fusion"
	"crossmodal/internal/trace"
)

// The behaviour contract. testdata/contract.json maps every output the
// system promises to reproduce bit for bit to its sha256, and keeps the
// golden run's headline numbers readable. TestContract recomputes every
// entry; a change that moves behaviour on purpose rewrites the file with
//
//	go test -run TestContract -update .
//
// and its diff is the record of what moved.

var update = flag.Bool("update", false, "rewrite testdata/contract.json from the current outputs")

const contractPath = "testdata/contract.json"

// contract is the file. Lines holds, for text outputs only, a short digest
// per line, so a mismatch can name the first line that moved.
type contract struct {
	Headline headline          `json:"headline"`
	SHA256   map[string]string `json:"sha256"`
	Lines    map[string]string `json:"lines"`
}

// headline is the golden run's summary in readable form. Floats are exact:
// the pipeline is deterministic by construction.
type headline struct {
	Task        string  `json:"task"`
	LFCount     int     `json:"lf_count"`
	PropIters   int     `json:"prop_iters"`
	WSPrecision float64 `json:"ws_precision"`
	WSRecall    float64 `json:"ws_recall"`
	WSF1        float64 `json:"ws_f1"`
	WSCoverage  float64 `json:"ws_coverage"`
	AUPRC       float64 `json:"auprc"`
}

// output is one produced entry: its bytes and the command that reproduces it.
type output struct {
	cmd  string
	data []byte
	text bool
}

// outputs collects entries by name. Several producers may share a name;
// they must agree byte for byte.
type outputs map[string]output

func (o outputs) add(t *testing.T, name string, out output) {
	t.Helper()
	prev, ok := o[name]
	if !ok {
		o[name] = out
		return
	}
	if !bytes.Equal(prev.data, out.data) {
		t.Errorf("%s: `%s` and `%s` disagree%s", name, prev.cmd, out.cmd,
			firstMovedLine(lineDigests(prev.data), out))
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// lineDigests returns the first 8 hex digits of each line's sha256.
func lineDigests(b []byte) []string {
	var ds []string
	for _, line := range bytes.SplitAfter(b, []byte("\n")) {
		if len(line) > 0 {
			ds = append(ds, digest(line)[:8])
		}
	}
	return ds
}

// firstMovedLine names the first line of a text output whose digest is not
// the one at the same position in want.
func firstMovedLine(want []string, got output) string {
	if !got.text {
		return ""
	}
	lines, ds := bytes.SplitAfter(got.data, []byte("\n")), lineDigests(got.data)
	for i, d := range ds {
		if i >= len(want) || d != want[i] {
			return fmt.Sprintf("; first moved line %d: %q", i+1, lines[i])
		}
	}
	return fmt.Sprintf("; output ends at line %d of %d", len(ds), len(want))
}

// compareContract lists every way got breaks want.
func compareContract(want contract, got outputs) []string {
	var problems []string
	for name, sum := range want.SHA256 {
		if _, ok := got[name]; !ok {
			problems = append(problems, fmt.Sprintf("%s: in %s but no longer produced", name, contractPath))
		} else if d := digest(got[name].data); d != sum {
			problems = append(problems, fmt.Sprintf("%s: sha256 %s, contract %s; reproduce with `%s`%s",
				name, d, sum, got[name].cmd, firstMovedLine(strings.Fields(want.Lines[name]), got[name])))
		}
	}
	for name := range got {
		if _, ok := want.SHA256[name]; !ok {
			problems = append(problems, fmt.Sprintf("%s: produced but missing from %s", name, contractPath))
		}
	}
	slices.Sort(problems)
	return problems
}

// contractOf is the file -update writes for got.
func contractOf(h headline, got outputs) contract {
	c := contract{Headline: h, SHA256: map[string]string{}, Lines: map[string]string{}}
	for name, out := range got {
		c.SHA256[name] = digest(out.data)
		if out.text {
			c.Lines[name] = strings.Join(lineDigests(out.data), " ")
		}
	}
	return c
}

// TestCompareContract drives the compare step on hand-made outputs.
func TestCompareContract(t *testing.T) {
	table := output{"go run ./cmd/x -o out", []byte("a\nb\nc\n"), true}
	model := output{"go run ./cmd/y", []byte{1, 2, 3}, false}
	want := contractOf(headline{}, outputs{"table": table, "model": model})
	for _, tc := range []struct {
		name string
		got  outputs
		want []string // substrings of the one problem reported; none for no problem
	}{
		{"unchanged", outputs{"table": table, "model": model}, nil},
		{"moved line", outputs{"table": {table.cmd, []byte("a\nB\nc\n"), true}, "model": model},
			[]string{"table: sha256 ", table.cmd, `first moved line 2: "B\n"`}},
		{"truncated text", outputs{"table": {table.cmd, []byte("a\nb\n"), true}, "model": model},
			[]string{"table: sha256 ", "output ends at line 2 of 3"}},
		{"binary", outputs{"table": table, "model": {model.cmd, []byte{1, 2, 4}, false}},
			[]string{"model: sha256 ", "reproduce with `go run ./cmd/y`"}},
		{"no longer produced", outputs{"table": table},
			[]string{"model: in " + contractPath + " but no longer produced"}},
		{"not in the file", outputs{"table": table, "model": model, "new": table},
			[]string{"new: produced but missing from " + contractPath}},
	} {
		problems := compareContract(want, tc.got)
		if len(problems) != min(len(tc.want), 1) {
			t.Errorf("%s: got problems %q", tc.name, problems)
			continue
		}
		for _, sub := range tc.want {
			if !strings.Contains(problems[0], sub) {
				t.Errorf("%s: %q does not contain %q", tc.name, problems[0], sub)
			}
		}
	}
}

// TestContract recomputes every entry of testdata/contract.json: the golden
// pipeline run in memory, streamed at two chunk sizes and traced (one
// digest), the streamed runs' segment files, one artifact per fusion
// architecture, and the outputs of the four command-line programs at pinned
// flags.
func TestContract(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	got := outputs{}
	for _, v := range []variant{{}, {chunk: 256}, {chunk: 513}, {traced: true}} {
		for name, out := range goldenRun(t, v).got {
			got.add(t, name, out)
		}
	}
	g := goldenRun(t, variant{})
	for _, kind := range []crossmodal.FusionKind{crossmodal.EarlyFusion, crossmodal.IntermediateFusion, crossmodal.DeViSE} {
		spec := g.pipe.DefaultTrainSpec()
		spec.Fusion = kind
		p, err := g.pipe.Train(context.Background(), g.cur, spec)
		fatalIf(t, err)
		var buf bytes.Buffer
		fatalIf(t, fusion.SaveLineage(&buf, p, nil))
		got.add(t, "train/"+fusion.Kind(p), output{goldenCmd, buf.Bytes(), false})
	}
	runPrograms(t, got)

	if *update {
		raw, err := json.MarshalIndent(contractOf(g.h, got), "", "  ")
		fatalIf(t, err)
		fatalIf(t, os.WriteFile(contractPath, append(raw, '\n'), 0o644))
		return
	}
	want := readContract(t)
	if g.h != want.Headline {
		t.Errorf("headline moved:\n got %+v\nwant %+v", g.h, want.Headline)
	}
	for _, p := range compareContract(want, got) {
		t.Error(p)
	}
}

// The golden tests below each check one producer of the pipeline entry, so
// a failure names the path that moved. They share TestContract's runs and
// follow it in the file, so `go test -update .` rewrites the contract
// before they read it.

// TestGoldenPipeline checks the in-memory golden run against its contract
// entry and the headline.
func TestGoldenPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	g := goldenRun(t, variant{})
	if want := readContract(t).Headline; g.h != want {
		t.Errorf("headline moved:\n got %+v\nwant %+v", g.h, want)
	}
	checkEntries(t, g.got)
}

// TestGoldenPipelineStreamed checks the disk-backed path at two chunk sizes,
// one that does not divide the corpus sizes: disk round trips, chunked
// scale fitting, streamed mining and incremental graph deltas are all exact,
// so the run must hash like the in-memory one, and its segment files must
// match theirs.
func TestGoldenPipelineStreamed(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	for _, chunk := range []int{256, 513} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			checkEntries(t, goldenRun(t, variant{chunk: chunk}).got)
		})
	}
}

// readContract loads testdata/contract.json.
func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile(contractPath)
	if err != nil {
		t.Fatalf("read contract (regenerate with -update): %v", err)
	}
	var c contract
	fatalIf(t, json.Unmarshal(raw, &c))
	return c
}

// checkEntries compares the entries of a partial run with theirs in the
// contract; entries it does not produce are TestContract's to check.
func checkEntries(t *testing.T, got outputs) {
	t.Helper()
	want := readContract(t)
	own := contract{SHA256: map[string]string{}, Lines: want.Lines}
	for name := range got {
		if sum, ok := want.SHA256[name]; ok {
			own.SHA256[name] = sum
		}
	}
	for _, p := range compareContract(own, got) {
		t.Error(p)
	}
}

const goldenCmd = "go test -run TestContract -v ."

// fatalIf stops the test on a setup error.
func fatalIf(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// variant names one golden run: chunk 0 curates in memory, otherwise on
// the disk-backed path at that chunk size; traced runs under a tracer.
type variant struct {
	chunk  int
	traced bool
}

// golden is one finished golden run: its entries, and what TestContract
// trains from and TestGoldenPipelineTraced inspects.
type golden struct {
	got  outputs
	pipe *crossmodal.Pipeline
	cur  *crossmodal.Curation
	h    headline
	tr   *trace.Tracer // nil unless traced
}

// goldenRuns memoizes goldenRun: each variant runs once per test process
// however many tests check it.
var goldenRuns = map[variant]*golden{}

// goldenRun runs the golden pipeline on first use — CT1 at seed 41,
// parallelism pinned so no digest depends on GOMAXPROCS — and records its
// entry: the curation report, probabilistic labels, coverage, test AUPRC
// and the first 8 test scores. A streamed run's front half is the
// disk-backed path (points generated, featurized and spilled to a sharded
// store, LFs mined over it, the graph grown by incremental deltas), and the
// store's segment files are an entry too.
func goldenRun(t *testing.T, v variant) *golden {
	t.Helper()
	if g := goldenRuns[v]; g != nil {
		return g
	}
	g := &golden{got: outputs{}}
	how := "in memory"
	if v.traced {
		if trace.Enabled() {
			t.Fatal("tracer already installed; tests must not leak the process default")
		}
		how, g.tr = "traced", trace.New()
		trace.SetDefault(g.tr)
		defer trace.SetDefault(nil)
	}
	ctx := context.Background()
	world := crossmodal.MustWorld(crossmodal.DefaultWorldConfig())
	task, err := crossmodal.TaskByName("CT1")
	fatalIf(t, err)
	lib, err := crossmodal.StandardLibrary(world)
	fatalIf(t, err)
	opts := crossmodal.DefaultOptions()
	opts.Seed, opts.Workers = 41, 2
	opts.MaxGraphSeeds, opts.GraphDevNodes = 600, 200
	g.pipe, err = crossmodal.NewPipeline(lib, opts)
	fatalIf(t, err)
	dsCfg := crossmodal.DatasetConfig{Seed: 41, NumText: 2000, NumUnlabeledImage: 800, NumHandLabelPool: 200, NumTest: 600}

	if v.chunk == 0 {
		ds, err := crossmodal.BuildDataset(world, task, dsCfg)
		fatalIf(t, err)
		g.cur, err = g.pipe.Curate(ctx, ds)
		fatalIf(t, err)
	} else {
		how = fmt.Sprintf("streamed, chunk %d", v.chunk)
		dir := t.TempDir()
		sc, err := g.pipe.CurateStreamed(ctx, world, task, dsCfg, crossmodal.StreamOptions{Dir: dir, ChunkSize: v.chunk})
		fatalIf(t, err)
		defer sc.Close()
		g.cur, err = sc.Materialize(ctx)
		fatalIf(t, err)
		g.got.add(t, fmt.Sprintf("pipeline/segments/chunk=%d", v.chunk), output{goldenCmd, storeListing(t, dir), true})
	}
	predictor, err := g.pipe.Train(ctx, g.cur, g.pipe.DefaultTrainSpec())
	fatalIf(t, err)
	test := g.cur.Dataset.TestImage
	auprc, err := g.pipe.EvaluateAUPRC(ctx, predictor, test)
	fatalIf(t, err)
	vecs, err := g.pipe.Featurize(ctx, test[:8])
	fatalIf(t, err)
	rep := g.cur.Report
	raw, err := json.Marshal(struct {
		Report     any
		ProbLabels []float64
		Covered    []bool
		AUPRC      float64
		Scores     []float64
	}{rep, g.cur.ProbLabels, g.cur.Covered, auprc, predictor.PredictBatch(vecs)})
	fatalIf(t, err)
	g.got.add(t, "pipeline", output{goldenCmd + " (" + how + ")", raw, false})
	g.h = headline{rep.Task, rep.LFCount, rep.PropIters, rep.WSPrecision, rep.WSRecall, rep.WSF1, rep.WSCoverage, auprc}
	goldenRuns[v] = g
	return g
}

// storeListing is `sha256sum` over every file under dir, in path order.
func storeListing(t *testing.T, dir string) []byte {
	t.Helper()
	var b bytes.Buffer
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		fmt.Fprintf(&b, "%s  %s\n", digest(raw), filepath.ToSlash(rel))
		return err
	})
	fatalIf(t, err)
	return b.Bytes()
}

// programRuns are the command-line entries: each runs a real binary, with
// any leading NAME=value words in its environment, and hashes the file it
// writes to OUT. Runs that share a name must agree, so each entry is pinned
// to, or checked across, the worker counts its program can see; none
// depends on the host's CPU count. The serve runs keep the default -workers
// 0: an artifact records that value, so they vary GOMAXPROCS instead.
var programRuns = []struct {
	name string
	text bool
	args string
}{
	{"datagen/text", true, "datagen -task CT1 -n 20 -seed 5 -chunk 7 -corpus text -o OUT"},
	{"datagen/image", true, "datagen -task CT1 -n 20 -seed 5 -chunk 7 -corpus image -o OUT"},
	{"datagen/test", true, "datagen -task CT1 -n 20 -seed 5 -chunk 7 -corpus test -o OUT"},
	{"serve/early", false, "GOMAXPROCS=1 serve -train OUT -train-only -scale 0.05 -fusion early"},
	{"serve/early", false, "GOMAXPROCS=2 serve -train OUT -train-only -scale 0.05 -fusion early"},
	{"serve/intermediate", false, "GOMAXPROCS=1 serve -train OUT -train-only -scale 0.05 -fusion intermediate"},
	{"serve/intermediate", false, "GOMAXPROCS=2 serve -train OUT -train-only -scale 0.05 -fusion intermediate"},
	{"serve/devise", false, "GOMAXPROCS=1 serve -train OUT -train-only -scale 0.05 -fusion devise"},
	{"serve/devise", false, "GOMAXPROCS=2 serve -train OUT -train-only -scale 0.05 -fusion devise"},
	{"lifecycle", true, "lifecycle -workers 1 -out OUT"},
	{"lifecycle", true, "lifecycle -workers 2 -out OUT"},
	{"lifecycle/no-drift", true, "lifecycle -simulate-drift=false -out OUT"},
	{"experiments", true, "experiments -run all -scale 0.05 -seed 17 -workers 1 -o OUT"},
	{"experiments", true, "experiments -run all -scale 0.05 -seed 17 -workers 2 -o OUT"},
}

// programs are the packages runPrograms builds.
var programs = []string{"./cmd/datagen", "./cmd/serve", "./cmd/lifecycle", "./cmd/experiments"}

// runPrograms builds the four binaries once and adds each programRuns entry.
func runPrograms(t *testing.T, got outputs) {
	t.Helper()
	// go test caches a pass keyed on the test binary and the files the test
	// itself opens, and this binary does not import the programs' packages:
	// open every source file they are built from, so an edit to any of them
	// reruns the test.
	srcs, err := exec.Command("go", append([]string{"list", "-deps", "-f",
		`{{if not .Standard}}{{range .GoFiles}}{{$.Dir}}/{{.}}{{"\n"}}{{end}}{{end}}`}, programs...)...).Output()
	fatalIf(t, err)
	for _, src := range append(strings.Split(strings.TrimSpace(string(srcs)), "\n"), "go.mod") {
		_, err := os.ReadFile(src)
		fatalIf(t, err)
	}
	bin := t.TempDir()
	build := exec.Command("go", append([]string{"build", "-o", bin}, programs...)...)
	if msg, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, msg)
	}
	for i, r := range programRuns {
		out := filepath.Join(bin, fmt.Sprint("out", i))
		args, env := strings.Fields(strings.Replace(r.args, "OUT", out, 1)), os.Environ()
		for strings.Contains(args[0], "=") {
			env, args = append(env, args[0]), args[1:]
		}
		cmd := exec.Command(filepath.Join(bin, args[0]), args[1:]...)
		cmd.Env = env
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%s: %v\n%s", r.args, err, msg)
		}
		data, err := os.ReadFile(out)
		fatalIf(t, err)
		repro := strings.Replace(strings.Replace(r.args, "OUT", "out", 1), args[0]+" ", "go run ./cmd/"+args[0]+" ", 1)
		got.add(t, r.name, output{repro, data, r.text})
	}
}
