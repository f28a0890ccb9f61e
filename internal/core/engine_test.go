package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"testing"

	"crossmodal/internal/feature"
	"crossmodal/internal/featurestore/disk"
	"crossmodal/internal/lf"
	"crossmodal/internal/synth"
	"crossmodal/internal/trace"
)

// streamDataset is the streaming fixture's corpus built in memory.
func streamDataset(t *testing.T) *synth.Dataset {
	t.Helper()
	_, w, task := streamEnv(t)
	ds, err := synth.BuildDataset(w, task, streamDSConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// viewRows copies rows [0, c.Rows()) of a column view into vectors of
// target, value by value, so views compare as vectors.
func viewRows(t *testing.T, target *feature.Schema, c feature.Columns) []*feature.Vector {
	t.Helper()
	out := make([]*feature.Vector, c.Rows())
	for r := range out {
		v := feature.NewVector(target)
		for col := 0; col < target.Len(); col++ {
			if !c.Present(col, r) {
				continue
			}
			var err error
			switch target.Def(col).Kind {
			case feature.Numeric:
				v.SetNum(col, c.Num(col, r))
			case feature.Categorical:
				err = v.SetCategoryIDs(col, c.CatIDs(col, r, nil))
			case feature.Embedding:
				err = v.SetVec(col, c.Emb(col, r, nil))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		out[r] = v
	}
	return out
}

// scanAll concatenates one full ScanColumns pass, read back as vectors.
func scanAll(t *testing.T, c corpus, target *feature.Schema) ([]*feature.Vector, []int8) {
	t.Helper()
	var vecs []*feature.Vector
	var labels []int8
	wantSeq := 0
	err := c.ScanColumns(context.Background(), target, func(seq int, ls []int8, parts []feature.Columns) error {
		if seq != wantSeq {
			t.Fatalf("chunk sequence %d, want %d", seq, wantSeq)
		}
		wantSeq++
		rows := 0
		for _, part := range parts {
			if part.Ord(0) != rows {
				t.Fatalf("chunk %d: a view starts at ordinal %d, want %d", seq, part.Ord(0), rows)
			}
			vecs = append(vecs, viewRows(t, target, part)...)
			rows += part.Rows()
		}
		if len(ls) != rows {
			t.Fatalf("chunk %d: %d labels for %d rows", seq, len(ls), rows)
		}
		labels = append(labels, ls...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return vecs, labels
}

// sameVectorBits asserts two vectors are equal in every observable respect,
// float payloads compared by bits.
func sameVectorBits(t *testing.T, where string, want, got *feature.Vector) {
	t.Helper()
	if !want.Equal(got) {
		t.Fatalf("%s: got %v, want %v", where, got, want)
	}
}

// TestMemCorpusMatchesDiskStore is the store-equivalence half of the
// memory-vs-disk contract: the same rows behind a memCorpus and behind a
// 3-chunk disk.Store answer every corpus method identically, so the one
// stage sequence cannot tell the backings apart.
func TestMemCorpusMatchesDiskStore(t *testing.T) {
	ctx := context.Background()
	p := newStreamPipeline(t, streamOptions())
	pts := streamDataset(t).LabeledText[:300]
	vecs, err := p.Featurize(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	labels := synth.Labels(pts)

	store, err := disk.Open(t.TempDir(), p.lib.Schema(), disk.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for lo := 0; lo < len(vecs); lo += 100 {
		ids := make([]int, 100)
		for i := range ids {
			ids[i] = lo + i
		}
		if err := store.AppendChunk(ctx, ids, labels[lo:lo+100], vecs[lo:lo+100]); err != nil {
			t.Fatal(err)
		}
	}
	mem := &memCorpus{vecs: vecs, labels: labels}
	if mem.Rows() != store.Rows() {
		t.Fatalf("rows: %d in memory, %d on disk", mem.Rows(), store.Rows())
	}

	lfSchema := p.lfSchema()
	targets := map[string]*feature.Schema{
		"lf":    lfSchema,
		"graph": p.graphSchema(),
		"lacking": feature.MustSchema(
			lfSchema.Def(0),
			feature.Def{Name: "absent", Kind: feature.Categorical, Set: "Z"},
			lfSchema.Def(lfSchema.Len()-1),
		),
	}
	for name, target := range targets {
		memVecs, memLabels := scanAll(t, mem, target)
		diskVecs, diskLabels := scanAll(t, store, target)
		if len(memVecs) != len(vecs) || len(diskVecs) != len(vecs) {
			t.Fatalf("%s: scanned %d / %d rows, want %d", name, len(memVecs), len(diskVecs), len(vecs))
		}
		for i := range memVecs {
			sameVectorBits(t, fmt.Sprintf("%s row %d", name, i), diskVecs[i], memVecs[i])
		}
		if !reflect.DeepEqual(memLabels, diskLabels) || !reflect.DeepEqual(memLabels, labels) {
			t.Fatalf("%s: label columns differ", name)
		}
	}

	// Graph windows: exactly the first n rows of either backing — capped
	// inside the memory corpus's one view and at or inside a store chunk —
	// and no chunk past the window's last.
	graph := targets["graph"]
	all, _ := scanAll(t, mem, graph)
	for _, n := range []int{1, 99, 100, 101, 300} {
		for name, c := range map[string]corpus{"memory": mem, "disk": store} {
			r := &curateRun{image: c, graphSchema: graph, window: n}
			var got []*feature.Vector
			var stages []string
			r.chunkHook = func(stage string, chunk int) error {
				stages = append(stages, fmt.Sprintf("%s[%d]", stage, chunk))
				return nil
			}
			if err := r.scanWindow(ctx, "graph", func(parts []feature.Columns) error {
				for _, part := range parts {
					got = append(got, viewRows(t, graph, part)...)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != n {
				t.Fatalf("%s window %d: scanned %d rows", name, n, len(got))
			}
			for i, v := range got {
				sameVectorBits(t, fmt.Sprintf("%s window %d row %d", name, n, i), all[i], v)
			}
			chunks := 1
			if name == "disk" {
				chunks = (n + 99) / 100
			}
			if len(stages) != chunks {
				t.Fatalf("%s window %d: read chunks %v, want the first %d", name, n, stages, chunks)
			}
		}
	}

	ids := []int{0, 150, 299, 300, -1, 7}
	memFound, err := mem.Find(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	diskFound, err := store.Find(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(memFound) != 4 || len(diskFound) != 4 {
		t.Fatalf("Find returned %d / %d rows, want the 4 present IDs", len(memFound), len(diskFound))
	}
	for id, want := range diskFound {
		got, ok := memFound[id]
		if !ok {
			t.Fatalf("Find: ID %d on disk but not in memory", id)
		}
		sameVectorBits(t, fmt.Sprintf("Find %d", id), want, got)
	}
}

// TestMemCorpusScansOneChunk: memCorpus hands every row to each scan as one
// chunk, seq 0 (TestMemCorpusMatchesDiskStore checks the rows); an empty
// corpus yields no chunk, and a cancelled context stops a scan before it
// starts.
func TestMemCorpusScansOneChunk(t *testing.T) {
	p := newStreamPipeline(t, streamOptions())
	vecs, err := p.Featurize(context.Background(), streamDataset(t).LabeledText[:100])
	if err != nil {
		t.Fatal(err)
	}
	target := p.lfSchema()
	c := &memCorpus{vecs: vecs, labels: make([]int8, len(vecs))}
	for name, ctx := range map[string]context.Context{"live": context.Background(), "canceled": canceledCtx()} {
		for _, corpus := range []*memCorpus{c, {}} {
			var chunks []string
			colErr := corpus.ScanColumns(ctx, target, func(seq int, ls []int8, _ []feature.Columns) error {
				chunks = append(chunks, fmt.Sprintf("columns %d:%d", seq, len(ls)))
				return nil
			})
			var want []string
			if name == "live" && corpus.Rows() > 0 {
				want = []string{"columns 0:100"}
			}
			if !reflect.DeepEqual(chunks, want) || (colErr == nil) != (name == "live") {
				t.Errorf("%s scans of %d rows: chunks %v, error %v; want chunks %v", name, corpus.Rows(), chunks, colErr, want)
			}
		}
	}
}

func canceledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// labelDigest is the FNV-64a digest of a curation's probabilistic labels
// (float bits) and coverage flags, row by row.
func labelDigest(probs []float64, covered []bool) string {
	h := fnv.New64a()
	var row [9]byte
	for i, pr := range probs {
		binary.LittleEndian.PutUint64(row[:8], math.Float64bits(pr))
		row[8] = 0
		if covered[i] {
			row[8] = 1
		}
		h.Write(row[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestCurateExpertLFsThroughEngine: the simulated-expert LF source runs
// through the shared stage sequence by gathering the LF-schema scan; its
// probabilistic labels must equal, bit for bit, what the pre-merge
// Pipeline.Curate produced (digest computed at commit b47f09a).
func TestCurateExpertLFsThroughEngine(t *testing.T) {
	opts := streamOptions()
	opts.LFSource = ExpertLFs
	cur, err := newStreamPipeline(t, opts).Curate(context.Background(), streamDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	const want = "be95cd9cee446c11"
	if got := labelDigest(cur.ProbLabels, cur.Covered); len(cur.ProbLabels) != 400 || got != want {
		t.Fatalf("expert-LF curation drifted: %d labels, digest %s, want 400 labels, digest %s", len(cur.ProbLabels), got, want)
	}
	if cur.Report.LFCount != 26 {
		t.Errorf("expert-LF run kept %d LFs, want 26", cur.Report.LFCount)
	}
	if want := min(lf.DefaultExpert().SampleSize, len(cur.TextVecs)); cur.Report.LFExamined != want {
		t.Errorf("expert examined %d points, want its sample of %d", cur.Report.LFExamined, want)
	}
}

// TestCurateRejectsEmptyCorpus: a hand-built dataset with an empty labeled
// or unlabeled corpus is an error, not a panic deep inside propagation.
func TestCurateRejectsEmptyCorpus(t *testing.T) {
	p := newStreamPipeline(t, streamOptions())
	ds := streamDataset(t)
	for name, mutate := range map[string]func(*synth.Dataset){
		"no unlabeled images": func(d *synth.Dataset) { d.UnlabeledImage = nil },
		"no labeled text":     func(d *synth.Dataset) { d.LabeledText = nil },
	} {
		empty := *ds
		mutate(&empty)
		_, err := p.Curate(context.Background(), &empty)
		if err == nil || !strings.HasPrefix(err.Error(), "core:") || !strings.Contains(err.Error(), "non-empty") {
			t.Errorf("%s: got %v, want a core: non-empty-corpus error", name, err)
		}
	}
}

// TestFitGraphWeightsFallbackIsRecorded: seeds with fewer than two positives
// cannot fit edge weights; the graph falls back to uniform weights (nil) and
// the labelprop span says so, where a fit that ran says graph_weights_fitted=1.
func TestFitGraphWeightsFallbackIsRecorded(t *testing.T) {
	schema := feature.MustSchema(
		feature.Def{Name: "c", Kind: feature.Categorical},
		feature.Def{Name: "x", Kind: feature.Numeric},
	)
	nodes := make([]*feature.Vector, 8)
	for i := range nodes {
		v := feature.NewVector(schema)
		v.MustSet("c", feature.CategoricalValue(fmt.Sprintf("c%d", i%2)))
		v.MustSet("x", feature.NumericValue(float64(i%2)))
		nodes[i] = v
	}
	for _, tc := range []struct {
		labels []int8
		fitted bool
	}{
		{[]int8{-1, 1, -1, -1, -1, -1, -1, -1}, false},
		{[]int8{-1, 1, -1, 1, -1, 1, -1, 1}, true},
	} {
		tr := trace.New()
		trace.SetDefault(tr)
		ctx, span := trace.Start(context.Background(), "labelprop")
		weights := fitGraphWeights(ctx, nodes, tc.labels, feature.Scales{"x": 1}, 7)
		span.End()
		trace.SetDefault(nil)
		var summary strings.Builder
		if err := tr.WriteSummary(&summary); err != nil {
			t.Fatal(err)
		}
		want := "graph_weights_fitted=0"
		if tc.fitted {
			want = "graph_weights_fitted=1"
		}
		if (weights != nil) != tc.fitted || !strings.Contains(summary.String(), want) {
			t.Errorf("labels %v: weights %v, span summary lacks %q:\n%s", tc.labels, weights, want, summary.String())
		}
	}
}

// TestCurateAllocsPerImageRow: curating an image row allocates well under one
// object beyond what featurizing it does — the stages read the corpus as
// column views over the featurized vectors, and the graph builder copies each
// window row into its arena and its block keys into one reused buffer, never
// into a reprojected vector or a key list of the row's own. Two corpora
// differing only in their image rows price one row.
func TestCurateAllocsPerImageRow(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates where a plain build does not")
	}
	_, w, task := streamEnv(t)
	p := newStreamPipeline(t, streamOptions())
	ctx := context.Background()
	perRun := func(images int) (curate, featurize float64) {
		cfg := streamDSConfig()
		cfg.NumUnlabeledImage = images
		ds, err := synth.BuildDataset(w, task, cfg)
		if err != nil {
			t.Fatal(err)
		}
		curate = testing.AllocsPerRun(2, func() {
			if _, err := p.Curate(ctx, ds); err != nil {
				t.Fatal(err)
			}
		})
		featurize = testing.AllocsPerRun(2, func() {
			if _, err := p.Featurize(ctx, ds.UnlabeledImage); err != nil {
				t.Fatal(err)
			}
		})
		return curate, featurize
	}
	const small, large = 400, 2000
	c0, f0 := perRun(small)
	c1, f1 := perRun(large)
	perRow := ((c1 - c0) - (f1 - f0)) / (large - small)
	t.Logf("curate: %.0f / %.0f objects, featurize: %.0f / %.0f at %d / %d image rows: %.2f a row beyond featurizing",
		c0, c1, f0, f1, small, large, perRow)
	if perRow >= 1 {
		t.Errorf("Curate allocates %.2f objects per image row beyond featurizing it, want < 1", perRow)
	}
}
