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

// scanAll concatenates one full ScanFirst pass.
func scanAll(t *testing.T, c corpus, target *feature.Schema) ([]*feature.Vector, []int8) {
	t.Helper()
	var vecs []*feature.Vector
	var labels []int8
	wantSeq := 0
	err := c.ScanFirst(context.Background(), target, c.Rows(), nil, func(seq int, _ []int, ls []int8, vs []*feature.Vector) error {
		if seq != wantSeq {
			t.Fatalf("chunk sequence %d, want %d", seq, wantSeq)
		}
		wantSeq++
		if len(ls) != len(vs) {
			t.Fatalf("chunk %d: %d labels for %d vectors", seq, len(ls), len(vs))
		}
		vecs = append(vecs, vs...)
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

	// Graph windows: the first n rows of either backing, the store's decoded
	// into one buffer every window scan refills.
	graph := targets["graph"]
	all, _ := scanAll(t, mem, graph)
	var buf []feature.Vector
	for _, n := range []int{1, 99, 100, 101, 300, 301} {
		for name, c := range map[string]corpus{"memory": mem, "disk": store} {
			got := 0
			if err := c.ScanFirst(ctx, graph, n, &buf, func(_ int, _ []int, ls []int8, vs []*feature.Vector) error {
				for i, v := range vs {
					sameVectorBits(t, fmt.Sprintf("%s window %d row %d", name, n, got), all[got], v)
					if ls[i] != labels[got] {
						t.Fatalf("%s window %d row %d: label %d, want %d", name, n, got, ls[i], labels[got])
					}
					got++
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if got != min(n, len(vecs)) {
				t.Fatalf("%s window %d: scanned %d rows", name, n, got)
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

// TestMemCorpusProjectsOncePerSchema: re-scanning one schema must hand back
// the same vectors, not fresh projections — the stage sequence scans the
// image corpus in the graph schema three times, and projecting per scan costs
// +18% allocation on the curate_mem workload.
func TestMemCorpusProjectsOncePerSchema(t *testing.T) {
	p := newStreamPipeline(t, streamOptions())
	vecs, err := p.Featurize(context.Background(), streamDataset(t).LabeledText[:50])
	if err != nil {
		t.Fatal(err)
	}
	mem := &memCorpus{vecs: vecs, labels: make([]int8, len(vecs)), chunk: 16}
	lfSchema, graphSchema := p.lfSchema(), p.graphSchema()
	first, _ := scanAll(t, mem, lfSchema)
	other, _ := scanAll(t, mem, graphSchema)
	again, _ := scanAll(t, mem, lfSchema)
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("row %d re-projected on the second scan of one schema", i)
		}
		if first[i] == other[i] {
			t.Fatalf("row %d shared between two target schemas", i)
		}
	}
}

// memCorpus must deliver every row exactly once, in order, for any chunk
// size — including sizes that do not divide the corpus length — and stop on
// a cancelled context.
func TestChunkedCorpusScan(t *testing.T) {
	p := newStreamPipeline(t, streamOptions())
	vecs, err := p.Featurize(context.Background(), streamDataset(t).LabeledText[:100])
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]int8, len(vecs))
	for i := range labels {
		labels[i] = int8(i % 3)
	}
	target := p.lfSchema()
	want, _ := scanAll(t, &memCorpus{vecs: vecs, labels: labels}, target)
	for _, chunk := range []int{1, 7, 100, 1000, 0} {
		gotVecs, gotLabels := scanAll(t, &memCorpus{vecs: vecs, labels: labels, chunk: chunk}, target)
		if len(gotVecs) != len(vecs) || len(gotLabels) != len(labels) {
			t.Fatalf("chunk %d: scanned %d vecs / %d labels, want %d", chunk, len(gotVecs), len(gotLabels), len(vecs))
		}
		for i := range labels {
			if gotLabels[i] != labels[i] {
				t.Fatalf("chunk %d: label %d out of order", chunk, i)
			}
			if !gotVecs[i].Equal(want[i]) {
				t.Fatalf("chunk %d: row %d out of order", chunk, i)
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := &memCorpus{vecs: vecs, labels: labels, chunk: 10}
	if err := c.ScanFirst(ctx, target, c.Rows(), nil, func(int, []int, []int8, []*feature.Vector) error { return nil }); err == nil {
		t.Error("canceled scan returned nil error")
	}
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
	h := fnv.New64a()
	var row [9]byte
	for i, pr := range cur.ProbLabels {
		binary.LittleEndian.PutUint64(row[:8], math.Float64bits(pr))
		row[8] = 0
		if cur.Covered[i] {
			row[8] = 1
		}
		h.Write(row[:])
	}
	const want = "be95cd9cee446c11"
	if got := fmt.Sprintf("%016x", h.Sum64()); len(cur.ProbLabels) != 400 || got != want {
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
