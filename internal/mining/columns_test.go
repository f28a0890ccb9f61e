package mining

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"crossmodal/internal/feature"
	"crossmodal/internal/featurestore/disk"
	"crossmodal/internal/lf"
	"crossmodal/internal/mapreduce"
)

// storeScan scans a disk store's columns under schema: the streamed
// pipeline's case.
func storeScan(store *disk.Store, schema *feature.Schema) ColumnScan {
	return func(ctx context.Context, fn func([]int8, []feature.Columns) error) error {
		return store.ScanColumns(ctx, schema, func(_ int, labels []int8, parts []feature.Columns) error {
			return fn(labels, parts)
		})
	}
}

// spill writes the dev set into a fresh store, chunk rows a chunk (<= 0: one).
func spill(tb testing.TB, vecs []*feature.Vector, labels []int8, chunk int) *disk.Store {
	tb.Helper()
	s, err := disk.Open(tb.TempDir(), vecs[0].Schema(), disk.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	if chunk <= 0 {
		chunk = len(vecs)
	}
	for lo := 0; lo < len(vecs); lo += chunk {
		hi := min(lo+chunk, len(vecs))
		ids := make([]int, hi-lo)
		for i := range ids {
			ids[i] = lo + i
		}
		if err := s.AppendChunk(context.Background(), ids, labels[lo:hi], vecs[lo:hi]); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// refCounts is the counting the miner did over vectors before the column
// kernel: every (feature, category) of a row once, keyed "feat|cat", per
// class; and explicit itemsets of one class by string containment.
func refCounts(schema *feature.Schema, vecs []*feature.Vector, labels []int8, class int8, candidates []itemset) (order1 map[string]int, cands map[string]int) {
	order1, cands = make(map[string]int), make(map[string]int)
	for r, v := range vecs {
		if (class > 0) != (labels[r] > 0) {
			continue
		}
		for i := 0; i < schema.Len(); i++ {
			d := schema.Def(i)
			vi, ok := v.Schema().Index(d.Name)
			if d.Kind != feature.Categorical || !ok {
				continue
			}
			cats := slices.Clone(v.CategoryNames(vi))
			sort.Strings(cats)
			for _, c := range slices.Compact(cats) {
				order1[itemset{d.Name, []string{c}}.key()]++
			}
			for _, s := range candidates {
				if s.feat == d.Name && v.Present(vi) && !slices.ContainsFunc(s.cats, func(c string) bool { return !slices.Contains(cats, c) }) {
					cands[s.key()]++
				}
			}
		}
	}
	return order1, cands
}

// edgeDev is synthDev plus the counting edge cases: missing and empty values,
// a category repeated within a row, a rare category most segment
// dictionaries lack, and (in edgeSchema) a feature the rows never carry.
func edgeDev(n int, seed int64) ([]*feature.Vector, []int8) {
	vecs, labels := synthDev(n, seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for _, v := range vecs {
		switch rng.Intn(12) {
		case 0:
			v.MustSet("objects", feature.MissingValue())
		case 1:
			v.MustSet("objects", feature.CategoricalValue())
		case 2:
			v.MustSet("objects", feature.CategoricalValue("a", "c", "a"))
		case 3:
			v.MustSet("reports", feature.MissingValue())
		}
		if rng.Intn(300) == 0 {
			v.MustSet("topic", feature.CategoricalValue("rare", "bad"))
		}
	}
	return vecs, labels
}

var edgeSchema = feature.MustSchema(
	schema.Def(2), schema.Def(1),
	feature.Def{Name: "ghost", Kind: feature.Categorical, Set: "Z"},
	schema.Def(0),
)

// TestColumnCountsMatchMine pins the counting kernel — over the disk store's
// column views at every chunk size, and over the vector
// adapter — to the string-keyed vector counts, and the LFs mined from the
// store to Mine over the same rows in memory.
func TestColumnCountsMatchMine(t *testing.T) {
	ctx := context.Background()
	vecs, labels := edgeDev(3000, 4)
	candidates := []itemset{
		{"objects", []string{"a", "b"}}, {"objects", []string{"a", "c"}}, {"objects", []string{"a", "b", "c"}},
		{"topic", []string{"bad", "rare"}}, {"topic", []string{"bad", "nowhere"}}, {"ghost", []string{"x", "y"}},
	}
	projected := make([]*feature.Vector, len(vecs))
	for i, v := range vecs {
		projected[i] = v.Reproject(edgeSchema)
	}
	cfg := DefaultConfig()
	cfg.MaxOrder = 2
	cfg.PosPrecision = 0.8 // "a" and "b" alone are weak; {a,b} is strong
	wantLFs, wantReport, err := Mine(ctx, mapreduce.Config{Workers: 2}, cfg, projected, labels)
	if err != nil {
		t.Fatal(err)
	}
	if wantReport.NumericLFs == 0 || !slices.ContainsFunc(wantLFs, func(l *lf.LF) bool { return len(l.Terms) == 2 }) {
		t.Fatalf("fixture mined %+v without a numeric and an order-2 LF; test has no teeth", wantReport)
	}

	corpora := map[string]ColumnScan{
		// Full-schema vectors read under the LF schema, and LF-schema vectors.
		"vector adapter":             vectorScan(schemaCorpus{&chunkedCorpus{vecs: vecs, labels: labels, chunk: 700}, edgeSchema}),
		"vector adapter, own schema": vectorScan(&sliceCorpus{vecs: projected, labels: labels}),
	}
	// One view a chunk, then 4 + 2 views, then 6 views with a short tail.
	for _, chunk := range []int{257, 2048, 0} {
		corpora[fmt.Sprintf("store chunk=%d", chunk)] = storeScan(spill(t, vecs, labels, chunk), edgeSchema)
	}
	for name, corpus := range corpora {
		for _, workers := range []int{1, 3} {
			mr := mapreduce.Config{Workers: workers}
			first := &counter{cfg: mr, schema: edgeSchema, order1: true, observe: true, cands: make([][]candidate, edgeSchema.Len())}
			if err := first.scan(ctx, corpus); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for cls, class := range []int8{-1, 1} {
				want1, wantCands := refCounts(edgeSchema, vecs, labels, class, candidates)
				if got := first.order1Keys(cls); !maps.Equal(got, want1) {
					t.Fatalf("%s workers=%d class %d: order-1 counts\n got  %v\n want %v", name, workers, class, got, want1)
				}
				got, err := countItemsetStream(ctx, mr, edgeSchema, corpus, class, candidates)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range candidates {
					if got[s.key()].count != wantCands[s.key()] {
						t.Fatalf("%s workers=%d class %d: itemset %s counted %d, want %d", name, workers, class, s.key(), got[s.key()].count, wantCands[s.key()])
					}
				}
			}
			// Numeric observations arrive in corpus order.
			ri, _ := edgeSchema.Index("reports")
			var wantObs []numObs
			for r, v := range vecs {
				if i, _ := v.Schema().Index("reports"); v.Present(i) {
					wantObs = append(wantObs, numObs{v.Num(i), labels[r]})
				}
			}
			if !slices.Equal(first.observed[ri], wantObs) {
				t.Fatalf("%s workers=%d: numeric observations out of corpus order", name, workers)
			}

			gotLFs, gotReport, err := MineColumns(ctx, mr, cfg, edgeSchema, corpus)
			if err != nil {
				t.Fatal(err)
			}
			if gotReport != wantReport || len(gotLFs) != len(wantLFs) {
				t.Fatalf("%s workers=%d: mined %d LFs %+v, want %d %+v", name, workers, len(gotLFs), gotReport, len(wantLFs), wantReport)
			}
			for i := range wantLFs {
				if gotLFs[i].Name != wantLFs[i].Name {
					t.Fatalf("%s workers=%d: LF %d is %q, want %q", name, workers, i, gotLFs[i].Name, wantLFs[i].Name)
				}
			}
		}
	}
}

// schemaCorpus re-addresses a vector corpus under another schema.
type schemaCorpus struct {
	Corpus
	schema *feature.Schema
}

func (c schemaCorpus) Schema() *feature.Schema { return c.schema }

// BenchmarkCountOrder1 times the first mining scan (order-1 class counts) of
// 32 768 rows: through the vector adapter and straight off a store's columns.
func BenchmarkCountOrder1(b *testing.B) {
	vecs, labels := edgeDev(32768, 9)
	for name, corpus := range map[string]ColumnScan{
		"vector":  vectorScan(&chunkedCorpus{vecs: vecs, labels: labels, chunk: 4096}),
		"columns": storeScan(spill(b, vecs, labels, 4096), schema),
	} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k := &counter{cfg: mapreduce.Config{Workers: 1}, schema: schema, order1: true, cands: make([][]candidate, schema.Len())}
				if err := k.scan(context.Background(), corpus); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vecs)), "ns/row")
		})
	}
}
