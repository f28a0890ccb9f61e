package lf

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"crossmodal/internal/feature"
	"crossmodal/internal/featurestore/disk"
	"crossmodal/internal/mapreduce"
)

// The four closures LFs were before they became data, kept verbatim as the
// reference the column kernels are pinned to: each votes on one row's Vector.

func refCategory(featName, category string, vote int8) func(*feature.Vector) int8 {
	return func(v *feature.Vector) int8 {
		if i, ok := v.Schema().Index(featName); ok && slices.Contains(v.CategoryNames(i), category) {
			return vote
		}
		return Abstain
	}
}

func refConjunction(preds [][2]string, vote int8) func(*feature.Vector) int8 {
	return func(v *feature.Vector) int8 {
		for _, p := range preds {
			if i, ok := v.Schema().Index(p[0]); !ok || !slices.Contains(v.CategoryNames(i), p[1]) {
				return Abstain
			}
		}
		return vote
	}
}

func refThreshold(featName string, cut float64, above bool, vote int8) func(*feature.Vector) int8 {
	return func(v *feature.Vector) int8 {
		if i, ok := v.Schema().Index(featName); ok && v.Present(i) {
			if x := v.Num(i); (above && x >= cut) || (!above && x <= cut) {
				return vote
			}
		}
		return Abstain
	}
}

// refItemset is mining's itemsetLF closure: every category of one feature.
func refItemset(feat string, cats []string, vote int8) func(*feature.Vector) int8 {
	return func(v *feature.Vector) int8 {
		if i, ok := v.Schema().Index(feat); ok {
			for _, c := range cats {
				if !slices.Contains(v.CategoryNames(i), c) {
					return Abstain
				}
			}
			return vote
		}
		return Abstain
	}
}

// itemsetLF is the data form mining builds for an order>=2 itemset.
func itemsetLF(feat string, cats []string, vote int8) *LF {
	l := &LF{Name: fmt.Sprintf("%s⊇%v", feat, cats), Source: "mined", Vote: vote}
	for _, c := range cats {
		l.Terms = append(l.Terms, Term{feat, c})
	}
	return l
}

// The fixture: a store schema with an embedding the LFs never read, and an LF
// schema that drops it, reorders nothing, and adds "ghost", a feature the
// store lacks.
var (
	colStoreSchema = feature.MustSchema(
		feature.Def{Name: "topic", Kind: feature.Categorical, Set: "C", Servable: true},
		feature.Def{Name: "emb", Kind: feature.Embedding, Set: "I", Dim: 3},
		feature.Def{Name: "tags", Kind: feature.Categorical, Set: "C"},
		feature.Def{Name: "reports", Kind: feature.Numeric, Set: "D"},
		feature.Def{Name: "score", Kind: feature.Numeric, Set: "D"},
	)
	colLFSchema = feature.MustSchema(
		colStoreSchema.Def(3), colStoreSchema.Def(0),
		feature.Def{Name: "ghost", Kind: feature.Categorical, Set: "Z"},
		colStoreSchema.Def(2), colStoreSchema.Def(4),
	)
)

// colRows draws n rows covering the kernels' edge cases: missing features,
// present-but-empty sets, a category repeated within a row, a rare category
// most segments' dictionaries lack, numeric values on both sides of the cuts.
func colRows(n int, seed int64) ([]*feature.Vector, []int8) {
	rng := rand.New(rand.NewSource(seed))
	vecs := make([]*feature.Vector, n)
	labels := make([]int8, n)
	for i := range vecs {
		v := feature.NewVector(colStoreSchema)
		if rng.Intn(10) > 0 {
			v.MustSet("topic", feature.CategoricalValue(fmt.Sprintf("t%d", rng.Intn(6))))
		}
		switch rng.Intn(8) {
		case 0: // missing
		case 1:
			v.MustSet("tags", feature.CategoricalValue())
		case 2:
			v.MustSet("tags", feature.CategoricalValue("a", "b", "a"))
		default:
			tags := []string{"a", "b", "c", "d", "e"}[rng.Intn(3):][:1+rng.Intn(3)]
			if rng.Intn(400) == 0 {
				tags = append([]string{"rare"}, tags...)
			}
			v.MustSet("tags", feature.CategoricalValue(tags...))
		}
		if rng.Intn(5) > 0 {
			v.MustSet("reports", feature.NumericValue(float64(rng.Intn(9))))
		}
		if rng.Intn(3) > 0 {
			v.MustSet("score", feature.NumericValue(rng.NormFloat64()))
		}
		v.MustSet("emb", feature.EmbeddingValue([]float64{rng.Float64(), 0, 1}))
		vecs[i], labels[i] = v, int8(2*rng.Intn(2)-1)
	}
	return vecs, labels
}

// colStore spills vecs into a fresh store, chunk rows a chunk (<= 0: one).
func colStore(tb testing.TB, vecs []*feature.Vector, labels []int8, chunk int) *disk.Store {
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

// voteStore runs the vote kernel over every chunk of s.
func voteStore(tb testing.TB, s *disk.Store, plan *Plan, schema *feature.Schema, workers int) ([][]int8, int) {
	tb.Helper()
	votes := make([][]int8, 0, s.Rows())
	total := 0
	err := s.ScanColumns(context.Background(), schema, func(_ int, labels []int8, parts []feature.Columns) error {
		var cast int
		votes, cast = plan.Vote(mapreduce.Config{Workers: workers}, parts, len(labels), votes)
		total += cast
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return votes, total
}

type pinnedLF struct {
	lf  *LF
	ref func(*feature.Vector) int8
}

func pinnedLFs(tb testing.TB) []pinnedLF {
	conj, err := ConjunctionLF([]string{"topic=t1", "tags=b"}, Positive, "m")
	if err != nil {
		tb.Fatal(err)
	}
	ghostConj, err := ConjunctionLF([]string{"topic=t1", "ghost=x"}, Positive, "m")
	if err != nil {
		tb.Fatal(err)
	}
	return []pinnedLF{
		{CategoryLF("topic", "t1", Positive, "m"), refCategory("topic", "t1", Positive)},
		{CategoryLF("tags", "a", Negative, "m"), refCategory("tags", "a", Negative)},
		{CategoryLF("tags", "rare", Positive, "m"), refCategory("tags", "rare", Positive)},
		{CategoryLF("tags", "never-seen", Positive, "m"), refCategory("tags", "never-seen", Positive)},
		{CategoryLF("ghost", "x", Positive, "m"), refCategory("ghost", "x", Positive)},
		{CategoryLF("emb", "x", Positive, "m"), refCategory("emb", "x", Positive)}, // outside the LF schema
		{conj, refConjunction([][2]string{{"topic", "t1"}, {"tags", "b"}}, Positive)},
		{ghostConj, refConjunction([][2]string{{"topic", "t1"}, {"ghost", "x"}}, Positive)},
		{ThresholdLF("reports", 5, true, Positive, "m"), refThreshold("reports", 5, true, Positive)},
		{ThresholdLF("reports", 2, false, Negative, "m"), refThreshold("reports", 2, false, Negative)},
		{ThresholdLF("score", 0.25, true, Negative, "m"), refThreshold("score", 0.25, true, Negative)},
		{ThresholdLF("ghost", 0, true, Positive, "m"), refThreshold("ghost", 0, true, Positive)},
		{itemsetLF("tags", []string{"a", "b"}, Positive), refItemset("tags", []string{"a", "b"}, Positive)},
		{itemsetLF("tags", []string{"b", "c", "d"}, Negative), refItemset("tags", []string{"b", "c", "d"}, Negative)},
	}
}

// TestColumnVotesMatchClosures pins the vote kernel — over the disk store's
// column views at every chunk size, and over the vector
// adapter — to the closures applied to each row's LF-schema vector, the way
// votes were cast before LFs were data.
func TestColumnVotesMatchClosures(t *testing.T) {
	vecs, labels := colRows(3000, 11)
	pinned := pinnedLFs(t)
	lfs := make([]*LF, len(pinned))
	want := make([][]int8, len(vecs))
	wantCast := 0
	for j, p := range pinned {
		lfs[j] = p.lf
	}
	for i, v := range vecs {
		proj := v.Reproject(colLFSchema)
		want[i] = make([]int8, len(pinned))
		for j, p := range pinned {
			if want[i][j] = p.ref(proj); want[i][j] != Abstain {
				wantCast++
			}
			if got := p.lf.Apply(proj); got != want[i][j] {
				t.Fatalf("row %d: %s.Apply = %d, closure votes %d", i, p.lf.Name, got, want[i][j])
			}
		}
	}
	if wantCast == 0 {
		t.Fatal("fixture casts no votes; test has no teeth")
	}
	check := func(where string, got [][]int8, cast int) {
		t.Helper()
		if len(got) != len(want) || cast != wantCast {
			t.Fatalf("%s: %d rows / %d votes cast, want %d / %d", where, len(got), cast, len(want), wantCast)
		}
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("%s: row %d votes %v, closures vote %v (%v)", where, i, got[i], want[i], vecs[i])
			}
			if cap(got[i]) != len(pinned)+1 {
				t.Fatalf("%s: row %d has capacity %d, want room for one appended column", where, i, cap(got[i]))
			}
		}
	}
	plan := Compile(lfs, colLFSchema)
	// One view a chunk, then 4 + 2 views, then 6 views with a short tail.
	for _, chunk := range []int{257, 2048, 0} {
		s := colStore(t, vecs, labels, chunk)
		for _, workers := range []int{1, 3} {
			got, cast := voteStore(t, s, plan, colLFSchema, workers)
			check(fmt.Sprintf("store chunk=%d workers=%d", chunk, workers), got, cast)
		}
	}
	// The adapter reads the full-schema vectors where they are.
	got, cast := plan.Vote(mapreduce.Config{Workers: 2}, feature.VectorColumns(colLFSchema, vecs), len(vecs), nil)
	check("vector adapter", got, cast)

	// lf.Apply reads under the vectors' own schema, where "emb" exists (as an
	// embedding: still an abstain) and "ghost" does not.
	m, err := Apply(context.Background(), mapreduce.Config{Workers: 2}, lfs, vecs)
	if err != nil {
		t.Fatal(err)
	}
	check("lf.Apply", m.Votes, wantCast)
}

// FuzzColumnVotesMatchClosures: random schemas and rows written through the
// store's segment encoder, in one to three chunks of up to three column views
// each, and read back as column views must vote exactly as the closures do
// on the decoded vectors.
func FuzzColumnVotesMatchClosures(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(40), uint8(0))
	f.Add(int64(7), uint8(6), uint8(200), uint8(1))
	f.Add(int64(-3), uint8(1), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nFeats, nRows, chunks uint8) {
		rng := rand.New(rand.NewSource(seed))
		defs := make([]feature.Def, 1+int(nFeats)%8)
		for i := range defs {
			defs[i] = feature.Def{Name: fmt.Sprintf("f%d", i), Kind: feature.Kind(rng.Intn(2))} // categorical or numeric
		}
		schema := feature.MustSchema(defs...)
		cat := func() string { return fmt.Sprintf("c%d", rng.Intn(5)) }
		vecs := make([]*feature.Vector, 1+5*int(nRows))
		for r := range vecs {
			v := feature.NewVector(schema)
			for i, d := range defs {
				switch {
				case rng.Intn(4) == 0: // missing
				case d.Kind == feature.Numeric:
					v.MustSetAt(i, feature.NumericValue(float64(rng.Intn(7)-3)))
				default:
					cats := make([]string, rng.Intn(4))
					for k := range cats {
						cats[k] = cat()
					}
					v.MustSetAt(i, feature.CategoricalValue(cats...))
				}
			}
			vecs[r] = v
		}
		// LFs over random features, including one the schema lacks and kinds
		// that do not match.
		feat := func() string { return fmt.Sprintf("f%d", rng.Intn(len(defs)+1)) }
		var pinned []pinnedLF
		for k := 0; k < 6; k++ {
			f1, c1, f2, c2, vote := feat(), cat(), feat(), cat(), int8(2*rng.Intn(2)-1)
			cut, above := float64(rng.Intn(5)-2), rng.Intn(2) == 0
			conj, err := ConjunctionLF([]string{f1 + "=" + c1, f2 + "=" + c2}, vote, "m")
			if err != nil {
				t.Fatal(err)
			}
			pinned = append(pinned,
				pinnedLF{CategoryLF(f1, c1, vote, "m"), refCategory(f1, c1, vote)},
				pinnedLF{conj, refConjunction([][2]string{{f1, c1}, {f2, c2}}, vote)},
				pinnedLF{itemsetLF(f1, []string{c1, c2}, vote), refItemset(f1, []string{c1, c2}, vote)},
			)
			// A threshold on a categorical feature reads 0 through the closure
			// and abstains as data; pin the numeric case only.
			if i, ok := schema.Index(f2); !ok || schema.Def(i).Kind == feature.Numeric {
				pinned = append(pinned, pinnedLF{ThresholdLF(f2, cut, above, vote, "m"), refThreshold(f2, cut, above, vote)})
			}
		}
		lfs := make([]*LF, len(pinned))
		for j, p := range pinned {
			lfs[j] = p.lf
		}
		k := 1 + int(chunks)%3
		s := colStore(t, vecs, make([]int8, len(vecs)), (len(vecs)+k-1)/k)
		got, _ := voteStore(t, s, Compile(lfs, schema), schema, 2)
		i := 0
		err := s.ScanChunks(context.Background(), func(_ int, _ []int, _ []int8, decoded []*feature.Vector) error {
			for _, v := range decoded {
				for j, p := range pinned {
					if want := p.ref(v); got[i][j] != want {
						t.Fatalf("row %d %v: %s votes %d on the column view, closure votes %d", i, v, p.lf.Name, got[i][j], want)
					}
				}
				i++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestApplyColumnsAllocsPerChunk: voting a store's chunks allocates a fixed
// number of objects per chunk (labels, the vote slab, one scratch slab for
// every view) and nothing per row or per view.
func TestApplyColumnsAllocsPerChunk(t *testing.T) {
	pinned := pinnedLFs(t)
	lfs := make([]*LF, len(pinned))
	for j, p := range pinned {
		lfs[j] = p.lf
	}
	plan := Compile(lfs, colLFSchema)
	perChunk := func(rows int) float64 {
		vecs, labels := colRows(4*rows, 5)
		s := colStore(t, vecs, labels, rows)
		votes := make([][]int8, 0, s.Rows())
		return testing.AllocsPerRun(5, func() {
			_ = s.ScanColumns(context.Background(), colLFSchema, func(_ int, labels []int8, parts []feature.Columns) error {
				votes, _ = plan.Vote(mapreduce.Config{Workers: 1}, parts, len(labels), votes[:0])
				return nil
			})
		}) / 4
	}
	small, large := perChunk(256), perChunk(4096)
	t.Logf("allocations per chunk: %.1f at 256 rows, %.1f at 4096 rows", small, large)
	if large > small+8 { // a value with more categories than its scratch holds grows it
		t.Errorf("allocations grow with the chunk: %.1f per 256-row chunk, %.1f per 4096-row chunk", small, large)
	}
	if large > 40 {
		t.Errorf("%.1f allocations per chunk, want a fixed handful (<= 40)", large)
	}
}

// BenchmarkApplyLFs times the vote kernel on 32 768 rows × 14 LFs: through
// the vector adapter and straight off a store's columns. ns/vote is per
// (row, LF) decision, abstains included — the ledger's lf.apply_ns_per_vote.
func BenchmarkApplyLFs(b *testing.B) {
	vecs, labels := colRows(32768, 3)
	var lfs []*LF
	for _, p := range pinnedLFs(b) {
		lfs = append(lfs, p.lf)
	}
	plan := Compile(lfs, colLFSchema)
	s := colStore(b, vecs, labels, 4096)
	for name, vote := range map[string]func() [][]int8{
		"vector": func() [][]int8 {
			votes, _ := plan.Vote(mapreduce.Config{Workers: 1}, feature.VectorColumns(colLFSchema, vecs), len(vecs), nil)
			return votes
		},
		"columns": func() [][]int8 {
			votes, _ := voteStore(b, s, plan, colLFSchema, 1)
			return votes
		},
	} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := vote(); len(got) != len(vecs) {
					b.Fatalf("%d vote rows", len(got))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vecs)*len(lfs)), "ns/vote")
		})
	}
}
