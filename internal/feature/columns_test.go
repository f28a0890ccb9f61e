package feature

import (
	"slices"
	"testing"
)

// TestVectorColumns: the adapter answers every (column, row) under the target
// schema — categories in written order, repeats included — from vectors left
// in their own — matched by name, also for a vector
// under a third schema mid-run — in views whose ordinals tile the chunk.
func TestVectorColumns(t *testing.T) {
	own := MustSchema(
		Def{Name: "topic", Kind: Categorical},
		Def{Name: "emb", Kind: Embedding, Dim: 2},
		Def{Name: "score", Kind: Numeric},
	)
	other := MustSchema(Def{Name: "score", Kind: Numeric}, Def{Name: "topic", Kind: Categorical})
	target := MustSchema(
		Def{Name: "score", Kind: Numeric},
		Def{Name: "ghost", Kind: Categorical},
		Def{Name: "topic", Kind: Categorical},
		Def{Name: "emb", Kind: Embedding, Dim: 2},
	)
	n := 2*ViewRows + 17
	vecs := make([]*Vector, n)
	for i := range vecs {
		v := NewVector(own)
		if i%7 == 3 {
			v = NewVector(other)
		}
		if i%3 != 0 {
			v.MustSet("score", NumericValue(float64(i)))
		}
		if i%5 != 0 && v.Schema() == own {
			v.MustSet("emb", EmbeddingValue([]float64{float64(i), -1}))
		}
		switch i % 4 {
		case 0:
			v.MustSet("topic", CategoricalValue("a", "b", "a"))
		case 1:
			v.MustSet("topic", CategoricalValue())
		}
		vecs[i] = v
	}
	if got := VectorColumns(target, nil); got != nil {
		t.Fatalf("no vectors gave %d views", len(got))
	}
	parts := VectorColumns(target, vecs)
	if len(parts) != 3 {
		t.Fatalf("%d views for %d rows, want 3", len(parts), n)
	}
	next := 0
	for _, c := range parts {
		for r := 0; r < c.Rows(); r++ {
			if c.Ord(r) != next {
				t.Fatalf("ordinal %d, want %d", c.Ord(r), next)
			}
			want := vecs[next].Reproject(target)
			next++
			for col := 0; col < target.Len(); col++ {
				if c.Present(col, r) != want.Present(col) || c.Num(col, r) != want.Num(col) ||
					!slices.Equal(c.CatIDs(col, r, nil), want.CategoryList(col)) || !slices.Equal(c.Emb(col, r, nil), want.Vec(col)) {
					t.Fatalf("row %d col %d: view (%v, %v, %v, %v), vector %v", next-1, col,
						c.Present(col, r), c.Num(col, r), c.CatIDs(col, r, nil), c.Emb(col, r, nil), want)
				}
			}
		}
	}
	if next != n {
		t.Fatalf("views cover %d rows, want %d", next, n)
	}
	id := InternID("interned-for-reverse-lookup")
	if got := InternedCategory(id); got != "interned-for-reverse-lookup" {
		t.Fatalf("InternedCategory(%d) = %q", id, got)
	}
}
