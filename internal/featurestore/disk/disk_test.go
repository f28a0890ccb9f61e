package disk

import (
	"fmt"
	"math"
	"os"
	"testing"

	"crossmodal/internal/feature"
	"crossmodal/internal/xrand"
)

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

func schemaIndex(t testing.TB, schema *feature.Schema, name string) int {
	t.Helper()
	i, ok := schema.Index(name)
	if !ok {
		t.Fatalf("schema has no feature %q", name)
	}
	return i
}

// testSchema exercises all three column kinds, including a second
// categorical with heavy duplication pressure on the dictionary.
func testSchema() *feature.Schema {
	return feature.MustSchema(
		feature.Def{Name: "score", Kind: feature.Numeric, Set: "A", Servable: true},
		feature.Def{Name: "emb", Kind: feature.Embedding, Dim: 4, Set: "B"},
		feature.Def{Name: "topic", Kind: feature.Categorical, Set: "A", Servable: true},
		feature.Def{Name: "tags", Kind: feature.Categorical, Set: "C"},
	)
}

// makeVecs builds n deterministic vectors with a mix of missing values,
// empty-but-present categoricals, duplicate categories, and odd float bits.
func makeVecs(t testing.TB, schema *feature.Schema, n int, seed int64) []*feature.Vector {
	t.Helper()
	rng := xrand.New(seed)
	vecs := make([]*feature.Vector, n)
	for i := range vecs {
		v := feature.NewVector(schema)
		switch i % 5 {
		case 0:
			v.MustSet("score", feature.NumericValue(rng.NormFloat64()))
		case 1:
			v.MustSet("score", feature.NumericValue(math.Inf(1)))
		case 2:
			v.MustSet("score", feature.NumericValue(0))
		case 3:
			// missing
		case 4:
			v.MustSet("score", feature.NumericValue(-math.SmallestNonzeroFloat64))
		}
		if i%3 != 0 {
			emb := make([]float64, 4)
			for k := range emb {
				emb[k] = rng.Float64()*2 - 1
			}
			v.MustSet("emb", feature.EmbeddingValue(emb))
		}
		switch i % 4 {
		case 0:
			v.MustSet("topic", feature.CategoricalValue(fmt.Sprintf("t%d", rng.Intn(7))))
		case 1:
			v.MustSet("topic", feature.CategoricalValue("t0", "t1", "t0")) // duplicates preserved
		case 2:
			v.MustSet("topic", feature.CategoricalValue()) // present but empty
		}
		if i%2 == 0 {
			tags := make([]string, 1+rng.Intn(3))
			for k := range tags {
				tags[k] = fmt.Sprintf("tag-%d", rng.Intn(20))
			}
			v.MustSet("tags", feature.CategoricalValue(tags...))
		}
		vecs[i] = v
	}
	return vecs
}

// wantSameVector asserts b is bit-identical to a: same presence, same
// float bits, same categories in the same order with multiplicity.
func wantSameVector(t *testing.T, where string, a, b *feature.Vector) {
	t.Helper()
	schema := a.Schema()
	for i := 0; i < schema.Len(); i++ {
		d := schema.Def(i)
		va, vb := a.At(i), b.At(i)
		if va.Missing != vb.Missing {
			t.Fatalf("%s: feature %q: missing %v vs %v", where, d.Name, va.Missing, vb.Missing)
		}
		if va.Missing {
			continue
		}
		switch d.Kind {
		case feature.Numeric:
			if math.Float64bits(va.Num) != math.Float64bits(vb.Num) {
				t.Fatalf("%s: feature %q: %v (%#x) vs %v (%#x)", where, d.Name,
					va.Num, math.Float64bits(va.Num), vb.Num, math.Float64bits(vb.Num))
			}
		case feature.Embedding:
			if len(va.Vec) != len(vb.Vec) {
				t.Fatalf("%s: feature %q: dim %d vs %d", where, d.Name, len(va.Vec), len(vb.Vec))
			}
			for k := range va.Vec {
				if math.Float64bits(va.Vec[k]) != math.Float64bits(vb.Vec[k]) {
					t.Fatalf("%s: feature %q[%d]: %v vs %v", where, d.Name, k, va.Vec[k], vb.Vec[k])
				}
			}
		case feature.Categorical:
			if len(va.Categories) != len(vb.Categories) {
				t.Fatalf("%s: feature %q: %d categories vs %d", where, d.Name, len(va.Categories), len(vb.Categories))
			}
			for k := range va.Categories {
				if va.Categories[k] != vb.Categories[k] {
					t.Fatalf("%s: feature %q[%d]: %q vs %q", where, d.Name, k, va.Categories[k], vb.Categories[k])
				}
			}
		}
	}
}

// encodeTestSegment produces a complete valid segment byte image for the
// format-level tests and the fuzz seed corpus.
func encodeTestSegment(t testing.TB, schema *feature.Schema, rows int, seed int64) []byte {
	t.Helper()
	vecs := makeVecs(t, schema, rows, seed)
	ids := make([]int, rows)
	labels := make([]int8, rows)
	for i := range ids {
		ids[i] = 1000 + i
		labels[i] = int8(i%3 - 1)
	}
	f, err := os.CreateTemp(t.TempDir(), "seg")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := new(encoder).encodeSegment(f, schema, SchemaHash(schema), 0, ids, labels, vecs); err != nil {
		t.Fatalf("encodeSegment: %v", err)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return data
}
