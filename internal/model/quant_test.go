package model

import (
	"bytes"
	"context"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"
)

// quantFixture trains a small network on a separable synthetic task and
// returns it with held-out rows — the property-test bed for quantized
// divergence bounds.
func quantFixture(t testing.TB, inDim int, hidden []int, n int, seed int64) (*MLP, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := make([]float64, inDim)
		for d := range x {
			x[d] = rng.NormFloat64()
		}
		if i%2 == 0 {
			x[0] += 2
			y[i] = 1
		}
		X[i] = x
	}
	m, err := Train(context.Background(), X, y, nil, Config{Hidden: hidden, Epochs: 4, Seed: seed, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	eval := make([][]float64, 256)
	for i := range eval {
		x := make([]float64, inDim)
		for d := range x {
			x[d] = rng.NormFloat64()
		}
		if i%2 == 0 {
			x[0] += 2
		}
		eval[i] = x
	}
	return m, eval
}

// TestPredictBatchQDivergence is the quantization property test: across
// architectures, float32 scores stay within 1e-3 of the float64 reference
// (they are ~1e-7 in practice) with identical classification decisions,
// and int8 stays within its looser documented bound with decisions
// identical wherever the reference has any margin.
func TestPredictBatchQDivergence(t *testing.T) {
	cases := []struct {
		name   string
		hidden []int
	}{
		{"logreg", nil},
		{"mlp16", []int{16}},
		{"mlp32x8", []int{32, 8}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, X := quantFixture(t, 24, c.hidden, 400, 11)
			ref := m.PredictBatch(X)
			f32 := m.PredictBatchQ(X, Float32)
			i8 := m.PredictBatchQ(X, Int8)
			for i := range X {
				if d := math.Abs(f32[i] - ref[i]); d >= 1e-3 {
					t.Fatalf("row %d: |f32-f64| = %g, want < 1e-3 (f32=%v f64=%v)", i, d, f32[i], ref[i])
				}
				if (f32[i] >= 0.5) != (ref[i] >= 0.5) {
					t.Fatalf("row %d: f32 decision %v differs from f64 %v", i, f32[i], ref[i])
				}
				if d := math.Abs(i8[i] - ref[i]); d >= 5e-2 {
					t.Fatalf("row %d: |int8-f64| = %g, want < 5e-2", i, d)
				}
				if math.Abs(ref[i]-0.5) > 5e-2 && (i8[i] >= 0.5) != (ref[i] >= 0.5) {
					t.Fatalf("row %d: int8 flips a decision with margin (%v vs %v)", i, i8[i], ref[i])
				}
			}
		})
	}
}

// TestPredictBatchQFloat64Fallback pins the Float64 escape: PredictBatchQ
// at Float64 is exactly PredictBatch.
func TestPredictBatchQFloat64Fallback(t *testing.T) {
	m, X := quantFixture(t, 8, []int{8}, 100, 3)
	ref := m.PredictBatch(X)
	got := m.PredictBatchQ(X, Float64)
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("row %d: %v vs %v", i, got[i], ref[i])
		}
	}
}

// TestPredictBatchQIntoAllocs asserts the arena contract: once the engine
// is warm, the Into path allocates nothing per batch.
func TestPredictBatchQIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds bookkeeping allocations")
	}
	m, X := quantFixture(t, 24, []int{16}, 200, 7)
	out := make([]float64, len(X))
	for _, p := range []Precision{Float32, Int8} {
		m.PredictBatchQInto(X, p, out) // warm the engine and scratch pool
		if allocs := testing.AllocsPerRun(50, func() {
			m.PredictBatchQInto(X, p, out)
		}); allocs != 0 {
			t.Errorf("%v: %v allocs per batch, want 0", p, allocs)
		}
	}
}

// TestPredictBatchQPanics pins the misuse paths (programming errors panic,
// matching PredictProba).
func TestPredictBatchQPanics(t *testing.T) {
	m, X := quantFixture(t, 8, nil, 60, 5)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("float64 precision", func() {
		m.PredictBatchQInto(X, Float64, make([]float64, len(X)))
	})
	mustPanic("bad out length", func() {
		m.PredictBatchQInto(X, Float32, make([]float64, len(X)-1))
	})
	mustPanic("bad input width", func() {
		m.PredictBatchQInto([][]float64{{1, 2}}, Float32, make([]float64, 1))
	})
}

// TestPrecisionNames round-trips the precision names the CLI and artifact
// flags use.
func TestPrecisionNames(t *testing.T) {
	for _, p := range []Precision{Float64, Float32, Int8} {
		got, err := ParsePrecision(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePrecision(%q) = %v, %v", p.String(), got, err)
		}
		if !p.Valid() {
			t.Errorf("%v not valid", p)
		}
	}
	if _, err := ParsePrecision("bf16"); err == nil {
		t.Error("unknown precision accepted")
	}
	if Precision(9).Valid() {
		t.Error("Precision(9) claims valid")
	}
	if s := Precision(9).String(); s != "Precision(9)" {
		t.Errorf("Precision(9).String() = %q", s)
	}
	if p, err := ParsePrecision("off"); err != nil || p != Float64 {
		t.Errorf(`ParsePrecision("off") = %v, %v`, p, err)
	}
}

// TestPrecisionTolerance pins the divergence contract the property tests
// and the serving canary gate both enforce.
func TestPrecisionTolerance(t *testing.T) {
	for _, c := range []struct {
		p           Precision
		tol, margin float64
	}{
		{Float64, 0, 0},
		{Float32, 1e-3, 0},
		{Int8, 5e-2, 5e-2},
	} {
		if tol, margin := c.p.Tolerance(); tol != c.tol || margin != c.margin {
			t.Errorf("%v.Tolerance() = %g, %g, want %g, %g", c.p, tol, margin, c.tol, c.margin)
		}
	}
}

// TestQuantEngineSurvivesGob ensures a decoded model rebuilds engines from
// its own (restored) parameters rather than inheriting stale ones.
func TestQuantEngineSurvivesGob(t *testing.T) {
	m, X := quantFixture(t, 12, []int{8}, 120, 9)
	want := m.PredictBatchQ(X, Float32)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	var back MLP
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&back); err != nil {
		t.Fatal(err)
	}
	got := back.PredictBatchQ(X, Float32)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: decoded engine scored %v, original %v", i, got[i], want[i])
		}
	}
}

// TestQuantZeroWeightRow covers the all-zero-row quantization guard.
func TestQuantZeroWeightRow(t *testing.T) {
	m, err := New(4, []int{4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Zero out one hidden unit's weights entirely.
	copy(m.weights[0][0:4], []float64{0, 0, 0, 0})
	m.biases[0][0] = 0.3
	X := [][]float64{{1, -1, 0.5, 2}}
	ref := m.PredictBatch(X)
	got := m.PredictBatchQ(X, Int8)
	if d := math.Abs(got[0] - ref[0]); d >= 5e-2 {
		t.Errorf("zero-row model diverges by %g", d)
	}
}

func BenchmarkPredictBatchQ(b *testing.B) {
	m, X := quantFixture(b, 96, []int{16}, 64, 13)
	benchmarkPredictBatchQ(b, "", m, X)
	// The serving shape: CT1's 431-wide one-hot rows through a [16] network.
	onehot, targets := onehot431(264)
	m, err := Train(context.Background(), onehot[:200], targets[:200], nil, Config{Hidden: []int{16}, Epochs: 1, Seed: 13, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	benchmarkPredictBatchQ(b, "onehot431/", m, onehot[200:])
}

func benchmarkPredictBatchQ(b *testing.B, prefix string, m *MLP, X [][]float64) {
	out := make([]float64, len(X))
	b.Run(prefix+"f64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.PredictBatch(X)
		}
	})
	for _, p := range []Precision{Float32, Int8} {
		b.Run(prefix+p.String(), func(b *testing.B) {
			m.PredictBatchQInto(X, p, out)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.PredictBatchQInto(X, p, out)
			}
		})
	}
}
