package model

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// scoreFixture trains a small network on a separable synthetic task and
// returns it with held-out rows.
func scoreFixture(t testing.TB, inDim int, hidden []int, n int, seed int64) (*MLP, [][]float64) {
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

// TestPredictBatchQIntoAllocs asserts the arena contract: once the scratch
// pool is warm, scoring a batch allocates nothing, whatever the precision
// stamp (every one runs the float64 path).
func TestPredictBatchQIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds bookkeeping allocations")
	}
	m, X := scoreFixture(t, 24, []int{16}, 200, 7)
	out := make([]float64, len(X))
	for _, p := range []Precision{Float64, Float32, Int8} {
		m.PredictBatchQInto(X, p, out) // warm the scratch pools
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
	m, X := scoreFixture(t, 8, nil, 60, 5)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("bad out length", func() {
		m.PredictBatchQInto(X, Float32, make([]float64, len(X)-1))
	})
	mustPanic("bad input width", func() {
		m.PredictBatchQInto([][]float64{{1, 2}}, Float32, make([]float64, 1))
	})
}

// TestPrecisionNames pins the precision names artifacts and logs print.
func TestPrecisionNames(t *testing.T) {
	for p, want := range map[Precision]string{Float64: "f64", Float32: "f32", Int8: "int8"} {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), want)
		}
		if !p.Valid() {
			t.Errorf("%v not valid", p)
		}
	}
	if Precision(9).Valid() {
		t.Error("Precision(9) claims valid")
	}
	if s := Precision(9).String(); s != "Precision(9)" {
		t.Errorf("Precision(9).String() = %q", s)
	}
}

// TestPrecisionTolerance pins the divergence bounds a check may read.
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

// BenchmarkPredictBatchQ times the serial, pooled serving scorer against the
// sharded PredictBatch.
func BenchmarkPredictBatchQ(b *testing.B) {
	m, X := scoreFixture(b, 96, []int{16}, 64, 13)
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
	b.Run(prefix+"batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.PredictBatch(X)
		}
	})
	for _, n := range []int{8, len(X)} {
		out := make([]float64, n)
		b.Run(fmt.Sprintf("%sinto/rows=%d", prefix, n), func(b *testing.B) {
			m.PredictBatchQInto(X[:n], Float64, out)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.PredictBatchQInto(X[:n], Float64, out)
			}
		})
	}
}
