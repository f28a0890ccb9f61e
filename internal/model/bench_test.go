package model

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// onehot431 is the CT1 end-model design shape: 431 columns, 28 non-zeros a
// row (26 one-hot slots and two standardized numerics), the first slot
// carrying the label signal.
func onehot431(n int) ([][]float64, []float64) {
	const width, nnz = 431, 28
	rng := rand.New(rand.NewSource(41))
	X := make([][]float64, n)
	targets := make([]float64, n)
	for i := range X {
		x := make([]float64, width)
		for _, c := range rng.Perm(width)[:nnz-2] {
			x[c] = 1
		}
		x[rng.Intn(width)] = rng.NormFloat64()
		x[rng.Intn(width)] = rng.NormFloat64()
		if x[0] != 0 {
			targets[i] = 1
		}
		X[i] = x
	}
	return X, targets
}

// benchTrainData sizes the training benchmarks like the experiment suite's
// end models: a few thousand rows of a few-hundred-wide dense feature space.
func benchTrainData(n, dim int) ([][]float64, []float64) {
	X, targets, _ := linearData(n, dim, 0.2, 7)
	return X, targets
}

func benchmarkTrain(b *testing.B, X [][]float64, targets []float64, hidden []int, workers int) {
	cfg := Config{Hidden: hidden, Epochs: 3, LearningRate: 0.02, Seed: 11, Workers: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(ctxbg, X, targets, nil, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModelTrain(b *testing.B) {
	for _, tc := range []struct {
		name   string
		hidden []int
	}{
		{"lr", nil},
		{"mlp32", []int{32}},
	} {
		for _, workers := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(b *testing.B) {
				X, targets := benchTrainData(2000, 128)
				benchmarkTrain(b, X, targets, tc.hidden, workers)
			})
			b.Run(fmt.Sprintf("onehot431/%s/workers=%d", tc.name, workers), func(b *testing.B) {
				X, targets := onehot431(2000)
				benchmarkTrain(b, X, targets, tc.hidden, workers)
			})
		}
	}
}

func BenchmarkPredictBatch(b *testing.B) {
	dense, denseTargets := benchTrainData(4000, 128)
	onehot, onehotTargets := onehot431(4000)
	for _, tc := range []struct {
		name    string
		X       [][]float64
		targets []float64
	}{{"", dense, denseTargets}, {"onehot431/", onehot, onehotTargets}} {
		for _, workers := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("%sworkers=%d", tc.name, workers), func(b *testing.B) {
				m, err := Train(ctxbg, tc.X[:200], tc.targets[:200], nil,
					Config{Hidden: []int{32}, Epochs: 1, Seed: 11, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.PredictBatch(tc.X)
				}
			})
		}
	}
}

// benchWorkerCounts returns the worker counts worth benchmarking on this
// host: serial, and (when the host has more than one CPU) 2 and GOMAXPROCS.
func benchWorkerCounts() []int {
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		if n > 2 {
			counts = append(counts, 2)
		}
		counts = append(counts, n)
	}
	return counts
}
