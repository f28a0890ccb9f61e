package lf

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// column is LF j's votes over every point: the copy EvaluateAll made of each
// column before it counted every LF in one pass over the rows.
func column(m *Matrix, j int) []int8 {
	out := make([]int8, len(m.Votes))
	for i, row := range m.Votes {
		out[i] = row[j]
	}
	return out
}

// evaluateColumn is the per-column Stats EvaluateAll reproduces bit for bit:
// class totals, correct votes per class and the voted classes, indexed by
// uint8(label or vote).
func evaluateColumn(name string, votes, labels []int8) Stats {
	if len(votes) != len(labels) {
		panic(fmt.Sprintf("lf: %d votes vs %d labels", len(votes), len(labels)))
	}
	var correct, voted int
	var classTotals, classCorrect [256]int
	var votesClass [256]bool
	for i, v := range votes {
		if labels[i] != 0 {
			classTotals[uint8(labels[i])]++
		}
		if v == 0 {
			continue
		}
		voted++
		votesClass[uint8(v)] = true
		if v == labels[i] {
			correct++
			classCorrect[uint8(v)]++
		}
	}
	s := Stats{Name: name, Votes: voted}
	if voted > 0 {
		s.Precision = float64(correct) / float64(voted)
	}
	var recallDenom, recallNum int
	for class, ok := range votesClass {
		if ok {
			recallDenom += classTotals[class]
			recallNum += classCorrect[class]
		}
	}
	if recallDenom > 0 {
		s.Recall = float64(recallNum) / float64(recallDenom)
	}
	if len(votes) > 0 {
		s.Coverage = float64(voted) / float64(len(votes))
	}
	return s
}

// evaluateAllReference is EvaluateAll as it was: one column copy and one
// evaluateColumn per LF.
func evaluateAllReference(m *Matrix, labels []int8) []Stats {
	out := make([]Stats, m.NumLFs())
	for j := range out {
		out[j] = evaluateColumn(m.Names[j], column(m, j), labels)
	}
	return out
}

// randomVoteMatrix draws an n×m matrix whose votes and labels span
// {-2..2}, or every int8 when wide, with abstains and zero labels common.
func randomVoteMatrix(rng *rand.Rand, n, m int, wide bool) (*Matrix, []int8) {
	draw := func() int8 {
		if rng.Intn(3) == 0 {
			return 0
		}
		if wide {
			return int8(rng.Intn(256) - 128)
		}
		return int8(rng.Intn(5) - 2)
	}
	mat := &Matrix{Votes: make([][]int8, n), Names: make([]string, m)}
	for j := range mat.Names {
		mat.Names[j] = fmt.Sprintf("lf%d", j)
	}
	labels := make([]int8, n)
	for i := range mat.Votes {
		labels[i] = draw()
		mat.Votes[i] = make([]int8, m, m+1)
		for j := range mat.Votes[i] {
			mat.Votes[i][j] = draw()
		}
	}
	return mat, labels
}

// TestEvaluateAllMatchesColumns: the one-pass EvaluateAll equals the
// per-column reference, floats bit for bit, on matrices with votes beyond
// ±1, zero labels, silent LFs, no rows and no LFs.
func TestEvaluateAllMatchesColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 200; trial++ {
		n, m := rng.Intn(300), rng.Intn(10)
		if trial == 0 {
			n, m = 0, 3
		}
		mat, labels := randomVoteMatrix(rng, n, m, trial%2 == 1)
		if m > 0 && trial%5 == 0 { // a silent LF
			for _, row := range mat.Votes {
				row[m-1] = 0
			}
		}
		got, want := EvaluateAll(mat, labels), evaluateAllReference(mat, labels)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d×%d): EvaluateAll\n%+v\nreference\n%+v", trial, n, m, got, want)
		}
	}
}

// FuzzEvaluateAllMatchesColumns: each row is one label byte then one vote
// byte per LF, so every int8 can be a label or a vote.
func FuzzEvaluateAllMatchesColumns(f *testing.F) {
	f.Add([]byte{1, 1, 0, 0xff, 0xff, 1}, uint8(1))
	f.Add([]byte{0, 2, 0x80, 0x7f, 3, 3, 0xfe, 0}, uint8(3))
	f.Add([]byte{}, uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, lfs uint8) {
		m := int(lfs % 8)
		n := len(data) / (m + 1)
		mat := &Matrix{Votes: make([][]int8, n), Names: make([]string, m)}
		labels := make([]int8, n)
		for i := range mat.Votes {
			row := data[i*(m+1) : (i+1)*(m+1)]
			labels[i] = int8(row[0])
			mat.Votes[i] = make([]int8, m)
			for j, b := range row[1:] {
				mat.Votes[i][j] = int8(b)
			}
		}
		if got, want := EvaluateAll(mat, labels), evaluateAllReference(mat, labels); !reflect.DeepEqual(got, want) {
			t.Fatalf("EvaluateAll\n%+v\nreference\n%+v", got, want)
		}
	})
}

// allocsPerRun is testing.AllocsPerRun that also reports the bytes one run
// allocates.
func allocsPerRun(runs int, f func()) (objects, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestEvaluateAllAllocsPerLF: EvaluateAll allocates per LF, not per row — a
// 64k-row matrix costs the objects and bytes of a 4k-row one.
func TestEvaluateAllAllocsPerLF(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds allocations")
	}
	measure := func(n int) (uint64, uint64) {
		mat, labels := randomVoteMatrix(rand.New(rand.NewSource(5)), n, 12, false)
		return allocsPerRun(5, func() { EvaluateAll(mat, labels) })
	}
	smallObj, smallBytes := measure(4 << 10)
	largeObj, largeBytes := measure(64 << 10)
	if smallObj != largeObj || smallBytes != largeBytes {
		t.Errorf("EvaluateAll: %d objects / %d B at 4k rows, %d / %d B at 64k", smallObj, smallBytes, largeObj, largeBytes)
	}
}
