package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"crossmodal/internal/labelprop"
	"crossmodal/internal/lf"
	"crossmodal/internal/trace"
)

// TestStreamedLFStagesReadColumns: during mining, lf.apply and labelprop of
// a streamed run the store is read as columns — each stage's diskstore.scan
// spans report the rows they covered and decode no vector, and the graph
// window scans stop at the window's chunk; the two LF stage spans carry the
// rows / views / votes the per-layer ledger divides by, one column view per
// 128-row chunk.
func TestStreamedLFStagesReadColumns(t *testing.T) {
	if trace.Enabled() {
		t.Fatal("tracer already installed; tests must not leak the process default")
	}
	tr := trace.New()
	trace.SetDefault(tr)
	const window = 100 // inside the first 128-row image chunk
	sc := runStreamed(t, streamOptions(), StreamOptions{Dir: t.TempDir(), ChunkSize: 128, GraphWindow: window})
	trace.SetDefault(nil)
	var summary strings.Builder
	if err := tr.WriteSummary(&summary); err != nil {
		t.Fatal(err)
	}
	// stage → its own line, and the diskstore.scan line nested under it.
	stageLine, scanLine, ingestLine := map[string]string{}, map[string]string{}, map[string]string{}
	stage := ""
	for _, line := range strings.Split(summary.String(), "\n") {
		name := strings.Fields(line + " .")[0]
		switch indent := len(line) - len(strings.TrimLeft(line, " ")); {
		case indent == 2:
			stage = name
			stageLine[stage] = line
		case indent == 4 && name == "diskstore.scan":
			scanLine[stage] = line
		case indent == 4 && stage == "stream.ingest":
			ingestLine[name] = line
		}
	}
	// Ingest's three overlapped stages each report under stream.ingest, so
	// its self time is hand-off waiting: 7 + 4 + 1 + 2 chunks generated
	// (800 text, 400 image, 120 pool, 150 test at 128 a chunk), 11 spilled.
	for name, want := range map[string]string{
		"synth.generate":         "×15  [points=1470 chunks=14]", // the 15th call finds the stream dry
		"featurize":              "×11  [points=1200]",
		"diskstore.append_chunk": "×11  [rows=1200 ",
	} {
		if !strings.Contains(ingestLine[name], want) {
			t.Errorf("stream.ingest: span %q = %q, want %q\n%s", name, ingestLine[name], want, summary.String())
		}
	}
	text, image := sc.Text.Rows(), sc.Image.Rows()
	for stage, n := range map[string][2]int{
		"mining":   {text, sc.Text.Chunks()},
		"lf.apply": {text + image, sc.Text.Chunks() + sc.Image.Chunks()},
	} {
		rows, views := n[0], n[1]
		scan := scanLine[stage]
		if !strings.Contains(scan, fmt.Sprintf("[rows=%d]", rows)) {
			t.Errorf("%s: store scans must cover %d rows as columns and decode no vector; span: %q\n%s", stage, rows, scan, summary.String())
		}
		if own := stageLine[stage]; !strings.Contains(own, fmt.Sprintf("rows=%d ", rows)) || !strings.Contains(own, fmt.Sprintf("views=%d", views)) {
			t.Errorf("%s span lacks its rows / views counters (%d / %d): %q", stage, rows, views, own)
		}
	}
	if own := stageLine["lf.apply"]; !strings.Contains(own, "votes=") || strings.Contains(own, "votes=0 ") {
		t.Errorf("lf.apply span lacks a votes counter: %q", own)
	}
	// The three graph window scans (scales:means, scales:devs, graph) read
	// the window's one chunk as columns, decode no vector and stop there.
	if scan := scanLine["labelprop"]; !strings.Contains(scan, "[rows=384]") {
		t.Errorf("labelprop: the graph window scans must read 3 × 128 rows of one chunk as columns; span: %q", scan)
	}
}

// column is LF j's votes over every point.
func column(m *lf.Matrix, j int) []int8 {
	out := make([]int8, len(m.Votes))
	for i, row := range m.Votes {
		out[i] = row[j]
	}
	return out
}

// cloneMatrix deep-copies m, keeping each row's capacity.
func cloneMatrix(m *lf.Matrix) *lf.Matrix {
	c := &lf.Matrix{Votes: make([][]int8, len(m.Votes)), Names: append([]string(nil), m.Names...)}
	for i, row := range m.Votes {
		c.Votes[i] = append(make([]int8, 0, cap(row)), row...)
	}
	return c
}

// dedupeLFsReference is dedupeLFs as it was before it counted each column
// once: every pair recounts both columns over every row.
func dedupeLFsReference(lfs []*lf.LF, devMatrix *lf.Matrix, devLabels []int8) []string {
	stats := lf.EvaluateAll(devMatrix, devLabels)
	order := make([]int, len(lfs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		qa := stats[order[a]].Precision * stats[order[a]].Recall
		qb := stats[order[b]].Precision * stats[order[b]].Recall
		if qa != qb {
			return qa > qb
		}
		return lfs[order[a]].Name < lfs[order[b]].Name
	})
	cols := make([][]int8, len(lfs))
	for j := range lfs {
		cols[j] = column(devMatrix, j)
	}
	var keptIdx []int
	for _, j := range order {
		dup := false
		for _, k := range keptIdx {
			var agree, overlap, votesJ, votesK int
			for i := range cols[j] {
				vj, vk := cols[j][i], cols[k][i]
				if vj != 0 {
					votesJ++
				}
				if vk != 0 {
					votesK++
				}
				if vj != 0 && vk != 0 {
					overlap++
					if vj == vk {
						agree++
					}
				}
			}
			smaller := min(votesJ, votesK)
			if smaller > 0 && overlap >= smaller*3/5 && float64(agree) >= 0.95*float64(overlap) {
				dup = true
				break
			}
		}
		if !dup {
			keptIdx = append(keptIdx, j)
		}
	}
	sort.Ints(keptIdx)
	names := make([]string, len(keptIdx))
	for c, j := range keptIdx {
		names[c] = lfs[j].Name
	}
	return names
}

// TestDedupeLFsMatchesReference: the kept set, its order and the kept vote
// columns equal the pair-recounting reference on matrices with exact
// duplicates, near duplicates on either side of both thresholds, sign-flipped
// twins, silent LFs and quality ties. dedupeLFs compacts its input in place,
// so the columns are checked against a copy taken before the call, and every
// row must keep the spare column appendPropLF appends into.
func TestDedupeLFsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	dropping := 0
	for trial := 0; trial < 60; trial++ {
		n, m := 40+rng.Intn(400), 2+rng.Intn(12)
		labels := make([]int8, n)
		for i := range labels {
			labels[i] = int8(2*rng.Intn(2) - 1)
		}
		matrix := &lf.Matrix{Votes: make([][]int8, n)}
		lfs := make([]*lf.LF, m)
		for j := range lfs {
			lfs[j] = &lf.LF{Name: fmt.Sprintf("lf%02d", rng.Intn(100)*100+j)}
			matrix.Names = append(matrix.Names, lfs[j].Name)
		}
		for i := range matrix.Votes {
			matrix.Votes[i] = make([]int8, m, m+1) // Plan.Vote's spare column
		}
		for j := 0; j < m; j++ {
			switch src := rng.Intn(j + 1); {
			case j > 0 && rng.Intn(2) == 0: // a perturbed copy of an earlier column
				flip, drop, sign := rng.Float64()*0.12, rng.Float64()*0.7, int8(1)
				if rng.Intn(6) == 0 {
					sign = -1
				}
				for i := range matrix.Votes {
					v := sign * matrix.Votes[i][src]
					if rng.Float64() < drop {
						v = 0
					} else if rng.Float64() < flip {
						v = -v
					}
					matrix.Votes[i][j] = v
				}
			case rng.Intn(8) == 0: // silent
			default:
				rate := 0.02 + rng.Float64()*0.4
				for i := range matrix.Votes {
					if rng.Float64() < rate {
						matrix.Votes[i][j] = labels[i]
						if rng.Intn(4) == 0 {
							matrix.Votes[i][j] = -labels[i]
						}
					}
				}
			}
		}
		want := dedupeLFsReference(lfs, matrix, labels)
		if len(want) < m {
			dropping++
		}
		source := cloneMatrix(matrix)
		kept, keptMatrix := dedupeLFs(lfs, matrix, labels)
		if keptMatrix != matrix {
			t.Fatalf("trial %d: dedupeLFs returned a new matrix, want its input compacted in place", trial)
		}
		var got []string
		for _, l := range kept {
			got = append(got, l.Name)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(keptMatrix.Names, want) {
			t.Fatalf("trial %d: kept %v (matrix %v), reference keeps %v", trial, got, keptMatrix.Names, want)
		}
		if len(keptMatrix.Votes) != n {
			t.Fatalf("trial %d: %d rows kept, want %d", trial, len(keptMatrix.Votes), n)
		}
		for i, row := range keptMatrix.Votes {
			if len(row) != len(want) || cap(row) <= len(row) {
				t.Fatalf("trial %d: row %d has len %d cap %d, want len %d and a spare column", trial, i, len(row), cap(row), len(want))
			}
			for c, name := range want {
				j := indexOf(source.Names, name)
				if row[c] != source.Votes[i][j] {
					t.Fatalf("trial %d: kept column %s row %d holds %d, source %d", trial, name, i, row[c], source.Votes[i][j])
				}
			}
		}
	}
	if dropping < 20 || dropping == 60 {
		t.Fatalf("%d of 60 trials drop an LF; the table needs both outcomes", dropping)
	}
}

func indexOf(names []string, name string) int {
	for i, n := range names {
		if n == name {
			return i
		}
	}
	return -1
}

// appendPropLFReference is appendPropLF as it was: the dev column goes
// through AppendScoreLF as a ScoreLF over dev-length score and presence
// arrays.
func appendPropLFReference(matrix, devMatrix *lf.Matrix, cuts labelprop.Cuts, imageScores []float64, imagePresent []bool, devIdx []int, devScores []float64, devReached []bool) error {
	img := &lf.ScoreLF{Name: "labelprop", Source: "labelprop", Scores: imageScores, Present: imagePresent, PosCut: cuts.Pos, NegCut: cuts.Neg}
	if err := matrix.AppendScoreLF(img); err != nil {
		return err
	}
	dev := &lf.ScoreLF{Name: "labelprop", Source: "labelprop", PosCut: cuts.Pos, NegCut: cuts.Neg,
		Scores: make([]float64, devMatrix.NumPoints()), Present: make([]bool, devMatrix.NumPoints())}
	for i, ti := range devIdx {
		dev.Scores[ti] = devScores[i]
		dev.Present[ti] = devReached[i]
	}
	return devMatrix.AppendScoreLF(dev)
}

// propInputs draws an n-row dev matrix and a nImages-row image matrix of m
// LFs (each row with Plan.Vote's spare column) and propagation outputs for
// nDev held-out dev rows, drawn with repeats; about a fifth are unreached.
func propInputs(rng *rand.Rand, n, nImages, m, nDev int) (matrix, devMatrix *lf.Matrix, imageScores []float64, imagePresent []bool, devIdx []int, devScores []float64, devReached []bool) {
	votes := func(rows int) *lf.Matrix {
		mat := &lf.Matrix{Votes: make([][]int8, rows)}
		for j := 0; j < m; j++ {
			mat.Names = append(mat.Names, fmt.Sprintf("lf%d", j))
		}
		for i := range mat.Votes {
			mat.Votes[i] = make([]int8, m, m+1)
			for j := range mat.Votes[i] {
				mat.Votes[i][j] = int8(rng.Intn(3) - 1)
			}
		}
		return mat
	}
	matrix, devMatrix = votes(nImages), votes(n)
	imageScores, imagePresent = make([]float64, nImages), make([]bool, nImages)
	for i := range imageScores {
		imageScores[i], imagePresent[i] = rng.Float64(), rng.Intn(5) > 0
	}
	devIdx, devScores, devReached = make([]int, nDev), make([]float64, nDev), make([]bool, nDev)
	for i := range devIdx {
		devIdx[i], devScores[i], devReached[i] = rng.Intn(n), rng.Float64(), rng.Intn(5) > 0
	}
	return
}

// TestAppendPropLFMatchesScoreLF: the dev propagation column written only at
// devIdx equals the dev-length ScoreLF the column used to be, with repeated
// and unreached held-out rows, and the image column is unchanged.
func TestAppendPropLFMatchesScoreLF(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	cuts := labelprop.Cuts{Pos: 0.7, Neg: 0.3}
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(300)
		matrix, devMatrix, imageScores, imagePresent, devIdx, devScores, devReached := propInputs(rng, n, 1+rng.Intn(200), rng.Intn(6), rng.Intn(2*n))
		wantMatrix, wantDev := cloneMatrix(matrix), cloneMatrix(devMatrix)
		if err := appendPropLFReference(wantMatrix, wantDev, cuts, imageScores, imagePresent, devIdx, devScores, devReached); err != nil {
			t.Fatal(err)
		}
		if err := appendPropLF(matrix, devMatrix, cuts, imageScores, imagePresent, devIdx, devScores, devReached); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(matrix, wantMatrix) || !reflect.DeepEqual(devMatrix, wantDev) {
			t.Fatalf("trial %d: appendPropLF differs from the dev-length ScoreLF form", trial)
		}
	}
	matrix, devMatrix, imageScores, imagePresent, _, _, _ := propInputs(rng, 4, 4, 2, 0)
	if err := appendPropLF(matrix, devMatrix, cuts, imageScores[:3], imagePresent[:3], nil, nil, nil); err == nil {
		t.Error("an image score LF short of the matrix must fail")
	}
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

// TestLFStageAllocsPerLF: dedupeLFs and appendPropLF allocate per LF, not per
// dev row — a 64k-row dev matrix costs the objects of a 4k-row one, and the
// bytes too, but for the 4 B per vote of dedupeLFs' vote lists (plus one
// page of size-class rounding). The 64k matrix tiles the 4k one, so both
// keep the same LFs.
func TestLFStageAllocsPerLF(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds allocations")
	}
	const m, base = 9, 4 << 10
	rng := rand.New(rand.NewSource(7))
	labels := make([]int8, base)
	pattern := make([][]int8, base)
	votes := uint64(0)
	for i := range pattern {
		labels[i] = int8(2*rng.Intn(2) - 1)
		row := make([]int8, m)
		for j := range row {
			switch {
			case j%3 == 2: // an exact duplicate of the column before
				row[j] = row[j-1]
			case rng.Intn(4) == 0:
				row[j] = labels[i]
			}
			if row[j] != 0 {
				votes++
			}
		}
		pattern[i] = row
	}
	lfs, names := make([]*lf.LF, m), make([]string, m)
	for j := range lfs {
		names[j] = fmt.Sprintf("lf%d", j)
		lfs[j] = &lf.LF{Name: names[j]}
	}
	var keptLFs []*lf.LF
	dedupe := func(tiles int) (objects, bytes uint64, kept []string) {
		matrix := &lf.Matrix{Votes: make([][]int8, base*tiles)}
		devLabels := make([]int8, 0, base*tiles)
		for i := range matrix.Votes {
			matrix.Votes[i] = make([]int8, m, m+1)
		}
		for range tiles {
			devLabels = append(devLabels, labels...)
		}
		objects, bytes = allocsPerRun(5, func() {
			for i, row := range matrix.Votes { // undo the last run's compaction
				matrix.Votes[i] = append(row[:0], pattern[i%base]...)
			}
			matrix.Names = names
			keptLFs, _ = dedupeLFs(lfs, matrix, devLabels)
		})
		for _, l := range keptLFs {
			kept = append(kept, l.Name)
		}
		return objects, bytes, kept
	}
	smallObj, smallBytes, smallKept := dedupe(1)
	largeObj, largeBytes, largeKept := dedupe(16)
	if len(smallKept) == m || !reflect.DeepEqual(smallKept, largeKept) {
		t.Fatalf("dedupe keeps %v at 4k rows and %v at 64k; the pin needs the same, proper subset", smallKept, largeKept)
	}
	if extraVotes := 15 * votes; smallObj != largeObj || largeBytes > smallBytes+4*extraVotes+8<<10 {
		t.Errorf("dedupeLFs: %d objects / %d B at 4k rows (%d votes), %d / %d B at 64k", smallObj, smallBytes, votes, largeObj, largeBytes)
	}

	appendProp := func(n int) (uint64, uint64) {
		matrix, devMatrix, imageScores, imagePresent, devIdx, devScores, devReached := propInputs(rand.New(rand.NewSource(9)), n, 1000, m, 200)
		cuts := labelprop.Cuts{Pos: 0.7, Neg: 0.3}
		return allocsPerRun(5, func() {
			for _, mat := range []*lf.Matrix{matrix, devMatrix} { // drop the last run's column
				for i, row := range mat.Votes {
					mat.Votes[i] = row[:m]
				}
				mat.Names = mat.Names[:m]
			}
			if err := appendPropLF(matrix, devMatrix, cuts, imageScores, imagePresent, devIdx, devScores, devReached); err != nil {
				t.Fatal(err)
			}
		})
	}
	smallObj, smallBytes = appendProp(4 << 10)
	largeObj, largeBytes = appendProp(64 << 10)
	if smallObj != largeObj || smallBytes != largeBytes {
		t.Errorf("appendPropLF: %d objects / %d B at 4k dev rows, %d / %d B at 64k", smallObj, smallBytes, largeObj, largeBytes)
	}
}
