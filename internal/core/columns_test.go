package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"crossmodal/internal/lf"
	"crossmodal/internal/trace"
)

// TestStreamedLFStagesReadColumns: during mining and lf.apply of a streamed
// run the store is read as columns — each stage's diskstore.scan spans report
// the rows and segments they covered and decode no vector — while the graph
// window scans under labelprop still materialize theirs; the two stage spans
// carry the rows / segments / votes the per-layer ledger divides by.
func TestStreamedLFStagesReadColumns(t *testing.T) {
	if trace.Enabled() {
		t.Fatal("tracer already installed; tests must not leak the process default")
	}
	tr := trace.New()
	trace.SetDefault(tr)
	sc := runStreamed(t, streamOptions(), StreamOptions{Dir: t.TempDir(), ChunkSize: 128, Shards: 4})
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
	for stage, rows := range map[string]int{"mining": text, "lf.apply": text + image} {
		scan := scanLine[stage]
		if !strings.Contains(scan, fmt.Sprintf("rows=%d ", rows)) || !strings.Contains(scan, "segments=") || strings.Contains(scan, "vectors=") {
			t.Errorf("%s: store scans must cover %d rows as columns and decode no vector; span: %q\n%s", stage, rows, scan, summary.String())
		}
		if own := stageLine[stage]; !strings.Contains(own, fmt.Sprintf("rows=%d ", rows)) || !strings.Contains(own, "segments=") {
			t.Errorf("%s span lacks its rows / segments counters: %q", stage, own)
		}
	}
	if own := stageLine["lf.apply"]; !strings.Contains(own, "votes=") || strings.Contains(own, "votes=0 ") {
		t.Errorf("lf.apply span lacks a votes counter: %q", own)
	}
	if scan := scanLine["labelprop"]; !strings.Contains(scan, "vectors=") {
		t.Errorf("labelprop: the graph window scans decode vectors; span: %q", scan)
	}
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
		cols[j] = devMatrix.Column(j)
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
// twins, silent LFs and quality ties.
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
			matrix.Votes[i] = make([]int8, m)
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
		kept, keptMatrix := dedupeLFs(lfs, matrix, labels)
		var got []string
		for _, l := range kept {
			got = append(got, l.Name)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(keptMatrix.Names, want) {
			t.Fatalf("trial %d: kept %v (matrix %v), reference keeps %v", trial, got, keptMatrix.Names, want)
		}
		for i, row := range keptMatrix.Votes {
			for c, name := range want {
				j := indexOf(matrix.Names, name)
				if row[c] != matrix.Votes[i][j] {
					t.Fatalf("trial %d: kept column %s row %d holds %d, source %d", trial, name, i, row[c], matrix.Votes[i][j])
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
