package lf

import (
	"slices"

	"crossmodal/internal/feature"
	"crossmodal/internal/mapreduce"
)

// test is one LF compiled against a schema: features resolved to column
// positions, categories to intern IDs. dead marks an LF reading a feature the
// schema lacks or defines as another kind: it abstains on every row.
type test struct {
	vote  int8
	dead  bool
	cols  []int    // per term; or the one numeric column of a threshold
	ids   []uint32 // per term: the category; empty for a threshold
	cut   float64
	above bool
}

func compile(l *LF, schema *feature.Schema) test {
	t := test{vote: l.Vote, cut: l.Cut, above: l.Above}
	column := func(name string, kind feature.Kind) {
		i, ok := schema.Index(name)
		t.cols, t.dead = append(t.cols, i), t.dead || !ok || schema.Def(i).Kind != kind
	}
	for _, tm := range l.Terms {
		column(tm.Feature, feature.Categorical)
		t.ids = append(t.ids, feature.InternID(tm.Category))
	}
	if len(l.Terms) == 0 {
		column(l.Feature, feature.Numeric)
	}
	return t
}

// holds reports whether the live test fires on row r of c; buf is scratch for
// one value's category IDs.
func (t *test) holds(c feature.Columns, r int, buf *[]uint32) bool {
	for k, id := range t.ids {
		if *buf = c.CatIDs(t.cols[k], r, (*buf)[:0]); !slices.Contains(*buf, id) {
			return false
		}
	}
	if len(t.ids) > 0 {
		return true
	}
	if !c.Present(t.cols[0], r) {
		return false
	}
	x := c.Num(t.cols[0], r)
	return (t.above && x >= t.cut) || (!t.above && x <= t.cut)
}

// Plan is a list of LFs compiled against the schema the column views it votes
// on were opened for.
type Plan struct {
	Names []string // the LFs' names in column order: a Matrix's Names
	tests []test
}

// Compile resolves lfs against schema.
func Compile(lfs []*LF, schema *feature.Schema) *Plan {
	p := &Plan{Names: make([]string, len(lfs)), tests: make([]test, len(lfs))}
	for j, l := range lfs {
		p.Names[j], p.tests[j] = l.Name, compile(l, schema)
	}
	return p
}

// voteScratch is how many category IDs of one value a view's vote scratch
// holds before it grows.
const voteScratch = 16

// Vote is the vote kernel: every LF on one chunk of rows rows, read through
// the chunk's column views, consecutive runs of ordinals fanned over cfg's
// workers. The chunk's vote rows, in ordinal order, are appended to
// votes; they are carved from one flat slab with room for one more column,
// which curation keeps through its in-place LF dedupe and fills with the
// propagation LF without reallocating. The second result counts the votes cast.
func (p *Plan) Vote(cfg mapreduce.Config, parts []feature.Columns, rows int, votes [][]int8) ([][]int8, int) {
	n, stride := len(p.tests), len(p.tests)+1
	slab := make([]int8, rows*stride)
	// Each view's scratch for one value's category IDs is carved from one
	// slab; a value with more than voteScratch categories grows its own.
	scratch := make([]uint32, len(parts)*voteScratch)
	cast := make([]int, len(parts))
	mapreduce.ForChunks(cfg, len(parts), 1, func(i, _ int) {
		c, buf := parts[i], scratch[i*voteScratch:i*voteScratch:(i+1)*voteScratch]
		votes := 0
		for j := range p.tests {
			t := &p.tests[j]
			if t.dead {
				continue
			}
			for r, nr := 0, c.Rows(); r < nr; r++ {
				if t.holds(c, r, &buf) {
					slab[c.Ord(r)*stride+j] = t.vote
					votes++
				}
			}
		}
		cast[i] = votes
	})
	total := 0
	for i := 0; i < rows; i++ {
		votes = append(votes, slab[i*stride:i*stride+n:(i+1)*stride])
	}
	for _, c := range cast {
		total += c
	}
	return votes, total
}
