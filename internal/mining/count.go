package mining

import (
	"context"
	"slices"

	"crossmodal/internal/feature"
	"crossmodal/internal/mapreduce"
	"crossmodal/internal/trace"
)

// counter is one counting ColumnScan — the counting kernel.
// The first scan of a run counts every (categorical column, intern ID) per
// class and observes the numeric columns; an Apriori re-scan counts explicit
// candidate itemsets within one class. The columns are the parallel unit:
// each column's task alone writes that column's tables, so nothing is merged
// and the result depends on neither the workers nor where chunks break.
type counter struct {
	cfg       mapreduce.Config
	schema    *feature.Schema
	order1    bool          // count every category of every categorical column
	observe   bool          // collect the numeric columns' observations
	cands     [][]candidate // per column: the candidate itemsets to count
	candClass int           // the class (0 negative, 1 positive) they are counted in

	rows      [2]int     // rows per class
	count1    [2][][]int // [class][column][intern ID], grown on demand
	candCount []int      // per candidate idx
	observed  [][]numObs // per column, in corpus order
	bufs      [][]uint32 // per-column scratch: a value's category IDs
}

// candidate is one itemset of a column as intern IDs; idx keys candCount.
type candidate struct {
	ids []uint32
	idx int
}

// scan runs the counter over corpus.
func (k *counter) scan(ctx context.Context, corpus ColumnScan) error {
	n := k.schema.Len()
	k.count1[0], k.count1[1] = make([][]int, n), make([][]int, n)
	k.observed, k.bufs = make([][]numObs, n), make([][]uint32, n)
	return corpus(ctx, func(labels []int8, parts []feature.Columns) error {
		for _, l := range labels {
			k.rows[class(l)]++
		}
		mapreduce.ForChunks(k.cfg, n, 1, func(col, _ int) {
			switch kind := k.schema.Def(col).Kind; {
			case kind == feature.Categorical && (k.order1 || len(k.cands[col]) > 0):
				k.countColumn(col, labels, parts)
			case kind == feature.Numeric && k.observe:
				k.observeColumn(col, labels, parts)
			}
		})
		trace.Count(ctx, "rows", int64(len(labels)))
		trace.Count(ctx, "views", int64(len(parts)))
		return nil
	})
}

func class(label int8) int {
	if label > 0 {
		return 1
	}
	return 0
}

// countColumn adds one chunk of categorical column col to its tables. A
// category repeated within a row counts once; a missing value has none.
func (k *counter) countColumn(col int, labels []int8, parts []feature.Columns) {
	buf := k.bufs[col]
	for _, c := range parts {
		for r, n := 0, c.Rows(); r < n; r++ {
			buf = c.CatIDs(col, r, buf[:0])
			cls := class(labels[c.Ord(r)])
			for i, id := range buf {
				if !k.order1 || slices.Contains(buf[:i], id) {
					continue // a candidate pass, or a repeat within the row
				}
				tbl := k.count1[cls][col]
				if int(id) >= len(tbl) {
					tbl = append(tbl, make([]int, int(id)+1-len(tbl))...)
					k.count1[cls][col] = tbl
				}
				tbl[id]++
			}
			for _, cd := range k.cands[col] {
				if cls == k.candClass && containsAll(buf, cd.ids) {
					k.candCount[cd.idx]++
				}
			}
		}
	}
	k.bufs[col] = buf
}

func containsAll(have, ids []uint32) bool {
	for _, id := range ids {
		if !slices.Contains(have, id) {
			return false
		}
	}
	return true
}

// observeColumn appends one chunk of numeric column col to its
// observations, grown once to the chunk's present count. The views are
// consecutive runs of the chunk, so reading them in order is corpus order.
func (k *counter) observeColumn(col int, labels []int8, parts []feature.Columns) {
	present := 0
	for _, c := range parts {
		for r, n := 0, c.Rows(); r < n; r++ {
			if c.Present(col, r) {
				present++
			}
		}
	}
	obs := slices.Grow(k.observed[col], present)
	for _, c := range parts {
		for r, n := 0, c.Rows(); r < n; r++ {
			if c.Present(col, r) {
				obs = append(obs, numObs{c.Num(col, r), labels[c.Ord(r)]})
			}
		}
	}
	k.observed[col] = obs
}

// order1Keys turns one class's order-1 tables into the miner's "feat|cat" keys.
func (k *counter) order1Keys(cls int) map[string]int {
	out := make(map[string]int)
	for col, tbl := range k.count1[cls] {
		for id, n := range tbl {
			if n > 0 {
				out[itemset{k.schema.Def(col).Name, []string{feature.InternedCategory(uint32(id))}}.key()] = n
			}
		}
	}
	return out
}
