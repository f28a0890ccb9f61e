package labelprop

import (
	"context"
	"fmt"
	"math"
	"sort"

	"crossmodal/internal/mapreduce"
	"crossmodal/internal/trace"
)

// PropConfig controls the propagation iteration.
type PropConfig struct {
	// Prior is the resting score of vertices with no labeled influence,
	// typically the class base rate (default 0.5).
	Prior float64

	// maxIters bounds Jacobi iterations (default 50); tol stops iteration
	// when the largest score change falls below it (default 1e-4); shards
	// is the number of parallel shards per iteration — the "streaming,
	// distributed" Expander execution mode on goroutines (default 4). Only
	// this package's tests set them.
	maxIters int
	tol      float64
	shards   int
}

func (c PropConfig) withDefaults() PropConfig {
	if c.maxIters <= 0 {
		c.maxIters = 50
	}
	if c.tol <= 0 {
		c.tol = 1e-4
	}
	if c.Prior <= 0 || c.Prior >= 1 {
		c.Prior = 0.5
	}
	if c.shards <= 0 {
		c.shards = 4
	}
	return c
}

// Result holds converged propagation scores.
type Result struct {
	// Scores[i] is vertex i's propagated probability of being positive;
	// seed vertices keep their seed value (the Zhu–Ghahramani clamp).
	Scores []float64
	// Reached[i] reports whether any labeled influence arrived at vertex
	// i (unreached vertices sit at the prior and carry no information).
	Reached []bool
	// Iters is the number of iterations run.
	Iters int
}

// Propagate runs clamped label propagation: seeds maps vertex index to its
// fixed label score in [0,1] (1 = positive, 0 = negative); every other
// vertex converges to the weighted average of its neighbors.
func Propagate(ctx context.Context, g *Graph, seeds map[int]float64, cfg PropConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	n := g.NumVertices()
	if n == 0 {
		return nil, fmt.Errorf("labelprop: empty graph")
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("labelprop: no seed labels")
	}
	ctx, span := trace.Start(ctx, "labelprop.propagate")
	defer span.End()
	span.SetInt("vertices", int64(n))
	span.SetInt("seeds", int64(len(seeds)))
	for v, s := range seeds {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("labelprop: seed vertex %d out of range [0,%d)", v, n)
		}
		if s < 0 || s > 1 {
			return nil, fmt.Errorf("labelprop: seed score %v for vertex %d out of [0,1]", s, v)
		}
	}

	cur := make([]float64, n)
	next := make([]float64, n)
	reached := make([]bool, n)
	// Seed membership hoisted out of the Jacobi inner loop: isSeed[i]
	// replaces a per-vertex-per-iteration map lookup.
	isSeed := make([]bool, n)
	for i := range cur {
		cur[i] = cfg.Prior
	}
	for v, s := range seeds {
		cur[v] = s
		reached[v] = true
		isSeed[v] = true
	}
	// Unreached vertices in ascending order; the frontier scan compacts this
	// list instead of rescanning all n vertices every iteration.
	unreached := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if !reached[i] {
			unreached = append(unreached, i)
		}
	}

	// Shard vertices for parallel Jacobi sweeps.
	shardIDs := make([]int, cfg.shards)
	for s := range shardIDs {
		shardIDs[s] = s
	}
	res := &Result{}
	for iter := 1; iter <= cfg.maxIters; iter++ {
		res.Iters = iter
		deltas, err := mapreduce.Map(ctx, mapreduce.Config{Workers: cfg.shards}, shardIDs, func(s int) (float64, error) {
			var maxDelta float64
			for i := s; i < n; i += cfg.shards {
				if isSeed[i] {
					next[i] = cur[i]
					continue
				}
				var num, den float64
				hit := false
				for _, e := range g.Neighbors(i) {
					if reached[e.To] {
						num += float64(e.Weight * cur[e.To])
						den += e.Weight
						hit = true
					}
				}
				if !hit {
					next[i] = cfg.Prior
					continue
				}
				next[i] = num / den
				if d := math.Abs(next[i] - cur[i]); d > maxDelta {
					maxDelta = d
				}
			}
			return maxDelta, nil
		})
		if err != nil {
			return nil, err
		}
		// Mark newly reached vertices after the sweep (frontier grows one
		// hop per iteration). The scan walks only still-unreached vertices,
		// in ascending order with reached updated live — exactly the order
		// a full 0..n-1 sweep would visit them — and compacts survivors in
		// place.
		newlyReached := false
		remaining := unreached[:0]
		for _, i := range unreached {
			hit := false
			for _, e := range g.Neighbors(i) {
				if reached[e.To] {
					hit = true
					break
				}
			}
			if hit {
				reached[i] = true
				newlyReached = true
			} else {
				remaining = append(remaining, i)
			}
		}
		unreached = remaining
		cur, next = next, cur
		var maxDelta float64
		for _, d := range deltas {
			if d > maxDelta {
				maxDelta = d
			}
		}
		if maxDelta < cfg.tol && !newlyReached {
			break
		}
	}
	res.Scores = cur
	res.Reached = reached
	span.SetInt("iters", int64(res.Iters))
	return res, nil
}

// Cuts are score thresholds turning propagation scores into LF votes:
// score >= Pos votes positive, score <= Neg votes negative.
type Cuts struct {
	Pos, Neg float64
}

// ChooseCuts tunes vote thresholds on held-out labeled scores (the paper
// tunes against the old-modality development set): Pos is the lowest score
// whose precision over dev positives reaches posPrecision, Neg the highest
// score whose precision over dev negatives reaches negPrecision. When no
// threshold reaches the target the corresponding cut degrades to the best
// achievable one.
func ChooseCuts(scores []float64, labels []int8, posPrecision, negPrecision float64) (Cuts, error) {
	if len(scores) != len(labels) {
		return Cuts{}, fmt.Errorf("labelprop: %d scores vs %d labels", len(scores), len(labels))
	}
	if len(scores) == 0 {
		return Cuts{}, fmt.Errorf("labelprop: no dev scores")
	}
	type pair struct {
		s float64
		l int8
	}
	pairs := make([]pair, len(scores))
	for i := range scores {
		pairs[i] = pair{scores[i], labels[i]}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].s > pairs[b].s })

	cuts := Cuts{Pos: math.Inf(1), Neg: math.Inf(-1)}
	// Descending sweep for the positive cut.
	bestPrec, pos := -1.0, 0
	bestCut := pairs[0].s
	for i, p := range pairs {
		if p.l > 0 {
			pos++
		}
		prec := float64(pos) / float64(i+1)
		if prec > bestPrec {
			bestPrec, bestCut = prec, p.s
		}
		if prec >= posPrecision && pos > 0 {
			cuts.Pos = p.s
		}
	}
	if math.IsInf(cuts.Pos, 1) {
		cuts.Pos = bestCut
	}
	// Ascending sweep for the negative cut.
	bestPrec, neg := -1.0, 0
	bestCut = pairs[len(pairs)-1].s
	for i := len(pairs) - 1; i >= 0; i-- {
		p := pairs[i]
		if p.l < 0 {
			neg++
		}
		prec := float64(neg) / float64(len(pairs)-i)
		if prec > bestPrec {
			bestPrec, bestCut = prec, p.s
		}
		if prec >= negPrecision && neg > 0 {
			cuts.Neg = p.s
		}
	}
	if math.IsInf(cuts.Neg, -1) {
		cuts.Neg = bestCut
	}
	if cuts.Neg >= cuts.Pos {
		// Degenerate overlap: separate the cuts at their midpoint so the
		// LF never votes both ways.
		mid := (cuts.Neg + cuts.Pos) / 2
		cuts.Pos = math.Nextafter(mid, math.Inf(1))
		cuts.Neg = math.Nextafter(mid, math.Inf(-1))
	}
	return cuts, nil
}
