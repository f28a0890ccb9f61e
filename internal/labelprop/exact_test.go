package labelprop

import (
	"maps"
	"slices"

	"crossmodal/internal/feature"
)

// exactGraph is the exact kNN graph over vecs, the reference for tests that
// need one: score every pair with feature.WeightedSimilarity, keep weights
// >= MinWeight, sort each vertex's list by rankEdges, truncate to K, then
// symmetrize. It is what the Builder computes when every pair is a
// candidate, by brute force.
func exactGraph(cfg GraphConfig, vecs []*feature.Vector, scales feature.Scales) *Graph {
	cfg = cfg.withDefaults()
	directed := make([][]Edge, len(vecs))
	for i := range vecs {
		var es []Edge
		for j := range vecs {
			if w := feature.WeightedSimilarity(vecs[i], vecs[j], scales, cfg.Weights); j != i && w >= cfg.MinWeight {
				es = append(es, Edge{To: j, Weight: w})
			}
		}
		slices.SortFunc(es, rankEdges)
		directed[i] = es[:min(len(es), cfg.K)]
	}
	return graphOf(directed)
}

// oneBlock makes every pair a candidate: it reprojects vecs into their
// schema plus a categorical "block" that every vertex carries with the same
// value, and returns cfg blocked on it with the candidate cap lifted and the
// feature weighted out of the kernel. A Builder over the result computes
// exactGraph(cfg, vecs), and exactGraph over the result does too.
func oneBlock(cfg GraphConfig, vecs []*feature.Vector) (GraphConfig, []*feature.Vector) {
	s := vecs[0].Schema()
	defs := make([]feature.Def, s.Len(), s.Len()+1)
	for i := range defs {
		defs[i] = s.Def(i)
	}
	blocked := feature.MustSchema(append(defs, feature.Def{Name: "block", Kind: feature.Categorical})...)
	out := make([]*feature.Vector, len(vecs))
	for i, v := range vecs {
		out[i] = v.Reproject(blocked)
		out[i].MustSet("block", feature.CategoricalValue("all"))
	}
	cfg.BlockFeatures = []string{"block"}
	cfg.MaxCandidates = len(vecs)
	cfg.Weights = maps.Clone(cfg.Weights)
	if cfg.Weights == nil {
		cfg.Weights = feature.Weights{}
	}
	cfg.Weights["block"] = 0
	return cfg, out
}
