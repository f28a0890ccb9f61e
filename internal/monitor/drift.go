package monitor

// Serving-time drift detection: two-sample Kolmogorov–Smirnov tests and the
// Population Stability Index over windowed snapshots of served feature
// vectors and model scores. The paper's deployment setting (§2.4, and the
// Drybell/TFX story it builds on) treats distribution shift as the normal
// operating condition; these detectors are the trigger that turns the static
// pipeline into the closed loop internal/lifecycle drives.
//
// Everything here is a pure function of its window snapshots: no clocks, no
// global state, order-insensitive within a window (samples are sorted or
// binned before comparison). The same pair of snapshots always yields the
// same verdicts bit for bit — the property the lifecycle golden test and the
// detector property suite depend on.

import (
	"fmt"
	"math"
	"sort"

	"crossmodal/internal/feature"
)

// Snapshot is one observation window: named channels (feature columns,
// score streams) mapped to their raw sampled values. Sample order within a
// channel carries no meaning.
type Snapshot map[string][]float64

// NumericSnapshot collects every non-missing numeric channel of vecs into a
// snapshot keyed by feature name. Vectors must share a schema. Every channel
// is a window of one slab, capped at len(vecs), so filling one never grows
// into the next.
func NumericSnapshot(vecs []*feature.Vector) Snapshot {
	if len(vecs) == 0 {
		return make(Snapshot)
	}
	schema := vecs[0].Schema()
	numeric := 0
	for i := 0; i < schema.Len(); i++ {
		if schema.Def(i).Kind == feature.Numeric {
			numeric++
		}
	}
	snap := make(Snapshot, numeric)
	slab := make([]float64, numeric*len(vecs))
	for i := 0; i < schema.Len(); i++ {
		d := schema.Def(i)
		if d.Kind != feature.Numeric {
			continue
		}
		vals := slab[:0:len(vecs)]
		slab = slab[len(vecs):]
		for _, v := range vecs {
			if v.Present(i) {
				vals = append(vals, v.Num(i))
			}
		}
		if len(vals) > 0 {
			snap[d.Name] = vals
		}
	}
	return snap
}

// CatSnapshot is one observation window over categorical channels: channel
// name → category token → occurrence count. Counts, not samples, because a
// categorical feature is a set-valued observation and only its token
// frequencies are comparable across windows.
type CatSnapshot map[string]map[string]float64

// CategoricalSnapshot counts every category token of every non-missing
// categorical channel of vecs, keyed by feature name. Vectors must share a
// schema. Channels with no observed tokens are omitted. Tokens are counted
// by intern ID; each distinct one is named once, at the end.
func CategoricalSnapshot(vecs []*feature.Vector) CatSnapshot {
	snap := make(CatSnapshot)
	if len(vecs) == 0 {
		return snap
	}
	schema := vecs[0].Schema()
	byID := make(map[uint32]float64)
	for i := 0; i < schema.Len(); i++ {
		d := schema.Def(i)
		if d.Kind != feature.Categorical {
			continue
		}
		clear(byID)
		for _, v := range vecs {
			for _, id := range v.CategoryList(i) {
				byID[id]++
			}
		}
		if len(byID) == 0 {
			continue
		}
		counts := make(map[string]float64, len(byID))
		for id, n := range byID {
			counts[feature.InternedCategory(id)] = n
		}
		snap[d.Name] = counts
	}
	return snap
}

// CatPSI returns the PSI between two category frequency maps. Categories
// rare in the reference (count < 10) are collapsed into one bucket — PSI over
// hundreds of sparse categories measures sampling noise, not shift — and
// both sides are Laplace-smoothed so a token new to either window
// contributes in proportion to its mass instead of exploding on an epsilon
// floor. Order-independent and pure.
func CatPSI(ref, cur map[string]float64) float64 {
	if len(ref) == 0 || len(cur) == 0 {
		return 0
	}
	const (
		rareMin = 10
		pseudo  = 0.5
	)
	bucket := func(cat string) string {
		if ref[cat] < rareMin {
			return "\x00rare" // no service emits NUL-prefixed category names
		}
		return cat
	}
	refB := make(map[string]float64, len(ref))
	curB := make(map[string]float64, len(cur))
	seen := make(map[string]bool, len(ref)+len(cur))
	var union []string
	for cat, n := range ref {
		b := bucket(cat)
		refB[b] += n
		if !seen[b] {
			seen[b] = true
			union = append(union, b)
		}
	}
	for cat, n := range cur {
		b := bucket(cat)
		curB[b] += n
		if !seen[b] {
			seen[b] = true
			union = append(union, b)
		}
	}
	sort.Strings(union)
	var refTot, curTot float64
	for _, b := range union {
		refTot += refB[b] + pseudo
		curTot += curB[b] + pseudo
	}
	var psi float64
	for _, b := range union {
		p := (refB[b] + pseudo) / refTot
		q := (curB[b] + pseudo) / curTot
		psi += (q - p) * math.Log(q/p)
	}
	return psi
}

// DetectCategoricalDrift compares current categorical frequencies against
// the reference, one verdict per channel present in both, in channel-name
// order. KS does not apply to unordered categories, so KSP is pinned to 1
// and the PSI threshold alone decides. Pure, like DetectDrift.
func DetectCategoricalDrift(_ DriftConfig, ref, cur CatSnapshot) []Verdict {
	names := make([]string, 0, len(cur))
	for name := range cur {
		if _, ok := ref[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	verdicts := make([]Verdict, 0, len(names))
	for _, name := range names {
		var refTot, curTot float64
		for _, n := range ref[name] {
			refTot += n
		}
		for _, n := range cur[name] {
			curTot += n
		}
		v := Verdict{Channel: name, N: int(curTot), KSP: 1}
		if int(refTot) >= minSamples && int(curTot) >= minSamples {
			v.PSI = CatPSI(ref[name], cur[name])
			v.Drifted = v.PSI > psiThreshold
		}
		verdicts = append(verdicts, v)
	}
	return verdicts
}

// HistDrift is the verdict for a channel that arrives already binned (ref
// and cur are per-bucket counts over the same edges, n the current window's
// sample count): like a categorical channel, the PSI threshold alone decides.
func HistDrift(channel string, n int, ref, cur []float64) Verdict {
	psi := PSI(ref, cur)
	return Verdict{Channel: channel, N: n, KSP: 1, PSI: psi, Drifted: psi > psiThreshold}
}

const (
	// ksAlpha is the significance level of the KS test: a channel drifts
	// when the asymptotic p-value of its KS statistic falls below it
	// (conservative, because many channels are tested per window).
	ksAlpha = 0.005
	// psiThreshold flags a channel when its PSI against the reference window
	// exceeds it (the conventional "significant shift" cut).
	psiThreshold = 0.25
	// psiBins is the histogram resolution for PSI, with edges at reference
	// quantiles.
	psiBins = 10
	// minSamples skips channels with fewer samples than this on either
	// side: tiny windows make both tests meaningless.
	minSamples = 50
	// consecutive is how many successive drifted windows a channel needs
	// before a Tracker trips: a single odd window self-heals.
	consecutive = 2
)

// DriftConfig selects nothing: the detectors' sample floor and the
// Tracker's streak length are the constants minSamples and consecutive. It
// is kept because bench/ passes DriftConfig{} (ROADMAP item 2).
type DriftConfig struct{}

// Verdict is one channel's drift decision for one window.
type Verdict struct {
	Channel string  `json:"channel"`
	N       int     `json:"n"` // current-window sample count
	KS      float64 `json:"ks"`
	KSP     float64 `json:"ksp"` // asymptotic p-value of KS
	PSI     float64 `json:"psi"`
	Drifted bool    `json:"drifted"`
}

// sortedCopy returns xs sorted ascending, leaving xs as it was.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ksSorted returns the two-sample Kolmogorov–Smirnov statistic of two
// non-empty samples sorted ascending: the maximum distance between their
// empirical CDFs.
func ksSorted(sa, sb []float64) float64 {
	var i, j int
	var d float64
	na, nb := float64(len(sa)), float64(len(sb))
	for i < len(sa) && j < len(sb) {
		x := sa[i]
		if sb[j] < x {
			x = sb[j]
		}
		for i < len(sa) && sa[i] <= x {
			i++
		}
		for j < len(sb) && sb[j] <= x {
			j++
		}
		if diff := math.Abs(float64(i)/na - float64(j)/nb); diff > d {
			d = diff
		}
	}
	return d
}

// KSPValue returns the asymptotic p-value of a two-sample KS statistic d at
// sample sizes na and nb, via the Kolmogorov distribution with the
// Stephens small-sample correction. Accurate enough for thresholding at
// conventional alphas; exact tables are unnecessary at serving window sizes.
func KSPValue(d float64, na, nb int) float64 {
	if na <= 0 || nb <= 0 || d <= 0 {
		return 1
	}
	ne := float64(na) * float64(nb) / float64(na+nb)
	sq := math.Sqrt(ne)
	lambda := (sq + 0.12 + 0.11/sq) * d
	if lambda < 1e-9 {
		return 1
	}
	// Q(λ) = 2 Σ_{k≥1} (-1)^{k-1} exp(-2 k² λ²); terms decay fast.
	var sum float64
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := math.Exp(-2 * float64(k*k) * lambda * lambda)
		sum += sign * term
		if term < 1e-12 {
			break
		}
		sign = -sign
	}
	p := 2 * sum
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return p
}

// edgesSorted returns bins-1 interior cut points at the quantiles of a
// non-empty reference sorted ascending, for binning both windows on the
// reference distribution's own scale. Duplicate cuts (heavy ties) are
// collapsed.
func edgesSorted(sorted []float64, bins int) []float64 {
	var edges []float64
	for k := 1; k < bins; k++ {
		cut := sorted[len(sorted)*k/bins]
		if len(edges) == 0 || cut > edges[len(edges)-1] {
			edges = append(edges, cut)
		}
	}
	return edges
}

// ScoreEdges returns the nineteen 0.05-wide score-histogram edges 0.05 …
// 0.95: fine enough for PSI over a score distribution, coarse enough to
// bin per request. The server's serve_scores histogram and the lifecycle
// controller's score channel both bin on them.
func ScoreEdges() []float64 {
	var e []float64
	for x := 0.05; x < 0.999; x += 0.05 {
		e = append(e, math.Round(x*100)/100)
	}
	return e
}

// HistCounts bins xs by edges (len(edges)+1 buckets; bucket i holds values
// in (edges[i-1], edges[i]]).
func HistCounts(edges, xs []float64) []float64 {
	counts := make([]float64, len(edges)+1)
	for _, x := range xs {
		i := sort.SearchFloat64s(edges, x)
		// SearchFloat64s finds the first edge >= x; values equal to an edge
		// belong to that edge's bucket.
		counts[i]++
	}
	return counts
}

// PSI returns the Population Stability Index between two aligned count
// vectors: Σ (pᵢ−qᵢ)·ln(pᵢ/qᵢ) over normalized proportions, with epsilon
// smoothing so empty buckets stay finite. By convention <0.1 is stable,
// 0.1–0.25 moderate, >0.25 a significant shift.
func PSI(refCounts, curCounts []float64) float64 {
	if len(refCounts) != len(curCounts) || len(refCounts) == 0 {
		return 0
	}
	const eps = 1e-6
	var refTot, curTot float64
	for i := range refCounts {
		refTot += refCounts[i]
		curTot += curCounts[i]
	}
	if refTot == 0 || curTot == 0 {
		return 0
	}
	var psi float64
	for i := range refCounts {
		p := math.Max(refCounts[i]/refTot, eps)
		q := math.Max(curCounts[i]/curTot, eps)
		psi += (q - p) * math.Log(q/p)
	}
	return psi
}

// DetectDrift compares the current window against the reference window
// channel by channel and returns a verdict per channel present in both, in
// channel-name order. A channel drifts when the KS test rejects at ksAlpha
// or the PSI exceeds psiThreshold. Pure: the same (ref, cur) always
// returns the same verdicts.
func DetectDrift(_ DriftConfig, ref, cur Snapshot) []Verdict {
	refs := make(map[string]*refChannel, len(ref))
	for name, r := range ref {
		if _, ok := cur[name]; ok {
			refs[name] = newRefChannel(r)
		}
	}
	return detect(refs, cur)
}

// refChannel is the reference-side work of one channel's tests: its sample
// sorted, its PSI edges and its counts over them.
type refChannel struct {
	n      int
	sorted []float64
	edges  []float64
	counts []float64
}

// newRefChannel does r's side of the tests; a sample under minSamples is
// never tested, so only its size is kept.
func newRefChannel(r []float64) *refChannel {
	rc := &refChannel{n: len(r)}
	if len(r) >= minSamples {
		rc.sorted = sortedCopy(r)
		rc.edges = edgesSorted(rc.sorted, psiBins)
		rc.counts = HistCounts(rc.edges, r)
	}
	return rc
}

// detect is DetectDrift over reference channels newRefChannel already
// sorted and binned, so a Tracker scores every window without doing the
// reference side again.
func detect(refs map[string]*refChannel, cur Snapshot) []Verdict {
	names := make([]string, 0, len(cur))
	for name := range cur {
		if _, ok := refs[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	verdicts := make([]Verdict, 0, len(names))
	var sorted []float64
	for _, name := range names {
		r, c := refs[name], cur[name]
		v := Verdict{Channel: name, N: len(c)}
		if r.n >= minSamples && len(c) >= minSamples {
			sorted = append(sorted[:0], c...) // minSamples >= 1: neither side is empty
			sort.Float64s(sorted)
			v.KS = ksSorted(r.sorted, sorted)
			v.KSP = KSPValue(v.KS, r.n, len(c))
			if len(r.edges) > 0 {
				v.PSI = PSI(r.counts, HistCounts(r.edges, c))
			}
			v.Drifted = v.KSP < ksAlpha || v.PSI > psiThreshold
		} else {
			v.KSP = 1
		}
		verdicts = append(verdicts, v)
	}
	return verdicts
}

// Tracker accumulates per-channel drift streaks across windows against a
// fixed reference snapshot. It trips when any channel drifts consecutive
// windows in a row — one noisy window self-heals, a sustained shift does
// not. Not safe for concurrent use.
type Tracker struct {
	ref    map[string]*refChannel // nil until SetReference
	streak map[string]int
}

// NewTracker builds a tracker; call SetReference before Observe.
func NewTracker(DriftConfig) *Tracker {
	return &Tracker{streak: make(map[string]int)}
}

// SetReference installs the baseline window and clears all streaks. It reads
// ref once, sorting and binning each channel, so every Observe repeats only
// the current window's side of DetectDrift.
func (t *Tracker) SetReference(ref Snapshot) {
	t.ref = nil
	if ref != nil {
		t.ref = make(map[string]*refChannel, len(ref))
		for name, r := range ref {
			t.ref[name] = newRefChannel(r)
		}
	}
	t.streak = make(map[string]int)
}

// Observe scores one window against the reference, with DetectDrift's
// verdicts. extra verdicts (e.g. computed from a serving-metrics histogram
// rather than raw samples) join streak tracking under their own channel
// names. Returns all verdicts and
// whether any channel's streak has reached consecutive.
func (t *Tracker) Observe(cur Snapshot, extra ...Verdict) ([]Verdict, bool) {
	if t.ref == nil {
		panic("monitor: Tracker.Observe before SetReference")
	}
	verdicts := detect(t.ref, cur)
	verdicts = append(verdicts, extra...)
	tripped := false
	for _, v := range verdicts {
		if v.Drifted {
			t.streak[v.Channel]++
			if t.streak[v.Channel] >= consecutive {
				tripped = true
			}
		} else {
			delete(t.streak, v.Channel)
		}
	}
	return verdicts, tripped
}

// TrippedChannels returns the channels at or past the consecutive
// threshold, sorted.
func (t *Tracker) TrippedChannels() []string {
	var out []string
	for name, n := range t.streak {
		if n >= consecutive {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Summarize formats a verdict set compactly for event logs.
func Summarize(vs []Verdict) string {
	drifted := 0
	for _, v := range vs {
		if v.Drifted {
			drifted++
		}
	}
	return fmt.Sprintf("%d/%d channels drifted", drifted, len(vs))
}
