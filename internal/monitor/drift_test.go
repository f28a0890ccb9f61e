package monitor

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"crossmodal/internal/feature"
	"crossmodal/internal/xrand"
)

// window draws n standard-normal samples shifted by mean.
func window(seed int64, n int, mean float64) []float64 {
	rng := xrand.New(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64() + mean
	}
	return out
}

func TestKSStatBounds(t *testing.T) {
	a := window(1, 200, 0)
	if d := KSStat(a, a); d != 0 {
		t.Errorf("KS of a sample against itself = %v, want 0", d)
	}
	// Disjoint supports: empirical CDFs separate completely.
	lo := []float64{1, 2, 3, 4, 5}
	hi := []float64{10, 11, 12, 13, 14}
	if d := KSStat(lo, hi); d != 1 {
		t.Errorf("KS of disjoint samples = %v, want 1", d)
	}
	if d := KSStat(nil, hi); d != 0 {
		t.Errorf("KS with empty sample = %v, want 0", d)
	}
}

func TestKSStatDoesNotMutateInputs(t *testing.T) {
	a := []float64{3, 1, 2}
	b := []float64{5, 4}
	KSStat(a, b)
	if !reflect.DeepEqual(a, []float64{3, 1, 2}) || !reflect.DeepEqual(b, []float64{5, 4}) {
		t.Fatalf("KSStat mutated its inputs: %v %v", a, b)
	}
}

func TestKSPValueSanity(t *testing.T) {
	if p := KSPValue(0, 100, 100); p != 1 {
		t.Errorf("p-value at d=0 = %v, want 1", p)
	}
	if p := KSPValue(1, 300, 300); p > 1e-6 {
		t.Errorf("p-value at d=1 = %v, want ~0", p)
	}
	small := KSPValue(0.5, 300, 300)
	big := KSPValue(0.05, 300, 300)
	if small >= big {
		t.Errorf("p-value not decreasing in d: p(0.5)=%v >= p(0.05)=%v", small, big)
	}
}

func TestPSIIdenticalIsZero(t *testing.T) {
	a := window(7, 500, 0)
	if psi := PSIFromSamples(a, a, 10); psi > 1e-9 {
		t.Errorf("PSI of identical windows = %v, want ~0", psi)
	}
	if psi := PSI([]float64{10, 20, 30}, []float64{10, 20, 30}); psi != 0 {
		t.Errorf("PSI of identical counts = %v, want 0", psi)
	}
}

func TestPSIDetectsMixShift(t *testing.T) {
	ref := window(11, 500, 0)
	cur := window(12, 500, 1.2)
	if psi := PSIFromSamples(ref, cur, 10); psi < 0.25 {
		t.Errorf("PSI of a 1.2σ mean shift = %v, want > 0.25", psi)
	}
}

// TestHistDrift: a pre-binned channel has no KS form (KSP pinned to 1); the
// PSI cut alone decides, as for categorical channels.
func TestHistDrift(t *testing.T) {
	ref := []float64{100, 200, 300}
	if v := HistDrift("h", 600, ref, ref); v.Drifted || v.PSI != 0 || v.KSP != 1 || v.N != 600 || v.Channel != "h" {
		t.Errorf("identical histograms: %+v", v)
	}
	if v := HistDrift("h", 600, ref, []float64{300, 200, 100}); !v.Drifted || v.PSI <= 0.25 {
		t.Errorf("reversed histogram: %+v, want drifted with PSI > 0.25", v)
	}
}

// TestScoreEdges pins the shared score-histogram edges: exactly the
// hundredths 0.05, 0.10, …, 0.95, with no float accumulation error.
func TestScoreEdges(t *testing.T) {
	edges := ScoreEdges()
	if len(edges) != 19 {
		t.Fatalf("%d edges, want 19", len(edges))
	}
	for i, e := range edges {
		if want := float64(5*(i+1)) / 100; e != want {
			t.Errorf("edge %d = %v, want %v", i, e, want)
		}
	}
}

func TestHistEdgesCollapsesTies(t *testing.T) {
	ref := []float64{1, 1, 1, 1, 1, 1, 1, 1, 2, 3}
	edges := HistEdges(ref, 10)
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			t.Fatalf("edges not strictly increasing: %v", edges)
		}
	}
	counts := HistCounts(edges, ref)
	var tot float64
	for _, c := range counts {
		tot += c
	}
	if tot != float64(len(ref)) {
		t.Errorf("counts sum to %v, want %d", tot, len(ref))
	}
}

// The detectors' false-positive rate over 1000 seeded identical-distribution
// windows stays bounded: the loop the lifecycle controller runs must not
// retrain on noise.
func TestNoDriftFalsePositiveRateBounded(t *testing.T) {
	cfg := DriftConfig{}
	fp := 0
	const trials = 1000
	for seed := int64(0); seed < trials; seed++ {
		ref := Snapshot{"x": window(seed*2+1, 300, 0)}
		cur := Snapshot{"x": window(seed*2+2, 300, 0)}
		vs := DetectDrift(cfg, ref, cur)
		if len(vs) != 1 {
			t.Fatalf("got %d verdicts, want 1", len(vs))
		}
		if vs[0].Drifted {
			fp++
		}
	}
	if rate := float64(fp) / trials; rate > 0.02 {
		t.Errorf("false-positive rate %.3f over %d identical windows, want <= 0.02", rate, trials)
	}
}

// A known injected mean shift always trips, for every seed.
func TestInjectedShiftAlwaysDetected(t *testing.T) {
	cfg := DriftConfig{}
	for seed := int64(0); seed < 200; seed++ {
		ref := Snapshot{"x": window(seed*2+1, 300, 0)}
		cur := Snapshot{"x": window(seed*2+2, 300, 1.0)}
		vs := DetectDrift(cfg, ref, cur)
		if !vs[0].Drifted {
			t.Fatalf("seed %d: 1σ mean shift not detected (KS=%.3f p=%.4f PSI=%.3f)",
				seed, vs[0].KS, vs[0].KSP, vs[0].PSI)
		}
	}
}

// A tracker trips only after Consecutive drifted windows, and always within
// them once the shift is sustained.
func TestTrackerTripsWithinConsecutiveWindows(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		tr := NewTracker(DriftConfig{Consecutive: 2})
		tr.SetReference(Snapshot{"x": window(seed*100+1, 300, 0)})

		// One clean window, then a sustained shift.
		if _, tripped := tr.Observe(Snapshot{"x": window(seed*100+2, 300, 0)}); tripped {
			t.Fatalf("seed %d: tripped on a clean window", seed)
		}
		if _, tripped := tr.Observe(Snapshot{"x": window(seed*100+3, 300, 1.0)}); tripped {
			t.Fatalf("seed %d: tripped after a single drifted window with Consecutive=2", seed)
		}
		if _, tripped := tr.Observe(Snapshot{"x": window(seed*100+4, 300, 1.0)}); !tripped {
			t.Fatalf("seed %d: not tripped after 2 consecutive drifted windows", seed)
		}
		if got := tr.TrippedChannels(); len(got) != 1 || got[0] != "x" {
			t.Fatalf("seed %d: tripped channels = %v", seed, got)
		}
	}
}

// TestTrackerMatchesDetectDrift: the tracker does the reference side once,
// at SetReference, and its verdicts are DetectDrift's bit for bit over random
// windows — heavy ties, channels too small to test, channels on one side
// only — and the caller mutating its reference afterwards changes nothing.
func TestTrackerMatchesDetectDrift(t *testing.T) {
	rng := xrand.New(97)
	sample := func(n int) []float64 {
		xs := window(rng.Int63(), n, rng.Float64())
		if rng.Intn(3) == 0 { // ties: round to a coarse grid
			for i := range xs {
				xs[i] = math.Round(xs[i] * 2)
			}
		}
		return xs
	}
	snapshot := func() Snapshot {
		snap := Snapshot{}
		for c := 0; c < 5; c++ {
			if rng.Intn(4) > 0 {
				snap[fmt.Sprintf("ch%d", c)] = sample([]int{0, 1, 20, 49, 50, 80, 300}[rng.Intn(7)])
			}
		}
		return snap
	}
	for trial := 0; trial < 40; trial++ {
		cfg := DriftConfig{MinSamples: []int{0, 1, 30}[trial%3]}
		ref := snapshot()
		kept := Snapshot{}
		for name, r := range ref {
			kept[name] = append([]float64(nil), r...)
		}
		tr := NewTracker(cfg)
		tr.SetReference(ref)
		for name := range ref { // the tracker has read its reference already
			ref[name] = window(rng.Int63(), 60, 3)
		}
		for w := 0; w < 6; w++ {
			cur := snapshot()
			got, _ := tr.Observe(cur)
			want := DetectDrift(cfg, kept, cur)
			if len(got) != len(want) {
				t.Fatalf("trial %d window %d: %d verdicts, DetectDrift %d", trial, w, len(got), len(want))
			}
			for k := range want {
				g, d := got[k], want[k]
				if g.Channel != d.Channel || g.N != d.N || g.Drifted != d.Drifted ||
					math.Float64bits(g.KS) != math.Float64bits(d.KS) ||
					math.Float64bits(g.KSP) != math.Float64bits(d.KSP) ||
					math.Float64bits(g.PSI) != math.Float64bits(d.PSI) {
					t.Fatalf("trial %d window %d: tracker %+v, DetectDrift %+v", trial, w, g, d)
				}
			}
		}
	}
}

func TestTrackerStreakResetsOnCleanWindow(t *testing.T) {
	tr := NewTracker(DriftConfig{Consecutive: 2})
	tr.SetReference(Snapshot{"x": window(1, 300, 0)})
	tr.Observe(Snapshot{"x": window(2, 300, 1.0)}) // streak 1
	tr.Observe(Snapshot{"x": window(3, 300, 0)})   // clean: resets
	if _, tripped := tr.Observe(Snapshot{"x": window(4, 300, 1.0)}); tripped {
		t.Fatal("tripped although the drift streak was broken by a clean window")
	}
}

func TestTrackerExtraVerdictsJoinStreaks(t *testing.T) {
	tr := NewTracker(DriftConfig{Consecutive: 2})
	tr.SetReference(Snapshot{"x": window(1, 300, 0)})
	hist := Verdict{Channel: "scores_hist", PSI: 0.9, Drifted: true}
	clean := Snapshot{"x": window(2, 300, 0)}
	if _, tripped := tr.Observe(clean, hist); tripped {
		t.Fatal("tripped after one extra-verdict window")
	}
	if _, tripped := tr.Observe(Snapshot{"x": window(3, 300, 0)}, hist); !tripped {
		t.Fatal("extra verdicts did not accumulate a streak")
	}
}

// Detection is a pure function of the window snapshots: replaying the same
// windows — in any within-window sample order — yields bit-identical
// verdicts.
func TestDetectDriftBitIdenticalReplay(t *testing.T) {
	cfg := DriftConfig{}
	ref := Snapshot{
		"a": window(21, 300, 0),
		"b": window(22, 300, 0),
	}
	cur := Snapshot{
		"a": window(23, 300, 0.5),
		"b": window(24, 300, 0),
	}
	first := DetectDrift(cfg, ref, cur)

	// Reverse every channel's sample order; multiset semantics must hold.
	shuffled := make(Snapshot, len(cur))
	for name, vals := range cur {
		rev := make([]float64, len(vals))
		for i, v := range vals {
			rev[len(vals)-1-i] = v
		}
		shuffled[name] = rev
	}
	second := DetectDrift(cfg, ref, shuffled)
	third := DetectDrift(cfg, ref, cur)

	for _, replay := range [][]Verdict{second, third} {
		if len(replay) != len(first) {
			t.Fatalf("verdict count changed across replays: %d vs %d", len(replay), len(first))
		}
		for i := range first {
			a, b := first[i], replay[i]
			if a.Channel != b.Channel || a.N != b.N || a.Drifted != b.Drifted ||
				math.Float64bits(a.KS) != math.Float64bits(b.KS) ||
				math.Float64bits(a.KSP) != math.Float64bits(b.KSP) ||
				math.Float64bits(a.PSI) != math.Float64bits(b.PSI) {
				t.Fatalf("verdict %d not bit-identical across replays: %+v vs %+v", i, a, b)
			}
		}
	}
}

func TestDetectDriftSkipsSmallChannels(t *testing.T) {
	ref := Snapshot{"x": window(1, 20, 0)}
	cur := Snapshot{"x": window(2, 20, 5)} // huge shift, tiny window
	vs := DetectDrift(DriftConfig{}, ref, cur)
	if vs[0].Drifted {
		t.Error("drifted on a window below MinSamples")
	}
	if vs[0].KSP != 1 {
		t.Errorf("skipped channel KSP = %v, want 1", vs[0].KSP)
	}
}

func TestNumericSnapshot(t *testing.T) {
	schema := feature.MustSchema(
		feature.Def{Name: "topic", Kind: feature.Categorical, Set: "C", Servable: true},
		feature.Def{Name: "reports", Kind: feature.Numeric, Set: "D", Servable: true},
	)
	var vecs []*feature.Vector
	for i := 0; i < 5; i++ {
		v := feature.NewVector(schema)
		if i < 4 { // one vector leaves the channel missing
			v.MustSet("reports", feature.NumericValue(float64(i)))
		}
		vecs = append(vecs, v)
	}
	snap := NumericSnapshot(vecs)
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d channels, want 1 (numeric only): %v", len(snap), snap)
	}
	if got := snap["reports"]; len(got) != 4 {
		t.Fatalf("reports channel has %d samples, want 4 (missing skipped)", len(got))
	}
	if len(NumericSnapshot(nil)) != 0 {
		t.Error("empty input should give an empty snapshot")
	}
}

// TestNumericSnapshotAllocsPerWindow: channels are windows of one slab, so
// a snapshot's allocations do not grow with the window, and each window is
// capped: appending to one channel leaves the next one's values alone.
func TestNumericSnapshotAllocsPerWindow(t *testing.T) {
	schema := feature.MustSchema(
		feature.Def{Name: "a", Kind: feature.Numeric, Set: "D", Servable: true},
		feature.Def{Name: "topic", Kind: feature.Categorical, Set: "C", Servable: true},
		feature.Def{Name: "b", Kind: feature.Numeric, Set: "D", Servable: true},
	)
	vectors := func(n int) []*feature.Vector {
		vecs := make([]*feature.Vector, n)
		for i := range vecs {
			vecs[i] = feature.NewVector(schema)
			vecs[i].MustSet("a", feature.NumericValue(float64(i)))
			vecs[i].MustSet("b", feature.NumericValue(float64(-i)))
		}
		return vecs
	}
	small, large := vectors(8), vectors(512)
	snap := NumericSnapshot(small)
	b := append([]float64(nil), snap["b"]...)
	_ = append(snap["a"], 99)
	if !reflect.DeepEqual(snap["b"], b) {
		t.Fatalf("appending to channel a moved channel b: %v, was %v", snap["b"], b)
	}
	if raceEnabled {
		t.Skip("the race runtime adds allocations")
	}
	s := testing.AllocsPerRun(10, func() { NumericSnapshot(small) })
	if l := testing.AllocsPerRun(10, func() { NumericSnapshot(large) }); l != s {
		t.Errorf("a 512-vector snapshot allocates %v times, an 8-vector one %v", l, s)
	}
}

func TestSummarize(t *testing.T) {
	vs := []Verdict{{Drifted: true}, {Drifted: false}, {Drifted: true}}
	if got := Summarize(vs); got != "2/3 channels drifted" {
		t.Errorf("Summarize = %q", got)
	}
}

// catWindow draws n single-token observations from a categorical mix given
// as cumulative weights over the token alphabet.
func catWindow(seed int64, n int, tokens []string, weights []float64) map[string]float64 {
	rng := xrand.New(seed)
	var total float64
	for _, w := range weights {
		total += w
	}
	counts := make(map[string]float64)
	for i := 0; i < n; i++ {
		u := rng.Float64() * total
		for j, w := range weights {
			if u -= w; u <= 0 {
				counts[tokens[j]]++
				break
			}
		}
	}
	return counts
}

func TestCatPSIIdenticalAndShifted(t *testing.T) {
	ref := map[string]float64{"a": 400, "b": 300, "c": 200}
	if psi := CatPSI(ref, ref); psi != 0 {
		t.Errorf("PSI of a window against itself = %v, want exactly 0", psi)
	}
	if psi := CatPSI(nil, ref); psi != 0 {
		t.Errorf("PSI with empty reference = %v, want 0", psi)
	}
	flipped := map[string]float64{"a": 200, "b": 300, "c": 400}
	if psi := CatPSI(ref, flipped); psi < 0.1 {
		t.Errorf("PSI under a mass flip = %v, want well above 0", psi)
	}
	// A token the reference never saw lands in the rare bucket and is
	// Laplace-smoothed, not exploded on an epsilon floor.
	novel := map[string]float64{"a": 380, "b": 300, "c": 200, "zzz": 20}
	psi := CatPSI(ref, novel)
	if psi <= 0 || psi > 0.25 {
		t.Errorf("PSI with a small novel token = %v, want small but positive", psi)
	}
}

func TestCatPSIRareCollapse(t *testing.T) {
	// Hundreds of sparse reference categories whose identities churn across
	// windows: per-category PSI would read the churn as drift, the collapsed
	// rare bucket must not.
	ref := map[string]float64{"big": 800}
	cur := map[string]float64{"big": 800}
	for i := 0; i < 200; i++ {
		ref[fmt.Sprintf("r%03d", i)] = 1
		cur[fmt.Sprintf("c%03d", i)] = 1
	}
	if psi := CatPSI(ref, cur); psi > 0.05 {
		t.Errorf("PSI over churning rare categories = %v, want ~0", psi)
	}
}

func TestCatPSIPure(t *testing.T) {
	ref := map[string]float64{"a": 100, "b": 3}
	cur := map[string]float64{"a": 80, "c": 25}
	refCopy := map[string]float64{"a": 100, "b": 3}
	curCopy := map[string]float64{"a": 80, "c": 25}
	p1 := CatPSI(ref, cur)
	p2 := CatPSI(ref, cur)
	if p1 != p2 {
		t.Errorf("CatPSI not deterministic: %v then %v", p1, p2)
	}
	if !reflect.DeepEqual(ref, refCopy) || !reflect.DeepEqual(cur, curCopy) {
		t.Errorf("CatPSI mutated its inputs: %v %v", ref, cur)
	}
}

func TestCategoricalSnapshot(t *testing.T) {
	schema := feature.MustSchema(
		feature.Def{Name: "topic", Kind: feature.Categorical, Set: "C", Servable: true},
		feature.Def{Name: "tags", Kind: feature.Categorical, Set: "C", Servable: true},
		feature.Def{Name: "reports", Kind: feature.Numeric, Set: "D", Servable: true},
	)
	var vecs []*feature.Vector
	for i := 0; i < 6; i++ {
		v := feature.NewVector(schema)
		v.MustSet("reports", feature.NumericValue(1))
		if i < 4 {
			v.MustSet("topic", feature.CategoricalValue("news"))
		} else if i == 4 {
			v.MustSet("topic", feature.CategoricalValue("sports", "news"))
		} // i == 5 leaves topic missing; tags never set
		vecs = append(vecs, v)
	}
	snap := CategoricalSnapshot(vecs)
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d channels, want 1 (tokenless and numeric omitted): %v", len(snap), snap)
	}
	topic := snap["topic"]
	if topic["news"] != 5 || topic["sports"] != 1 {
		t.Errorf("topic counts = %v, want news:5 sports:1", topic)
	}
	if len(CategoricalSnapshot(nil)) != 0 {
		t.Error("empty input should give an empty snapshot")
	}
}

func TestDetectCategoricalDriftTripsOnMixShift(t *testing.T) {
	tokens := []string{"a", "b", "c", "d"}
	cfg := DriftConfig{}
	ref := CatSnapshot{"topic": catWindow(1, 800, tokens, []float64{4, 3, 2, 1})}
	same := CatSnapshot{"topic": catWindow(2, 800, tokens, []float64{4, 3, 2, 1})}
	shifted := CatSnapshot{"topic": catWindow(3, 800, tokens, []float64{1, 2, 3, 4})}

	vs := DetectCategoricalDrift(cfg, ref, same)
	if len(vs) != 1 || vs[0].Drifted {
		t.Fatalf("same-distribution window flagged: %+v", vs)
	}
	if vs[0].KSP != 1 {
		t.Errorf("categorical verdict KSP = %v, want pinned 1", vs[0].KSP)
	}
	vs = DetectCategoricalDrift(cfg, ref, shifted)
	if len(vs) != 1 || !vs[0].Drifted {
		t.Fatalf("mix flip not flagged: %+v", vs)
	}
}

func TestDetectCategoricalDriftGates(t *testing.T) {
	cfg := DriftConfig{}
	// Under MinSamples on either side: verdict is emitted but never drifts.
	tiny := CatSnapshot{"topic": {"a": 3, "b": 2}}
	big := CatSnapshot{"topic": {"a": 500, "b": 10}}
	for _, pair := range [][2]CatSnapshot{{tiny, big}, {big, tiny}} {
		vs := DetectCategoricalDrift(cfg, pair[0], pair[1])
		if len(vs) != 1 || vs[0].Drifted || vs[0].PSI != 0 {
			t.Errorf("undersized window produced %+v, want quiet verdict", vs)
		}
	}
	// Channels missing from either side are skipped; order is sorted.
	ref := CatSnapshot{"b": {"x": 100}, "a": {"x": 100}, "refonly": {"x": 100}}
	cur := CatSnapshot{"a": {"x": 100}, "b": {"x": 100}, "curonly": {"x": 100}}
	vs := DetectCategoricalDrift(cfg, ref, cur)
	if len(vs) != 2 || vs[0].Channel != "a" || vs[1].Channel != "b" {
		t.Fatalf("verdicts = %+v, want sorted [a b]", vs)
	}
}
