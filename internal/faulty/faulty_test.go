package faulty

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"crossmodal/internal/feature"
	"crossmodal/internal/mapreduce"
	"crossmodal/internal/resource"
	"crossmodal/internal/synth"
)

func testLibrary(t *testing.T) *resource.Library {
	t.Helper()
	w := synth.MustWorld(synth.DefaultConfig())
	lib, err := resource.StandardLibrary(w)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func testPoints(t *testing.T, lib *resource.Library, n int) []*synth.Point {
	t.Helper()
	task, _ := synth.TaskByName("CT1")
	ds, err := synth.BuildDataset(lib.World(), task, synth.DatasetConfig{
		Seed: 11, NumText: n, NumUnlabeledImage: n, NumHandLabelPool: 1, NumTest: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return append(ds.LabeledText, ds.UnlabeledImage...)
}

// quiet is a fast retry policy for tests: no real sleeping, no breaker.
func quiet() resource.Policy {
	return resource.Policy{
		MaxAttempts:      3,
		BreakerThreshold: -1,
		Sleep:            func(time.Duration) {},
	}
}

// vectorsEqual compares two vectors feature by feature, bit for bit.
func vectorsEqual(t *testing.T, schema *feature.Schema, a, b *feature.Vector) bool {
	t.Helper()
	for i := 0; i < schema.Len(); i++ {
		va, vb := a.At(i), b.At(i)
		if va.Missing != vb.Missing || va.Num != vb.Num ||
			len(va.Categories) != len(vb.Categories) || len(va.Vec) != len(vb.Vec) {
			return false
		}
		for j := range va.Categories {
			if va.Categories[j] != vb.Categories[j] {
				return false
			}
		}
		for j := range va.Vec {
			if va.Vec[j] != vb.Vec[j] {
				return false
			}
		}
	}
	return true
}

// TestZeroRateScheduleIsBitIdentical: an all-zero schedule under full guards
// must reproduce the unwrapped, unchecked pipeline exactly — fault injection
// off is indistinguishable from fault injection absent.
func TestZeroRateScheduleIsBitIdentical(t *testing.T) {
	lib := testLibrary(t)
	pts := testPoints(t, lib, 40)

	wrapped, injs, err := WrapLibrary(lib, Schedule{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	glib := wrapped.WithGuards(quiet(), nil)
	ctx := context.Background()
	for _, p := range pts {
		want := lib.FeaturizePoint(p)
		got, failed, err := glib.FeaturizePointChecked(ctx, p)
		if err != nil || len(failed) != 0 {
			t.Fatalf("point %d: err=%v failed=%v", p.ID, err, failed)
		}
		if !vectorsEqual(t, lib.Schema(), want, got) {
			t.Fatalf("point %d: zero-rate vector differs from unchecked pipeline", p.ID)
		}
	}
	for _, in := range injs {
		st := in.Stats()
		if st.Errors+st.Latencies+st.Partials+st.Flaps != 0 {
			t.Fatalf("injector %s injected faults at zero rates: %+v", in.Def().Name, st)
		}
	}
}

// TestInjectionIsDeterministic: two identically seeded stacks make identical
// decisions — same failed channels, same counters.
func TestInjectionIsDeterministic(t *testing.T) {
	sched := Schedule{Seed: 7, ErrorRate: 0.3}
	run := func() ([][]string, []Stats) {
		lib := testLibrary(t)
		pts := testPoints(t, lib, 30)
		wrapped, injs, err := WrapLibrary(lib, sched)
		if err != nil {
			t.Fatal(err)
		}
		glib := wrapped.WithGuards(quiet(), nil)
		var fails [][]string
		for _, p := range pts {
			_, failed, _ := glib.FeaturizePointChecked(context.Background(), p)
			fails = append(fails, failed)
		}
		stats := make([]Stats, len(injs))
		for i, in := range injs {
			stats[i] = in.Stats()
		}
		return fails, stats
	}
	fails1, stats1 := run()
	fails2, stats2 := run()
	for i := range fails1 {
		if len(fails1[i]) != len(fails2[i]) {
			t.Fatalf("point %d: run1 failed %v, run2 failed %v", i, fails1[i], fails2[i])
		}
		for j := range fails1[i] {
			if fails1[i][j] != fails2[i][j] {
				t.Fatalf("point %d: run1 failed %v, run2 failed %v", i, fails1[i], fails2[i])
			}
		}
	}
	for i := range stats1 {
		if stats1[i] != stats2[i] {
			t.Fatalf("injector %d: stats %+v vs %+v", i, stats1[i], stats2[i])
		}
	}
}

// TestDecideReplayPredictsOutcomes: walking Schedule.Decide offline predicts
// exactly which channels fail after the guard's retry budget — the property
// the serve-level counter-matching test is built on.
func TestDecideReplayPredictsOutcomes(t *testing.T) {
	lib := testLibrary(t)
	pts := testPoints(t, lib, 50)
	sched := Schedule{Seed: 21, ErrorRate: 0.35}
	wrapped, _, err := WrapLibrary(lib, sched)
	if err != nil {
		t.Fatal(err)
	}
	const attempts = 3
	pol := quiet()
	pol.MaxAttempts = attempts
	glib := wrapped.WithGuards(pol, nil)

	resources := lib.Resources()
	for _, p := range pts {
		var predicted []string
		for _, r := range resources {
			if !resource.Applicable(r, p) {
				continue
			}
			if sched.FailsAttempts(p.Seed, r.Def().Name, 0, attempts) {
				predicted = append(predicted, r.Def().Name)
			}
		}
		_, failed, err := glib.FeaturizePointChecked(context.Background(), p)
		if err != nil {
			// Predicted too: every applicable channel failed.
			applicable := 0
			for _, r := range resources {
				if resource.Applicable(r, p) {
					applicable++
				}
			}
			if len(predicted) != applicable {
				t.Fatalf("point %d errored (%v) but replay predicted only %d/%d channels failing",
					p.ID, err, len(predicted), applicable)
			}
			continue
		}
		if len(failed) != len(predicted) {
			t.Fatalf("point %d: failed %v, replay predicted %v", p.ID, failed, predicted)
		}
		for i := range failed {
			if failed[i] != predicted[i] {
				t.Fatalf("point %d: failed %v, replay predicted %v", p.ID, failed, predicted)
			}
		}
	}
}

// TestRetriesRescueSomeCalls: with error-only injection and retries enabled,
// some calls must fail attempt 0 and succeed on a retry (the attempt-keyed
// dice re-roll), observable as clean points whose injectors saw errors.
func TestRetriesRescueSomeCalls(t *testing.T) {
	lib := testLibrary(t)
	pts := testPoints(t, lib, 50)
	sched := Schedule{Seed: 3, ErrorRate: 0.3}
	rescued := 0
	for _, p := range pts {
		for _, r := range lib.Resources() {
			if !resource.Applicable(r, p) {
				continue
			}
			first := sched.Decide(p.Seed, r.Def().Name, 0).Mode
			if first == ModeError && !sched.FailsAttempts(p.Seed, r.Def().Name, 0, 3) {
				rescued++
			}
		}
	}
	if rescued == 0 {
		t.Fatal("no call is rescued by retries under this schedule; attempt keying is broken")
	}
}

// TestPartialModeDegradesShapes: partial results keep schema-legal shapes —
// fewer categories, missing numerics, zero-tailed embeddings — and are
// reported as successes.
func TestPartialModeDegradesShapes(t *testing.T) {
	lib := testLibrary(t)
	pts := testPoints(t, lib, 30)
	wrapped, injs, err := WrapLibrary(lib, Schedule{Seed: 13, PartialRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	glib := wrapped.WithGuards(quiet(), nil)
	schema := lib.Schema()
	for _, p := range pts {
		clean := lib.FeaturizePoint(p)
		got, failed, err := glib.FeaturizePointChecked(context.Background(), p)
		if err != nil || len(failed) != 0 {
			t.Fatalf("point %d: partial mode must not error (err=%v failed=%v)", p.ID, err, failed)
		}
		for i := 0; i < schema.Len(); i++ {
			cv, gv := clean.At(i), got.At(i)
			if cv.Missing {
				continue
			}
			switch schema.Def(i).Kind {
			case feature.Categorical:
				if !gv.Missing && len(gv.Categories) > len(cv.Categories) {
					t.Fatalf("point %d %s: partial grew categories", p.ID, schema.Def(i).Name)
				}
			case feature.Numeric:
				if !gv.Missing {
					t.Fatalf("point %d %s: partial numeric survived", p.ID, schema.Def(i).Name)
				}
			case feature.Embedding:
				if len(gv.Vec) != len(cv.Vec) {
					t.Fatalf("point %d %s: partial embedding changed dim", p.ID, schema.Def(i).Name)
				}
				for j := len(gv.Vec) / 2; j < len(gv.Vec); j++ {
					if gv.Vec[j] != 0 {
						t.Fatalf("point %d %s: partial embedding tail not zeroed", p.ID, schema.Def(i).Name)
					}
				}
			}
		}
	}
	total := Stats{}
	for _, in := range injs {
		total.Add(in.Stats())
	}
	if total.Partials == 0 {
		t.Fatal("partial faults not counted")
	}
	if total.Errors != 0 || total.Latencies != 0 {
		t.Fatalf("partial-only schedule injected other modes: %+v", total)
	}
}

// refDegrade is degrade as it was, on a boxed value: the reference the
// in-place degrade is pinned to.
func refDegrade(v feature.Value, d feature.Def) feature.Value {
	if v.Missing {
		return v
	}
	switch d.Kind {
	case feature.Categorical:
		if len(v.Categories) <= 1 {
			return feature.MissingValue()
		}
		keep := (len(v.Categories) + 1) / 2
		return feature.CategoricalValue(v.Categories[:keep]...)
	case feature.Numeric:
		return feature.MissingValue()
	case feature.Embedding:
		vec := append([]float64(nil), v.Vec...)
		for i := len(vec) / 2; i < len(vec); i++ {
			vec[i] = 0
		}
		return feature.EmbeddingValue(vec)
	default:
		return feature.MissingValue()
	}
}

// TestDegradeInPlaceMatchesReference: degrading a partial result in place
// leaves, bit for bit, the cell the Value-based reference returned — over
// every StandardLibrary channel of text, image and multi-frame video points,
// so categorical channels with one and with several categories, numeric and
// embedding channels — and a payload holding the degraded value alone.
func TestDegradeInPlaceMatchesReference(t *testing.T) {
	lib := testLibrary(t)
	task, _ := synth.TaskByName("CT1")
	if err := task.Calibrate(lib.World(), 2000, 1); err != nil {
		t.Fatal(err)
	}
	pts := append(testPoints(t, lib, 150), synth.SampleVideo(lib.World(), task, 150, 3, 5)...)
	schema := lib.Schema()
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	seen := map[string]int{}
	for _, p := range pts {
		for i, r := range lib.Resources() {
			if !resource.Applicable(r, p) {
				continue
			}
			full, want, got := feature.NewVector(schema), feature.NewVector(schema), feature.NewVector(schema)
			resource.ObserveInto(full, i, r, p)
			want.MustSetAt(i, refDegrade(full.At(i), r.Def()))
			resource.ObserveInto(got, i, r, p)
			degrade(got, i)
			g, w := got.At(i), want.At(i)
			if !got.Equal(want) || g.Missing != w.Missing || !bits(g.Num, w.Num) ||
				!slices.Equal(g.Categories, w.Categories) || !slices.EqualFunc(g.Vec, w.Vec, bits) ||
				!slices.Equal(got.CategoryIDs(i), want.CategoryIDs(i)) {
				t.Fatalf("%s point %d %s: degraded in place to %v, reference %v", p.Modality, p.ID, r.Def().Name, got, want)
			}
			if cats, embs := got.PayloadLen(); cats != len(got.Categories(i)) || embs != len(got.Vec(i)) {
				t.Fatalf("%s point %d %s: payload holds %d categories / %d floats for a value of %d / %d",
					p.Modality, p.ID, r.Def().Name, cats, embs, len(got.Categories(i)), len(got.Vec(i)))
			}
			switch n := len(full.Categories(i)); {
			case !full.Present(i):
			case r.Def().Kind != feature.Categorical:
				seen[r.Def().Kind.String()]++
			case n == 1:
				seen["categorical, one category"]++
			case n > 1:
				seen["categorical, several categories"]++
			}
		}
	}
	for _, c := range []string{"categorical, one category", "categorical, several categories", "numeric", "embedding"} {
		if seen[c] == 0 {
			t.Errorf("no %s value degraded: nothing compared", c)
		}
	}
}

// TestFlapWindows: the first FlapOpen of every FlapPeriod calls fail.
func TestFlapWindows(t *testing.T) {
	lib := testLibrary(t)
	pts := testPoints(t, lib, 8)
	r := lib.Resources()[0]
	in := Wrap(r, Schedule{Seed: 5, FlapPeriod: 4, FlapOpen: 2})
	ctx := context.Background()
	var outcomes []bool
	for call := 0; call < 8; call++ {
		p := pts[call%len(pts)]
		if !resource.Applicable(r, p) {
			p = pts[(call+1)%len(pts)]
		}
		err := in.CheckPoint(ctx, feature.NewVector(lib.Schema()), 0, p)
		outcomes = append(outcomes, err == nil)
	}
	want := []bool{false, false, true, true, false, false, true, true}
	for i := range want {
		if outcomes[i] != want[i] {
			t.Fatalf("call %d ok=%v, want %v (outcomes %v)", i+1, outcomes[i], want[i], outcomes)
		}
	}
	if st := in.Stats(); st.Flaps != 4 {
		t.Fatalf("flaps = %d, want 4", st.Flaps)
	}
}

// TestLatencyModeRespectsContext: injected latency that outlives the
// caller's timeout surfaces as a context error, not a hang.
func TestLatencyModeRespectsContext(t *testing.T) {
	lib := testLibrary(t)
	pts := testPoints(t, lib, 4)
	r := lib.Resources()[0]
	in := Wrap(r, Schedule{Seed: 5, LatencyRate: 1, LatencyMin: time.Second, LatencyMax: time.Second})
	p := pts[0]
	if !resource.Applicable(r, p) {
		p = pts[1]
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	start := time.Now()
	dst := feature.NewVector(lib.Schema())
	err := in.CheckPoint(ctx, dst, 0, p)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if dst.Present(0) {
		t.Fatalf("failed call wrote %v", dst)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("CheckPoint held the full injected latency (%v) past cancellation", elapsed)
	}
}

// TestChaosFeaturizeRaceClean drives the full 30% error/latency/partial mix
// through parallel checked featurization: no panics, no deadlocks, bounded
// retries, every point either degrades or errors with ErrUnavailable.
func TestChaosFeaturizeRaceClean(t *testing.T) {
	lib := testLibrary(t)
	pts := testPoints(t, lib, 60)
	wrapped, injs, err := WrapLibrary(lib, Schedule{
		Seed:        31,
		ErrorRate:   0.10,
		LatencyRate: 0.10,
		LatencyMin:  50 * time.Microsecond,
		LatencyMax:  200 * time.Microsecond,
		PartialRate: 0.10,
	})
	if err != nil {
		t.Fatal(err)
	}
	pol := quiet()
	pol.Timeout = 50 * time.Millisecond
	pol.BreakerThreshold = 50 // present but hard to trip at this rate
	glib := wrapped.WithGuards(pol, nil)

	checked, err := glib.FeaturizeChecked(context.Background(), mapreduce.Config{Workers: 8}, pts)
	if err != nil {
		t.Fatalf("batch featurize: %v", err)
	}
	for i, c := range checked {
		if c.Err != nil {
			if !errors.Is(c.Err, resource.ErrUnavailable) {
				t.Fatalf("point %d: unexpected error class: %v", pts[i].ID, c.Err)
			}
			continue
		}
		if c.Vec == nil {
			t.Fatalf("point %d: no error and no vector", pts[i].ID)
		}
	}
	// Bounded retries: a guard can retry at most MaxAttempts-1 times per
	// call, so total service calls ≤ guarded calls × MaxAttempts.
	var guardCalls, guardRetries uint64
	for _, gs := range glib.GuardStatuses() {
		guardCalls += gs.Calls
		guardRetries += gs.Retries
	}
	if guardRetries > guardCalls*uint64(pol.MaxAttempts-1) {
		t.Fatalf("retries %d exceed bound %d", guardRetries, guardCalls*uint64(pol.MaxAttempts-1))
	}
	var injCalls uint64
	for _, in := range injs {
		injCalls += in.Stats().Calls
	}
	if injCalls > guardCalls*uint64(pol.MaxAttempts) {
		t.Fatalf("service calls %d exceed retry-bounded maximum %d", injCalls, guardCalls*uint64(pol.MaxAttempts))
	}
}
