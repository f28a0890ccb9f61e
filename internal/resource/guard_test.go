package resource

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"crossmodal/internal/feature"
	"crossmodal/internal/synth"
	"crossmodal/internal/xrand"
)

// fakeSvc is a scripted Fallible resource: the first failN CheckPoint calls
// fail, the rest succeed with a fixed numeric value.
type fakeSvc struct {
	def   feature.Def
	failN int32
	calls atomic.Int32
	block time.Duration // per-call latency before answering (0 = none)
}

var errFake = errors.New("fake service down")

func newFakeSvc(name string, failN int) *fakeSvc {
	return &fakeSvc{
		def:   feature.Def{Name: name, Kind: feature.Numeric, Set: "T", Servable: true},
		failN: int32(failN),
	}
}

func (f *fakeSvc) Def() feature.Def               { return f.def }
func (f *fakeSvc) Supports(m synth.Modality) bool { return true }
func (f *fakeSvc) Observe(dst *feature.Vector, i int, _ *synth.Entity, _ synth.Modality, _ *rand.Rand) {
	dst.SetNum(i, 42)
}

func (f *fakeSvc) CheckPoint(ctx context.Context, dst *feature.Vector, i int, _ *synth.Point) error {
	n := f.calls.Add(1)
	if f.block > 0 {
		t := time.NewTimer(f.block)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
	if n <= f.failN {
		return fmt.Errorf("%w (call %d)", errFake, n)
	}
	dst.SetNum(i, 42)
	return nil
}

// observeOne runs one checked observation of p through g into a vector of
// g's feature alone and reads it back; an error must leave the cell Missing.
func observeOne(t *testing.T, g *Guard, ctx context.Context, p *synth.Point) (feature.Value, error) {
	t.Helper()
	v := feature.NewVector(feature.MustSchema(g.res.Def()))
	err := g.observe(ctx, v, 0, p, xrand.New(0))
	if err != nil && v.Present(0) {
		t.Fatalf("failed observation wrote %v", v)
	}
	return v.At(0), err
}

func testPoint(id int) *synth.Point {
	return &synth.Point{ID: id, Modality: synth.Image, Seed: uint64(1000 + id)}
}

// quietPolicy retries fast with no real sleeping and records backoffs.
func quietPolicy(slept *[]time.Duration) Policy {
	return Policy{
		MaxAttempts:      3,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       8 * time.Millisecond,
		BreakerThreshold: -1,
		Sleep: func(d time.Duration) {
			if slept != nil {
				*slept = append(*slept, d)
			}
		},
	}
}

func TestGuardRetriesRescueTransientFailure(t *testing.T) {
	svc := newFakeSvc("svc", 2) // fails twice, third attempt succeeds
	var slept []time.Duration
	g := newGuard(svc, quietPolicy(&slept))

	val, err := observeOne(t, g, context.Background(), testPoint(1))
	if err != nil {
		t.Fatalf("observe: %v", err)
	}
	if val.Missing || val.Num != 42 {
		t.Fatalf("value = %+v, want 42", val)
	}
	if got := svc.calls.Load(); got != 3 {
		t.Fatalf("service called %d times, want 3", got)
	}
	st := g.Stats()
	if st.Retries != 2 || st.Failures != 0 || st.Calls != 1 {
		t.Fatalf("stats = %+v, want 2 retries, 0 failures, 1 call", st)
	}
	// Backoff bounds: attempt k's delay is base*2^(k-1) capped at max,
	// jittered by ±20%.
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(slept))
	}
	bounds := []struct{ lo, hi time.Duration }{
		{time.Duration(0.8 * float64(time.Millisecond)), time.Duration(1.2 * float64(time.Millisecond))},
		{time.Duration(0.8 * float64(2*time.Millisecond)), time.Duration(1.2 * float64(2*time.Millisecond))},
	}
	for i, d := range slept {
		if d < bounds[i].lo || d > bounds[i].hi {
			t.Errorf("backoff %d = %v, want in [%v, %v]", i, d, bounds[i].lo, bounds[i].hi)
		}
	}
}

func TestGuardExhaustsBoundedAttempts(t *testing.T) {
	svc := newFakeSvc("svc", 1<<20) // never recovers
	g := newGuard(svc, quietPolicy(nil))

	_, err := observeOne(t, g, context.Background(), testPoint(1))
	if !errors.Is(err, errFake) {
		t.Fatalf("err = %v, want wrapped errFake", err)
	}
	if got := svc.calls.Load(); got != 3 {
		t.Fatalf("service called %d times, want exactly MaxAttempts=3", got)
	}
	if st := g.Stats(); st.Failures != 1 || st.Retries != 2 {
		t.Fatalf("stats = %+v, want 1 failure, 2 retries", st)
	}
}

func TestGuardBackoffCapsAtMax(t *testing.T) {
	svc := newFakeSvc("svc", 1<<20)
	var slept []time.Duration
	pol := quietPolicy(&slept)
	pol.MaxAttempts = 8
	g := newGuard(svc, pol)
	observeOne(t, g, context.Background(), testPoint(1))
	if len(slept) != 7 {
		t.Fatalf("slept %d times, want 7", len(slept))
	}
	capHi := time.Duration(1.2 * float64(8*time.Millisecond))
	for i, d := range slept {
		if d > capHi {
			t.Errorf("backoff %d = %v exceeds jittered cap %v", i, d, capHi)
		}
	}
}

func TestGuardHonorsParentContext(t *testing.T) {
	svc := newFakeSvc("svc", 1<<20)
	ctx, cancel := context.WithCancel(context.Background())
	pol := quietPolicy(nil)
	pol.Sleep = func(time.Duration) { cancel() } // cancel during first backoff
	g := newGuard(svc, pol)

	_, err := observeOne(t, g, ctx, testPoint(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := svc.calls.Load(); got != 1 {
		t.Fatalf("service called %d times after cancellation, want 1", got)
	}
}

func TestGuardPerAttemptTimeout(t *testing.T) {
	svc := newFakeSvc("svc", 0)
	svc.block = 50 * time.Millisecond
	pol := quietPolicy(nil)
	pol.Timeout = 2 * time.Millisecond
	pol.MaxAttempts = 2
	g := newGuard(svc, pol)

	_, err := observeOne(t, g, context.Background(), testPoint(1))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded from per-attempt timeout", err)
	}
	if got := svc.calls.Load(); got != 2 {
		t.Fatalf("service called %d times, want 2 (both attempts timed out)", got)
	}
}

func TestGuardBreakerTripsAndRejects(t *testing.T) {
	svc := newFakeSvc("svc", 1<<20)
	now := time.Unix(0, 0)
	pol := quietPolicy(nil)
	pol.BreakerThreshold = 4
	pol.BreakerCooldown = 100 * time.Millisecond
	pol.Now = func() time.Time { return now }
	g := newGuard(svc, pol)

	// First observation: 3 attempts, 3 failures — breaker still closed.
	observeOne(t, g, context.Background(), testPoint(1))
	if st := g.brk.State(); st != BreakerClosed {
		t.Fatalf("breaker %v after 3 failures, want closed (threshold 4)", st)
	}
	// Second observation: 4th consecutive failure trips it mid-retry.
	_, err := observeOne(t, g, context.Background(), testPoint(2))
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen once tripped", err)
	}
	if st := g.brk.State(); st != BreakerOpen {
		t.Fatalf("breaker %v, want open", st)
	}
	calls := svc.calls.Load()
	// Further observations are rejected without touching the service.
	_, err = observeOne(t, g, context.Background(), testPoint(3))
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
	if svc.calls.Load() != calls {
		t.Fatal("open breaker still let calls through")
	}
	if st := g.Stats(); st.BreakerRejects == 0 {
		t.Fatal("breaker rejects not counted")
	}
	// After the cooldown the probe goes through; the service has recovered.
	svc.failN = 0
	svc.calls.Store(0)
	now = now.Add(200 * time.Millisecond)
	val, err := observeOne(t, g, context.Background(), testPoint(4))
	if err != nil {
		t.Fatalf("post-recovery observe: %v", err)
	}
	if val.Num != 42 {
		t.Fatalf("post-recovery value = %+v", val)
	}
	if st := g.brk.State(); st != BreakerClosed {
		t.Fatalf("breaker %v after successful probe, want closed", st)
	}
}

// TestFeaturizePointCheckedDegradesPerChannel: one failing channel leaves
// its feature missing and reports it; the healthy channels still land.
func TestFeaturizePointCheckedDegradesPerChannel(t *testing.T) {
	w := testWorld(t)
	bad := newFakeSvc("bad", 1<<20)
	good := newFakeSvc("good", 0)
	lib, err := NewLibrary(w, bad, good)
	if err != nil {
		t.Fatal(err)
	}
	glib := lib.WithGuards(quietPolicy(nil), nil)

	vec, failed, err := glib.FeaturizePointChecked(context.Background(), testPoint(1))
	if err != nil {
		t.Fatalf("checked featurize: %v", err)
	}
	if len(failed) != 1 || failed[0] != "bad" {
		t.Fatalf("failed = %v, want [bad]", failed)
	}
	if !vec.Get("bad").Missing {
		t.Error("failed channel's feature is not missing")
	}
	if v := vec.Get("good"); v.Missing || v.Num != 42 {
		t.Errorf("healthy channel = %+v, want 42", v)
	}
}

// TestFeaturizePointCheckedAllChannelsFailed: a point with no surviving
// channel errors with ErrUnavailable.
func TestFeaturizePointCheckedAllChannelsFailed(t *testing.T) {
	w := testWorld(t)
	lib, err := NewLibrary(w, newFakeSvc("only", 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	glib := lib.WithGuards(quietPolicy(nil), nil)

	_, failed, err := glib.FeaturizePointChecked(context.Background(), testPoint(1))
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if len(failed) != 1 {
		t.Fatalf("failed = %v", failed)
	}
}

// TestFeaturizePointCheckedBreakerOpenWraps: when the failure is an open
// breaker, the point error says so (serve turns this into 503).
func TestFeaturizePointCheckedBreakerOpenWraps(t *testing.T) {
	w := testWorld(t)
	lib, err := NewLibrary(w, newFakeSvc("only", 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	pol := quietPolicy(nil)
	pol.BreakerThreshold = 1
	glib := lib.WithGuards(pol, nil)

	ctx := context.Background()
	glib.FeaturizePointChecked(ctx, testPoint(1)) // trips the breaker
	_, _, err = glib.FeaturizePointChecked(ctx, testPoint(2))
	if !errors.Is(err, ErrUnavailable) || !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrUnavailable wrapping ErrBreakerOpen", err)
	}
}

// TestCheckedPathMatchesUncheckedOnInfallibleLibrary: guards over resources
// that cannot fail are pure pass-through — bit-identical vectors.
func TestCheckedPathMatchesUncheckedOnInfallibleLibrary(t *testing.T) {
	lib, pts := testDataset(t, 60)
	glib := lib.WithGuards(Policy{}, nil)
	ctx := context.Background()
	for _, p := range pts {
		want := lib.FeaturizePoint(p)
		got, failed, err := glib.FeaturizePointChecked(ctx, p)
		if err != nil || len(failed) != 0 {
			t.Fatalf("point %d: err=%v failed=%v", p.ID, err, failed)
		}
		for i := 0; i < lib.Schema().Len(); i++ {
			if !valuesEqual(want.At(i), got.At(i)) {
				t.Fatalf("point %d feature %s differs: %+v vs %+v",
					p.ID, lib.Schema().Def(i).Name, want.At(i), got.At(i))
			}
		}
	}
}

// valuesEqual compares two feature values bit-for-bit.
func valuesEqual(a, b feature.Value) bool {
	if a.Missing != b.Missing || a.Num != b.Num {
		return false
	}
	if len(a.Categories) != len(b.Categories) || len(a.Vec) != len(b.Vec) {
		return false
	}
	for i := range a.Categories {
		if a.Categories[i] != b.Categories[i] {
			return false
		}
	}
	for i := range a.Vec {
		if a.Vec[i] != b.Vec[i] {
			return false
		}
	}
	return true
}
