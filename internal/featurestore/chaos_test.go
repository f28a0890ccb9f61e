package featurestore

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"crossmodal/internal/faulty"
	"crossmodal/internal/feature"
	"crossmodal/internal/mapreduce"
	"crossmodal/internal/resource"
	"crossmodal/internal/synth"
)

// toggleSvc is a fallible resource whose failure mode is flipped by tests:
// while failing is set, every CheckPoint errors; otherwise it returns a
// deterministic numeric reading derived from the point ID.
type toggleSvc struct {
	name    string
	failing atomic.Bool
}

var errToggled = errors.New("toggleSvc: induced outage")

func (s *toggleSvc) Def() feature.Def               { return feature.Def{Name: s.name, Kind: feature.Numeric} }
func (s *toggleSvc) Supports(_ synth.Modality) bool { return true }
func (s *toggleSvc) Observe(dst *feature.Vector, i int, _ *synth.Entity, _ synth.Modality, _ *rand.Rand) {
	dst.SetNum(i, 1)
}

func (s *toggleSvc) CheckPoint(_ context.Context, dst *feature.Vector, i int, p *synth.Point) error {
	if s.failing.Load() {
		return errToggled
	}
	dst.SetNum(i, float64(p.ID))
	return nil
}

// quietPolicy retries fast and never trips a breaker unless asked.
func quietPolicy() resource.Policy {
	return resource.Policy{
		MaxAttempts:      2,
		BreakerThreshold: -1,
		Sleep:            func(time.Duration) {},
	}
}

func toggleWorld(t *testing.T) (*synth.World, []*synth.Point) {
	t.Helper()
	_, pts := env(t)
	return synth.MustWorld(synth.DefaultConfig()), pts
}

// TestGuardedStoreMatchesPlainStoreAtZeroFaults: a guarded store over a
// zero-rate injected library returns byte-identical vectors and identical
// hit/miss accounting to the plain store.
func TestGuardedStoreMatchesPlainStoreAtZeroFaults(t *testing.T) {
	lib, pts := env(t)
	wrapped, _, err := faulty.WrapLibrary(lib, faulty.Schedule{Seed: 400})
	if err != nil {
		t.Fatal(err)
	}
	glib := wrapped.WithGuards(quietPolicy(), nil)

	plain, err := New(lib, 0)
	if err != nil {
		t.Fatal(err)
	}
	guarded, err := New(glib, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := mapreduce.Config{Workers: 4}
	want, err := plain.Featurize(ctx, cfg, pts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := guarded.Featurize(ctx, cfg, pts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if want[i].String() != got[i].String() {
			t.Fatalf("point %d: guarded store diverges at zero fault rate", pts[i].ID)
		}
	}
	if guarded.Len() != plain.Len() { // a degraded vector is never cached
		t.Fatalf("guarded store cached %d vectors, plain %d", guarded.Len(), plain.Len())
	}
	ph, pm, _ := plain.Stats()
	gh, gm, _ := guarded.Stats()
	if ph != gh || pm != gm {
		t.Fatalf("stats diverge: plain hits=%d misses=%d, guarded hits=%d misses=%d", ph, pm, gh, gm)
	}
	if guarded.StaleServed() != 0 || guarded.DegradedServed() != 0 {
		t.Fatal("degradation counters moved at zero fault rate")
	}
}

// TestStaleServedOnRecomputeFailure: a cached-but-expired entry is served
// stale when the backing resource fails, and counted.
func TestStaleServedOnRecomputeFailure(t *testing.T) {
	world, pts := toggleWorld(t)
	svc := &toggleSvc{name: "toggle"}
	lib, err := resource.NewLibrary(world, svc)
	if err != nil {
		t.Fatal(err)
	}
	glib := lib.WithGuards(quietPolicy(), nil)

	now := time.Unix(0, 0)
	store, err := NewWithOptions(glib, Options{
		TTL: time.Minute,
		Now: func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := mapreduce.Config{Workers: 2}
	sub := pts[:10]

	fresh, err := store.Featurize(ctx, cfg, sub)
	if err != nil {
		t.Fatal(err)
	}
	// Entries expire; the service goes dark. The store must fall back to
	// the stale copies rather than fail the batch.
	now = now.Add(2 * time.Minute)
	svc.failing.Store(true)
	stale, err := store.Featurize(ctx, cfg, sub)
	if err != nil {
		t.Fatalf("stale fallback did not rescue the batch: %v", err)
	}
	for i := range sub {
		if fresh[i] != stale[i] {
			t.Fatalf("point %d: stale serve returned a different vector instance", sub[i].ID)
		}
	}
	if got := store.StaleServed(); got != uint64(len(sub)) {
		t.Fatalf("StaleServed = %d, want %d", got, len(sub))
	}
	// The stale entries were not re-stamped: recovery must recompute.
	svc.failing.Store(false)
	if _, err := store.Featurize(ctx, cfg, sub); err != nil {
		t.Fatal(err)
	}
	if store.StaleServed() != uint64(len(sub)) {
		t.Fatal("healthy recompute still served stale entries")
	}
}

// TestColdMissFailsWithoutStaleCopy: with no cached fallback, an outage
// surfaces as ErrUnavailable for the affected points.
func TestColdMissFailsWithoutStaleCopy(t *testing.T) {
	world, pts := toggleWorld(t)
	svc := &toggleSvc{name: "toggle"}
	svc.failing.Store(true)
	lib, err := resource.NewLibrary(world, svc)
	if err != nil {
		t.Fatal(err)
	}
	store, err := New(lib.WithGuards(quietPolicy(), nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = store.Featurize(context.Background(), mapreduce.Config{Workers: 2}, pts[:5])
	if !errors.Is(err, resource.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
}

// TestDegradedChannelsAnnotatedAndNotCached: when one of two channels fails,
// the library reports it in Checked.Failed, and the store serves the vector
// with the failed channel missing, counts it degraded and does not cache it —
// a later healthy call recomputes and caches a clean copy.
func TestDegradedChannelsAnnotatedAndNotCached(t *testing.T) {
	world, pts := toggleWorld(t)
	bad := &toggleSvc{name: "bad"}
	good := &toggleSvc{name: "good"}
	bad.failing.Store(true)
	lib, err := resource.NewLibrary(world, bad, good)
	if err != nil {
		t.Fatal(err)
	}
	glib := lib.WithGuards(quietPolicy(), nil)
	store, err := New(glib, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := mapreduce.Config{Workers: 2}
	sub := pts[:6]

	checked, err := glib.FeaturizeChecked(ctx, cfg, sub)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range checked {
		if c.Err != nil || len(c.Failed) != 1 || c.Failed[0] != "bad" {
			t.Fatalf("point %d: failed = %v (err %v), want [bad]", sub[i].ID, c.Failed, c.Err)
		}
	}
	vecs, err := store.Featurize(ctx, cfg, sub)
	if err != nil {
		t.Fatal(err)
	}
	idxBad, ok1 := lib.Schema().Index("bad")
	idxGood, ok2 := lib.Schema().Index("good")
	if !ok1 || !ok2 {
		t.Fatal("schema missing toggle channels")
	}
	for i, v := range vecs {
		if !v.At(idxBad).Missing {
			t.Fatalf("point %d: failed channel not missing", sub[i].ID)
		}
		if v.At(idxGood).Missing || v.At(idxGood).Num != float64(sub[i].ID) {
			t.Fatalf("point %d: healthy channel corrupted", sub[i].ID)
		}
	}
	if got := store.DegradedServed(); got != uint64(len(sub)) {
		t.Fatalf("DegradedServed = %d, want %d", got, len(sub))
	}
	// Degraded vectors must not have been cached.
	if store.Len() != 0 {
		t.Fatalf("%d degraded vectors cached", store.Len())
	}
	bad.failing.Store(false)
	vecs2, err := store.Featurize(ctx, cfg, sub)
	if err != nil {
		t.Fatal(err)
	}
	hits, _, _ := store.Stats()
	if hits != 0 {
		t.Fatalf("degraded vectors were cached: %d hits on recovery pass", hits)
	}
	for i, v := range vecs2 {
		if v.At(idxBad).Missing {
			t.Fatalf("point %d: recovered channel still missing", sub[i].ID)
		}
	}
	if store.DegradedServed() != uint64(len(sub)) || store.Len() != len(sub) {
		t.Fatalf("recovery pass: %d degraded served, %d cached; want %d and %d",
			store.DegradedServed(), store.Len(), len(sub), len(sub))
	}
	// Third pass: the clean copies are served from cache.
	if _, err := store.Featurize(ctx, cfg, sub); err != nil {
		t.Fatal(err)
	}
	hits, _, _ = store.Stats()
	if hits != len(sub) {
		t.Fatalf("clean recovery vectors not cached: hits=%d want %d", hits, len(sub))
	}
}

// TestBreakerOpenSurfacesInError: a tripped breaker propagates
// ErrBreakerOpen through the store's batch error.
func TestBreakerOpenSurfacesInError(t *testing.T) {
	world, pts := toggleWorld(t)
	svc := &toggleSvc{name: "toggle"}
	svc.failing.Store(true)
	lib, err := resource.NewLibrary(world, svc)
	if err != nil {
		t.Fatal(err)
	}
	pol := quietPolicy()
	pol.BreakerThreshold = 1
	pol.BreakerCooldown = time.Hour
	store, err := New(lib.WithGuards(pol, nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential so the second point definitely sees the open breaker.
	_, err = store.Featurize(context.Background(), mapreduce.Config{Workers: 1}, pts[:1])
	if !errors.Is(err, resource.ErrUnavailable) {
		t.Fatalf("first point err = %v, want ErrUnavailable", err)
	}
	_, err = store.Featurize(context.Background(), mapreduce.Config{Workers: 1}, pts[1:2])
	if !errors.Is(err, resource.ErrBreakerOpen) {
		t.Fatalf("second point err = %v, want ErrBreakerOpen", err)
	}
}

// TestChaosStoreRaceClean: the full store path under a 30% mixed fault
// schedule with concurrent workers — no panics, no deadlocks (run under
// -race via make gate-full), retries bounded, counters consistent.
func TestChaosStoreRaceClean(t *testing.T) {
	lib, pts := env(t)
	wrapped, _, err := faulty.WrapLibrary(lib, faulty.Schedule{
		Seed:        777,
		ErrorRate:   0.10,
		LatencyRate: 0.10,
		LatencyMin:  50 * time.Microsecond,
		LatencyMax:  200 * time.Microsecond,
		PartialRate: 0.10,
	})
	if err != nil {
		t.Fatal(err)
	}
	pol := quietPolicy()
	pol.MaxAttempts = 3
	glib := wrapped.WithGuards(pol, nil)
	store, err := New(glib, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := mapreduce.Config{Workers: 8}
	sub := pts[:120]

	vecs, err := store.Featurize(ctx, cfg, sub)
	if err != nil && !errors.Is(err, resource.ErrUnavailable) {
		t.Fatalf("unexpected error class: %v", err)
	}
	if err == nil {
		for i, v := range vecs {
			if v == nil {
				t.Fatalf("point %d: nil vector without error", sub[i].ID)
			}
		}
	}
	var calls, retries uint64
	for _, gs := range glib.GuardStatuses() {
		calls += gs.Calls
		retries += gs.Retries
	}
	if calls == 0 {
		t.Fatal("no guarded calls recorded")
	}
	if retries > calls*uint64(pol.MaxAttempts-1) {
		t.Fatalf("retries %d exceed bound %d", retries, calls*uint64(pol.MaxAttempts-1))
	}
	// A second pass over the same points must be all cache hits or
	// degradations — and must not deadlock with faults still active.
	if _, err := store.Featurize(ctx, cfg, sub); err != nil && !errors.Is(err, resource.ErrUnavailable) {
		t.Fatalf("second pass: %v", err)
	}
}
