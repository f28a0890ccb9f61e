package resource

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"crossmodal/internal/feature"
	"crossmodal/internal/mapreduce"
	"crossmodal/internal/synth"
	"crossmodal/internal/xrand"
)

// The checked featurization path. The plain Resource interface models the
// in-process simulation, where a service call cannot fail; production
// organizational resources are remote services that time out, throttle, and
// brown out. A resource that can fail implements Fallible, and a Library
// built WithGuards calls it through a Guard: per-attempt timeout,
// capped-exponential-backoff retry with deterministic jitter, and a circuit
// breaker per resource. An unguarded library's checked path is exactly
// FeaturizePoint (the serving feature store calls it either way), so the
// infallible pipeline is bit-identical to the unchecked one.

// Fallible is the error-returning variant of Resource. CheckPoint performs
// one full service call for one point — the write ObserveInto makes, video
// frame merge included — into the still-Missing position i of dst, which an
// error leaves Missing. It must honor ctx: simulated or real latency must
// return ctx.Err() when the context ends first. Implementations must be safe
// for concurrent use.
type Fallible interface {
	Resource
	CheckPoint(ctx context.Context, dst *feature.Vector, i int, p *synth.Point) error
}

// Sentinel errors for the checked path. The serving layer maps
// ErrBreakerOpen to 503 + Retry-After.
var (
	// ErrBreakerOpen means the resource's circuit breaker rejected the call.
	ErrBreakerOpen = errors.New("resource: circuit breaker open")
	// ErrUnavailable means every channel applicable to a point failed, so no
	// usable vector exists (and no stale copy was available upstream).
	ErrUnavailable = errors.New("resource: all channels failed")
)

// Policy tunes one resource's Guard. The zero value means "use defaults".
type Policy struct {
	// Timeout bounds each attempt (0 = no per-attempt timeout).
	Timeout time.Duration
	// MaxAttempts is the total number of tries including the first
	// (default 3).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry (default 1ms); each
	// further retry doubles it, capped at MaxBackoff (default 50ms).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// BreakerThreshold trips the breaker after this many consecutive
	// failures (default 5; negative disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is the open → half-open probe delay (default 100ms).
	BreakerCooldown time.Duration
	// Seed salts the jitter stream (mixed with the resource name).
	Seed uint64
	// Sleep and Now are test seams (nil = time.Sleep / time.Now).
	Sleep func(time.Duration)
	Now   func() time.Time
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 50 * time.Millisecond
	}
	if p.BreakerThreshold == 0 {
		p.BreakerThreshold = 5
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = 100 * time.Millisecond
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	if p.Now == nil {
		p.Now = time.Now
	}
	return p
}

// GuardStats is a snapshot of one guard's counters.
type GuardStats struct {
	Calls          uint64 // checked observations requested
	Retries        uint64 // extra attempts beyond the first
	Failures       uint64 // observations that exhausted every attempt
	BreakerRejects uint64 // observations refused by an open breaker
}

// Guard wraps one resource with the retry/timeout/breaker discipline;
// Library.WithGuards builds one per resource.
type Guard struct {
	res  Resource
	fal  Fallible // nil when the resource cannot fail
	hash uint64   // xrand.Hash of the channel name
	pol  Policy
	brk  *Breaker

	mu     sync.Mutex
	jitter *rand.Rand

	calls          atomic.Uint64
	retries        atomic.Uint64
	failures       atomic.Uint64
	breakerRejects atomic.Uint64
}

// newGuard wraps r under pol.
func newGuard(r Resource, pol Policy) *Guard {
	pol = pol.withDefaults()
	name := r.Def().Name
	g := &Guard{
		res:    r,
		hash:   xrand.Hash(name),
		pol:    pol,
		brk:    NewBreaker(pol.BreakerThreshold, pol.BreakerCooldown, pol.Now),
		jitter: xrand.New(int64(xrand.HashString(pol.Seed, name))),
	}
	if f, ok := r.(Fallible); ok {
		g.fal = f
	}
	return g
}

// Stats snapshots the guard's counters.
func (g *Guard) Stats() GuardStats {
	return GuardStats{
		Calls:          g.calls.Load(),
		Retries:        g.retries.Load(),
		Failures:       g.failures.Load(),
		BreakerRejects: g.breakerRejects.Load(),
	}
}

// jitterFrac scales each backoff by a factor uniform in
// [1-jitterFrac, 1+jitterFrac], drawn from a deterministic per-guard xrand
// stream so runs replay exactly.
const jitterFrac = 0.2

// backoff computes the jittered delay before retry attempt (attempt >= 1).
func (g *Guard) backoff(attempt int) time.Duration {
	d := g.pol.BaseBackoff
	for i := 1; i < attempt && d < g.pol.MaxBackoff; i++ {
		d *= 2
	}
	if d > g.pol.MaxBackoff {
		d = g.pol.MaxBackoff
	}
	g.mu.Lock()
	f := 1 + jitterFrac*(2*g.jitter.Float64()-1)
	g.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// observe performs one checked observation of p into the still-Missing
// position i of dst, which an error leaves Missing: at most MaxAttempts
// calls, each under the per-attempt timeout, with backoff between attempts,
// all gated by the breaker. Infallible resources short-circuit to the
// unchecked path's write — same bits, no breaker bookkeeping — and only they
// draw from rng, the caller's per-point generator (a Fallible call owns its
// noise).
func (g *Guard) observe(ctx context.Context, dst *feature.Vector, i int, p *synth.Point, rng *rand.Rand) error {
	g.calls.Add(1)
	if g.fal == nil {
		observeInto(dst, i, g.res, g.hash, p, rng)
		return nil
	}
	name := g.res.Def().Name
	var lastErr error
	for attempt := 0; attempt < g.pol.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if attempt > 0 {
			g.retries.Add(1)
			g.pol.Sleep(g.backoff(attempt))
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if !g.brk.Allow() {
			g.breakerRejects.Add(1)
			return fmt.Errorf("resource %q: %w", name, ErrBreakerOpen)
		}
		err := g.attempt(ctx, dst, i, p)
		if err == nil {
			g.brk.Success()
			return nil
		}
		g.brk.Failure()
		lastErr = err
		if ctx.Err() != nil {
			// The parent is gone (or out of budget); retrying cannot help.
			break
		}
	}
	g.failures.Add(1)
	return fmt.Errorf("resource %q: %w", name, lastErr)
}

// attempt runs one call under the per-attempt timeout.
func (g *Guard) attempt(ctx context.Context, dst *feature.Vector, i int, p *synth.Point) error {
	if g.pol.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, g.pol.Timeout)
		defer cancel()
	}
	return g.fal.CheckPoint(ctx, dst, i, p)
}

// WithGuards returns a copy of the library whose checked featurization path
// calls every resource through a Guard under def (overridden per resource
// name by per). The unchecked path (FeaturizePoint/Featurize) is untouched.
func (l *Library) WithGuards(def Policy, per map[string]Policy) *Library {
	guards := make([]*Guard, len(l.resources))
	for i, r := range l.resources {
		pol := def
		if o, ok := per[r.Def().Name]; ok {
			pol = o
		}
		guards[i] = newGuard(r, pol)
	}
	return &Library{world: l.world, resources: l.resources, schema: l.schema, hashes: l.hashes, guards: guards}
}

// GuardStatus is one resource's health snapshot, as exported on /metrics.
type GuardStatus struct {
	Name  string
	State BreakerState
	Opens uint64
	GuardStats
}

// GuardStatuses snapshots every guard in schema order (nil if unguarded).
func (l *Library) GuardStatuses() []GuardStatus {
	if l.guards == nil {
		return nil
	}
	out := make([]GuardStatus, len(l.guards))
	for i, g := range l.guards {
		out[i] = GuardStatus{
			Name:       l.resources[i].Def().Name,
			State:      g.brk.State(),
			Opens:      g.brk.Opens(),
			GuardStats: g.Stats(),
		}
	}
	return out
}

// Checked is the per-point result of the checked featurization path.
type Checked struct {
	// Vec is the point's vector; nil when Err is set.
	Vec *feature.Vector
	// Failed lists channels whose service calls exhausted retries; their
	// features are missing in Vec. Empty on a clean point.
	Failed []string
	// Err is set when every applicable channel failed (wraps
	// ErrUnavailable, and ErrBreakerOpen if a breaker was involved).
	Err error
}

// FeaturizePointChecked featurizes one point through the guards. Per-channel
// failures degrade the vector (feature left missing, channel recorded in
// failed); a point where every applicable channel fails returns an error; a
// parent-context cancellation or deadline aborts immediately. On an
// unguarded library it is exactly FeaturizePoint.
func (l *Library) FeaturizePointChecked(ctx context.Context, p *synth.Point) (vec *feature.Vector, failed []string, err error) {
	if l.guards == nil {
		return l.FeaturizePoint(p), nil, nil
	}
	rng := xrand.New(0)
	vec = feature.NewVector(l.schema)
	vec.Grow(l.reserve(p, 1))
	attempted, succeeded := 0, 0
	breakerOpen := false
	for i, r := range l.resources {
		if !Applicable(r, p) {
			continue
		}
		attempted++
		if err := l.guards[i].observe(ctx, vec, i, p, rng); err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, nil, cerr
			}
			if errors.Is(err, ErrBreakerOpen) {
				breakerOpen = true
			}
			failed = append(failed, r.Def().Name)
			continue
		}
		succeeded++
	}
	if attempted > 0 && succeeded == 0 && len(failed) > 0 {
		err := fmt.Errorf("resource: point %d: %w", p.ID, ErrUnavailable)
		if breakerOpen {
			err = fmt.Errorf("resource: point %d: %w: %w", p.ID, ErrUnavailable, ErrBreakerOpen)
		}
		return nil, failed, err
	}
	return vec, failed, nil
}

// FeaturizeChecked runs the checked path over a corpus in parallel. Per-point
// failures are carried in each Checked.Err rather than failing the batch, so
// a caller with a stale cache can still salvage the points that have one;
// only context cancellation fails the whole call.
func (l *Library) FeaturizeChecked(ctx context.Context, cfg mapreduce.Config, pts []*synth.Point) ([]Checked, error) {
	return mapreduce.Map(ctx, cfg, pts, func(p *synth.Point) (Checked, error) {
		vec, failed, err := l.FeaturizePointChecked(ctx, p)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return Checked{}, cerr
			}
			return Checked{Failed: failed, Err: err}, nil
		}
		return Checked{Vec: vec, Failed: failed}, nil
	})
}
