// Package faulty is a deterministic, seedable fault-injection layer for
// organizational resources. It wraps a resource.Resource as a
// resource.Fallible whose service calls fail, stall, or return partial
// results on a schedule derived entirely from internal/xrand streams — so
// every chaos run replays bit-for-bit, and a test can predict exactly which
// calls a schedule will fail by replaying Schedule.Decide offline.
//
// Design constraints the rest of the stack depends on:
//
//   - Fault decisions never touch the point's observation RNG streams. A
//     successful call (including one that succeeds after retries) returns
//     exactly the bytes the unwrapped resource would have, and a schedule
//     with all-zero rates is bit-identical to no injection at all.
//   - Decisions are keyed on (schedule seed, point seed, resource, attempt
//     ordinal), where the attempt ordinal counts calls for that (point,
//     resource) pair. Retry N of a failing call therefore re-rolls the dice
//     deterministically — retries can genuinely rescue a call, and a
//     replayer that walks attempt ordinals 0..k reproduces the outcome.
package faulty

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"crossmodal/internal/feature"
	"crossmodal/internal/resource"
	"crossmodal/internal/synth"
	"crossmodal/internal/xrand"
)

// ErrInjected is the root of every injected failure.
var ErrInjected = errors.New("faulty: injected failure")

// Mode classifies one call's injected fault.
type Mode int

const (
	// ModeNone: the call proceeds normally.
	ModeNone Mode = iota
	// ModeError: the call fails with ErrInjected.
	ModeError
	// ModeLatency: the call succeeds after an injected delay (which the
	// caller's per-attempt timeout may turn into a failure).
	ModeLatency
	// ModePartial: the call succeeds with a degraded value — categories
	// dropped, numerics missing, embedding tail zeroed — and no error, the
	// way throttled services silently truncate responses.
	ModePartial
)

// String renders the mode for test output.
func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeError:
		return "error"
	case ModeLatency:
		return "latency"
	case ModePartial:
		return "partial"
	default:
		return "unknown"
	}
}

// Decision is one call's fate under a schedule.
type Decision struct {
	Mode    Mode
	Latency time.Duration // set for ModeLatency
}

// Schedule is a deterministic fault plan. Rates are probabilities in [0,1]
// evaluated in order error, latency, partial from a single uniform draw, so
// ErrorRate+LatencyRate+PartialRate must be <= 1.
type Schedule struct {
	// Seed drives every decision; two injectors with equal seeds and rates
	// make identical decisions.
	Seed uint64
	// ErrorRate is the probability a call fails outright.
	ErrorRate float64
	// LatencyRate is the probability a call is delayed by a duration
	// uniform in [LatencyMin, LatencyMax] (defaults 1ms..5ms).
	LatencyRate float64
	LatencyMin  time.Duration
	LatencyMax  time.Duration
	// PartialRate is the probability a call silently degrades its result.
	PartialRate float64
	// FlapPeriod > 0 makes the service flap: of every FlapPeriod calls (a
	// per-injector global call counter), the first FlapOpen fail outright.
	// Flap is evaluated before the per-call dice and does not consume an
	// attempt ordinal, so it models a hard outage window rather than
	// per-call noise. Under concurrency the counter is atomic but call
	// interleaving decides which caller lands in the window.
	FlapPeriod int
	FlapOpen   int
}

// latencyBounds applies the latency defaults.
func (s Schedule) latencyBounds() (lo, hi time.Duration) {
	lo, hi = s.LatencyMin, s.LatencyMax
	if lo <= 0 {
		lo = time.Millisecond
	}
	if hi < lo {
		hi = 5 * time.Millisecond
		if hi < lo {
			hi = lo
		}
	}
	return lo, hi
}

// golden gamma: the splitmix64 increment, reused to stride attempt ordinals
// through the decision keyspace.
const gamma = 0x9e3779b97f4a7c15

// key collapses (schedule seed, resource, point seed) into the per-pair
// decision key.
func (s Schedule) key(pointSeed uint64, res string) uint64 {
	return xrand.Mix(xrand.HashString(s.Seed, res) ^ (pointSeed * gamma))
}

// Decide returns the fate of attempt ordinal attempt (0-based) of the
// (point, resource) pair. It is pure: tests replay it to predict exactly
// which calls a schedule fails, how often retries rescue them, and what the
// resulting degradation counters must read.
func (s Schedule) Decide(pointSeed uint64, res string, attempt int) Decision {
	k := s.key(pointSeed, res)
	draw := xrand.Mix(k + gamma*uint64(attempt+1))
	u := float64(draw>>11) / (1 << 53)
	switch {
	case u < s.ErrorRate:
		return Decision{Mode: ModeError}
	case u < s.ErrorRate+s.LatencyRate:
		lo, hi := s.latencyBounds()
		span := uint64(hi - lo + 1)
		lat := lo + time.Duration(xrand.Mix(draw)%span)
		return Decision{Mode: ModeLatency, Latency: lat}
	case u < s.ErrorRate+s.LatencyRate+s.PartialRate:
		return Decision{Mode: ModePartial}
	default:
		return Decision{}
	}
}

// FailsAttempts reports whether attempts first..first+n-1 of the (point,
// resource) pair are all ModeError — i.e. whether a caller retrying n times
// from ordinal first exhausts its budget (ignoring latency-induced
// timeouts, which depend on the caller's Policy.Timeout).
func (s Schedule) FailsAttempts(pointSeed uint64, res string, first, n int) bool {
	for a := first; a < first+n; a++ {
		if s.Decide(pointSeed, res, a).Mode != ModeError {
			return false
		}
	}
	return true
}

// Stats counts what one injector actually did.
type Stats struct {
	Calls     uint64 // CheckPoint calls received
	Errors    uint64 // ModeError faults injected (dice)
	Latencies uint64 // ModeLatency faults injected
	Partials  uint64 // ModePartial faults injected
	Flaps     uint64 // calls failed by a flap window
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Calls += other.Calls
	s.Errors += other.Errors
	s.Latencies += other.Latencies
	s.Partials += other.Partials
	s.Flaps += other.Flaps
}

// Injector wraps one resource with a fault schedule. It implements
// resource.Fallible; the plain Observe path delegates untouched (faults
// only exist on the checked path, mirroring how the infallible simulation
// never sees them).
type Injector struct {
	inner resource.Resource
	sched Schedule
	name  string

	calls atomic.Uint64 // global ordinal, drives flap windows

	mu       sync.Mutex
	attempts map[uint64]int // point seed → next attempt ordinal

	errors    atomic.Uint64
	latencies atomic.Uint64
	partials  atomic.Uint64
	flaps     atomic.Uint64
}

// Wrap builds an injector over r.
func Wrap(r resource.Resource, s Schedule) *Injector {
	return &Injector{
		inner:    r,
		sched:    s,
		name:     r.Def().Name,
		attempts: make(map[uint64]int),
	}
}

// Def implements resource.Resource.
func (in *Injector) Def() feature.Def { return in.inner.Def() }

// Supports implements resource.Resource.
func (in *Injector) Supports(m synth.Modality) bool { return in.inner.Supports(m) }

// Observe implements resource.Resource by delegating fault-free: the
// unchecked featurization path is never injected, preserving the infallible
// pipeline bit-for-bit.
func (in *Injector) Observe(dst *feature.Vector, i int, e *synth.Entity, m synth.Modality, rng *rand.Rand) {
	in.inner.Observe(dst, i, e, m, rng)
}

// Stats snapshots the injected-fault counters.
func (in *Injector) Stats() Stats {
	return Stats{
		Calls:     in.calls.Load(),
		Errors:    in.errors.Load(),
		Latencies: in.latencies.Load(),
		Partials:  in.partials.Load(),
		Flaps:     in.flaps.Load(),
	}
}

// nextAttempt returns and advances the attempt ordinal for a point.
func (in *Injector) nextAttempt(pointSeed uint64) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	a := in.attempts[pointSeed]
	in.attempts[pointSeed] = a + 1
	return a
}

// CheckPoint implements resource.Fallible: one full service call for p into
// position i of dst, subjected to the schedule.
func (in *Injector) CheckPoint(ctx context.Context, dst *feature.Vector, i int, p *synth.Point) error {
	n := in.calls.Add(1)
	if in.sched.FlapPeriod > 0 && in.sched.FlapOpen > 0 &&
		int((n-1)%uint64(in.sched.FlapPeriod)) < in.sched.FlapOpen {
		in.flaps.Add(1)
		return fmt.Errorf("faulty: %s: flap window (call %d): %w", in.name, n, ErrInjected)
	}
	attempt := in.nextAttempt(p.Seed)
	d := in.sched.Decide(p.Seed, in.name, attempt)
	switch d.Mode {
	case ModeError:
		in.errors.Add(1)
		return fmt.Errorf("faulty: %s: point %d attempt %d: %w", in.name, p.ID, attempt, ErrInjected)
	case ModeLatency:
		in.latencies.Add(1)
		t := time.NewTimer(d.Latency)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
	resource.ObserveInto(dst, i, in.inner, p)
	if d.Mode == ModePartial {
		in.partials.Add(1)
		degrade(dst, i)
	}
	return nil
}

// degrade truncates position i of dst the way a throttled service truncates
// a response: half the categories vanish (a single one leaves nothing),
// numerics drop entirely, the tail of an embedding zeroes out. Deterministic
// in the value, and shape-preserving so the schema still accepts it. i holds
// the value written last, so unsetting it gives its payload room back and
// the rewrite lands in that room: neither write can fail.
func degrade(dst *feature.Vector, i int) {
	if !dst.Present(i) {
		return
	}
	switch dst.Schema().Def(i).Kind {
	case feature.Categorical:
		cats := dst.Categories(i) // aliases the room Unset gives back
		dst.Unset(i)
		if len(cats) > 1 {
			_ = dst.SetCategories(i, cats[:(len(cats)+1)/2], nil)
		}
	case feature.Embedding:
		var buf [64]float64 // composed on the stack at the usual dimensions
		vec := append(buf[:0], dst.Vec(i)...)
		clear(vec[len(vec)/2:])
		dst.Unset(i)
		_ = dst.SetVec(i, vec)
	default:
		dst.Unset(i)
	}
}

// WrapLibrary rebuilds lib with every resource wrapped by an injector under
// sched, returning the wrapped library (unguarded — callers layer
// WithGuards on top) and the injectors in schema order for counter access.
func WrapLibrary(lib *resource.Library, sched Schedule) (*resource.Library, []*Injector, error) {
	inner := lib.Resources()
	wrapped := make([]resource.Resource, len(inner))
	injs := make([]*Injector, len(inner))
	for i, r := range inner {
		injs[i] = Wrap(r, sched)
		wrapped[i] = injs[i]
	}
	out, err := resource.NewLibrary(lib.World(), wrapped...)
	if err != nil {
		return nil, nil, err
	}
	return out, injs, nil
}
