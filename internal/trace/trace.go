// Package trace is the pipeline's zero-dependency structured tracing and
// stage-metrics layer. A Tracer records nestable spans — one per pipeline
// stage, carrying typed attributes and monotonic counters — parented through
// context.Context, and exports them as a human-readable stage tree
// (WriteSummary) or Chrome trace_event JSON loadable in chrome://tracing and
// Perfetto (WriteChromeTrace). Spans also tag the running goroutine with
// runtime/pprof labels, so CPU profiles taken during a traced run segment by
// stage.
//
// The package-level Start/Count/Set functions route through a process-wide
// default tracer. When no tracer is installed (the default) they are true
// no-ops: no allocations, no RNG draws, no reordering of work — a disabled
// binary is bit-identical to an untraced one (asserted by the golden
// pipeline test and AllocsPerRun benchmarks).
package trace

import (
	"context"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// current is the process-wide default tracer; nil means tracing is disabled
// and every package-level entry point is a no-op.
var current atomic.Pointer[Tracer]

// SetDefault installs t as the process-wide tracer. Pass nil to disable
// tracing.
func SetDefault(t *Tracer) {
	if t == nil {
		current.Store(nil)
		return
	}
	current.Store(t)
}

// Enabled reports whether a process-wide tracer is installed.
func Enabled() bool { return current.Load() != nil }

// attrKind discriminates the typed attribute union.
type attrKind uint8

const (
	attrInt attrKind = iota
	attrFloat
	attrStr
	attrCount // like attrInt, but Add-accumulated (monotonic counter)
)

// Attr is one typed span attribute.
type Attr struct {
	Key   string
	kind  attrKind
	i     int64
	f     float64
	s     string
	count bool
}

// Value returns the attribute's value as an interface for export.
func (a Attr) Value() interface{} {
	switch a.kind {
	case attrFloat:
		return a.f
	case attrStr:
		return a.s
	default:
		return a.i
	}
}

// IsCounter reports whether the attribute is a monotonic counter (set via
// Add) rather than a plain attribute.
func (a Attr) IsCounter() bool { return a.kind == attrCount }

// spanRecord is the tracer's storage for one span.
type spanRecord struct {
	name   string
	parent int32 // span id of the parent; 0 = root
	tid    int32 // export lane (chrome tid)
	start  time.Duration
	end    time.Duration // -1 while open
	attrs  []Attr
}

// Tracer records spans. Safe for concurrent use; create with New.
type Tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []spanRecord
	// lanes tracks the latest end time per export lane so sequential root
	// spans share a row in the Chrome view while overlapping ones (e.g.
	// concurrent serving batches) get their own.
	lanes []time.Duration
	// counters accumulates process-wide counts reported outside any span
	// (e.g. shed requests between batches).
	counters map[string]int64
}

// New returns an empty tracer whose clock starts now.
func New() *Tracer {
	return &Tracer{epoch: time.Now(), counters: make(map[string]int64)}
}

// ctxKey carries the current span id through a context.
type ctxKey struct{}

// Span is a handle on one started span. The zero Span is a valid no-op, so
// the disabled path allocates nothing.
type Span struct {
	t  *Tracer
	id int32
	// prev restores the goroutine's pprof labels at End.
	prev context.Context
}

// Start opens a span on the default tracer, nested under the span carried by
// ctx (if any). The returned context carries the new span and its pprof
// stage label; pass it to child stages. When tracing is disabled the call
// returns its arguments' no-op equivalents without allocating.
func Start(ctx context.Context, name string) (context.Context, Span) {
	t := current.Load()
	if t == nil {
		return ctx, Span{}
	}
	return t.Start(ctx, name)
}

// Start opens a span on this tracer; see the package-level Start.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, Span) {
	if ctx == nil {
		ctx = context.Background()
	}
	parent, _ := ctx.Value(ctxKey{}).(int32)
	now := time.Since(t.epoch)
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	var tid int32
	if parent > 0 && int(parent) <= len(t.spans) {
		tid = t.spans[parent-1].tid
	} else {
		parent = 0
		tid = t.laneForLocked(now)
	}
	t.spans = append(t.spans, spanRecord{name: name, parent: parent, tid: tid, start: now, end: -1})
	t.mu.Unlock()

	prev := ctx
	ctx = context.WithValue(ctx, ctxKey{}, id)
	ctx = pprof.WithLabels(ctx, pprof.Labels("stage", name))
	pprof.SetGoroutineLabels(ctx)
	return ctx, Span{t: t, id: id, prev: prev}
}

// laneForLocked assigns a root span to the first free export lane.
func (t *Tracer) laneForLocked(start time.Duration) int32 {
	for i, end := range t.lanes {
		if end >= 0 && end <= start {
			t.lanes[i] = -1 // lane busy until the span ends
			return int32(i + 1)
		}
	}
	t.lanes = append(t.lanes, -1)
	return int32(len(t.lanes))
}

// End closes the span and restores the goroutine's previous pprof labels.
// Ending the zero Span, or ending twice, is a no-op.
func (s Span) End() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.epoch)
	s.t.mu.Lock()
	rec := &s.t.spans[s.id-1]
	if rec.end < 0 {
		rec.end = now
		if rec.parent == 0 && int(rec.tid) <= len(s.t.lanes) {
			s.t.lanes[rec.tid-1] = now
		}
	}
	s.t.mu.Unlock()
	if s.prev != nil {
		pprof.SetGoroutineLabels(s.prev)
	}
}

// setAttr inserts or replaces (or, for counters, accumulates into) the
// span's attribute named key.
func (s Span) setAttr(a Attr) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	rec := &s.t.spans[s.id-1]
	for i := range rec.attrs {
		if rec.attrs[i].Key == a.Key {
			if a.kind == attrCount && rec.attrs[i].kind == attrCount {
				rec.attrs[i].i += a.i
			} else {
				rec.attrs[i] = a
			}
			s.t.mu.Unlock()
			return
		}
	}
	rec.attrs = append(rec.attrs, a)
	s.t.mu.Unlock()
}

// SetInt sets an integer attribute on the span.
func (s Span) SetInt(key string, v int64) { s.setAttr(Attr{Key: key, kind: attrInt, i: v}) }

// SetFloat sets a float attribute on the span.
func (s Span) SetFloat(key string, v float64) { s.setAttr(Attr{Key: key, kind: attrFloat, f: v}) }

// SetStr sets a string attribute on the span.
func (s Span) SetStr(key, v string) { s.setAttr(Attr{Key: key, kind: attrStr, s: v}) }

// Add accumulates a monotonic counter on the span (items in/out, edges,
// shed requests, ...). Counters with the same key sum across calls and are
// aggregated across same-named spans by WriteSummary.
func (s Span) Add(key string, delta int64) { s.setAttr(Attr{Key: key, kind: attrCount, i: delta}) }

// Count adds delta to the counter named key on the span carried by ctx, or
// to the tracer's process-wide counters when ctx carries no span. No-op
// (zero allocations) when tracing is disabled.
func Count(ctx context.Context, key string, delta int64) {
	t := current.Load()
	if t == nil {
		return
	}
	if ctx != nil {
		if id, ok := ctx.Value(ctxKey{}).(int32); ok {
			Span{t: t, id: id}.Add(key, delta)
			return
		}
	}
	t.mu.Lock()
	t.counters[key] += delta
	t.mu.Unlock()
}

// SetInt sets an integer attribute on the span carried by ctx; no-op when
// tracing is disabled or ctx carries no span.
func SetInt(ctx context.Context, key string, v int64) {
	t := current.Load()
	if t == nil || ctx == nil {
		return
	}
	if id, ok := ctx.Value(ctxKey{}).(int32); ok {
		Span{t: t, id: id}.SetInt(key, v)
	}
}

// Counters returns a copy of the tracer's process-wide (spanless) counters.
func (t *Tracer) Counters() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64, len(t.counters))
	for k, v := range t.counters {
		out[k] = v
	}
	return out
}

// snapshot copies the span table, closing still-open spans at the current
// clock so exports of a live tracer (e.g. a serving process) are valid.
func (t *Tracer) snapshot() []spanRecord {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]spanRecord, len(t.spans))
	copy(out, t.spans)
	for i := range out {
		if out[i].end < 0 {
			out[i].end = now
		}
		out[i].attrs = append([]Attr(nil), out[i].attrs...)
	}
	return out
}

// Len returns how many spans the tracer has recorded.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// SpanNames returns the distinct span names recorded so far, in first-seen
// order. Tests use it to assert stage coverage.
func (t *Tracer) SpanNames() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := make(map[string]bool, len(t.spans))
	var names []string
	for _, rec := range t.spans {
		if !seen[rec.name] {
			seen[rec.name] = true
			names = append(names, rec.name)
		}
	}
	return names
}
