package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"crossmodal/internal/trace"
)

// The batcher is the serving path's admission gate: a request takes one of
// GOMAXPROCS run slots and calls the ExecFunc with all of its items on its
// own goroutine, under its own context, so one model generation scores it.
// At most QueueDepth requests wait for a slot; excess load is shed at once
// with a retryable error instead of building an unbounded backlog.

// Shedding and lifecycle errors. The HTTP layer maps these to status codes
// (429 for shed load, 504 for an expired deadline).
var (
	// ErrQueueFull means admission was refused because QueueDepth requests
	// were already waiting for a run slot.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrDeadline means the request's deadline expired while it waited for a
	// run slot, so it was shed without being scored.
	ErrDeadline = errors.New("serve: deadline expired in queue")
	// ErrStopped means the batcher shut down before the request ran.
	ErrStopped = errors.New("serve: batcher stopped")
)

// BatcherConfig tunes admission control.
type BatcherConfig struct {
	// MaxBatchSize and MaxWait are ignored: every request scores alone, as
	// one ExecFunc call. They stay for callers that set them.
	MaxBatchSize int
	MaxWait      time.Duration
	// QueueDepth bounds how many requests may wait for a run slot; requests
	// beyond it are shed with ErrQueueFull (default 1024).
	QueueDepth int
}

// ExecFunc scores items into scores (len(scores) == len(items)), returning
// the sequence number of the model that produced them. It runs on the
// submitting goroutine under the submitter's ctx, which carries the
// request's scoring budget, so it must honor ctx. The server's items are
// feature-store keys; T is a parameter so an executor over points type-checks
// too.
type ExecFunc[T any] func(ctx context.Context, items []T, scores []float64) (uint64, error)

// Batcher admits requests and runs each on its submitter's goroutine. Create
// with NewBatcher, feed with SubmitPoints or Submit, stop with Close.
type Batcher[T any] struct {
	exec    ExecFunc[T]
	met     *Metrics
	depth   int64
	slots   chan struct{} // one buffered place per run slot: sending into it takes one
	waiting atomic.Int64  // requests admitted but not yet holding a slot
	stop    chan struct{}
	nslots  int // cap(slots)
}

// NewBatcher builds a batcher with runtime.GOMAXPROCS(0) run slots; it starts
// no goroutine. A nil met counts into a private metric set.
func NewBatcher[T any](cfg BatcherConfig, exec ExecFunc[T], met *Metrics) *Batcher[T] {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if met == nil {
		met = NewMetrics()
	}
	n := runtime.GOMAXPROCS(0)
	return &Batcher[T]{
		exec:   exec,
		met:    met,
		depth:  int64(cfg.QueueDepth),
		slots:  make(chan struct{}, n),
		nslots: n,
		stop:   make(chan struct{}),
	}
}

// QueueDepth reports how many admitted requests are waiting for a run slot.
func (b *Batcher[T]) QueueDepth() int { return int(b.waiting.Load()) }

// SubmitPoints scores items into scores (len(scores) >= len(items)) as one
// request and returns the sequence number of the one model that scored them
// all. It returns once the ExecFunc has, or when the request is shed: the
// queue is full, deadline (zero means none beyond ctx) passed before a slot
// freed up, ctx ended while waiting, or the batcher was closed.
func (b *Batcher[T]) SubmitPoints(ctx context.Context, items []T, scores []float64, deadline time.Time) (uint64, error) {
	if err := b.acquire(ctx); err != nil {
		return 0, err
	}
	defer func() { <-b.slots }()
	if !deadline.IsZero() {
		if late := time.Since(deadline); late > 0 {
			b.met.ShedDeadline.Add(1)
			return 0, fmt.Errorf("%w (late by %s)", ErrDeadline, late)
		}
	}
	ctx, span := trace.Start(ctx, "serve.batch")
	defer span.End()
	span.Add("items", int64(len(items)))
	b.met.BatchSize.Observe(float64(len(items)))
	return b.exec(ctx, items, scores[:len(items)])
}

// Submit scores one item: the one-item case of SubmitPoints.
func (b *Batcher[T]) Submit(ctx context.Context, item T, deadline time.Time) (float64, uint64, error) {
	scores := []float64{0}
	seq, err := b.SubmitPoints(ctx, []T{item}, scores, deadline)
	return scores[0], seq, err
}

// acquire takes a run slot, waiting for one if none is free and fewer than
// QueueDepth requests already wait.
func (b *Batcher[T]) acquire(ctx context.Context) error {
	select {
	case <-b.stop:
		return ErrStopped
	case b.slots <- struct{}{}:
		return nil
	default:
	}
	if b.waiting.Add(1) > b.depth {
		b.waiting.Add(-1)
		b.met.ShedQueue.Add(1)
		trace.Count(nil, "serve.shed_queue", 1)
		return ErrQueueFull
	}
	defer func() { b.waiting.Add(-1) }()
	select {
	case b.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-b.stop:
		return ErrStopped
	}
}

// Close stops the batcher: later requests, and those still waiting, fail with
// ErrStopped. It takes every run slot for good, so it returns only after the
// requests already scoring have.
func (b *Batcher[T]) Close() {
	close(b.stop)
	for range b.nslots {
		b.slots <- struct{}{}
	}
}
