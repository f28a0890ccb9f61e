package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"crossmodal/internal/synth"
	"crossmodal/internal/trace"
)

// The micro-batcher is the serving-side twin of the training engine's batch
// parallelism: individual requests from many HTTP handler goroutines
// coalesce into batches that flow through featurestore.Store.Featurize and
// the predictor's batch path together, amortizing the parallel batch
// machinery (PR 1) across concurrent callers. Admission is a bounded queue —
// when the server falls behind, excess load is shed immediately with a
// retryable error instead of building an unbounded backlog (the classic
// load-shedding discipline of production serving stacks).
//
// The hot path is arena-style: request and batch structs cycle through
// sync.Pools and the score buffer belongs to the batch, so a steady-state
// request allocates nothing in the batcher. Dispatch is adaptive — a batch
// hands off immediately when the executor is idle (latency-bound traffic
// never pays the coalescing window) and only waits out MaxWait when it is
// busy (throughput-bound traffic batches up). One goroutine executes batches;
// a batch already parallelizes internally via the Workers knobs.

// Shedding and lifecycle errors. The HTTP layer maps these to status codes
// (429 for shed load, 503 before a model is loaded).
var (
	// ErrQueueFull means admission was refused because the bounded queue
	// was at capacity.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrDeadline means the request's deadline expired while it waited in
	// the queue, so it was shed without being scored.
	ErrDeadline = errors.New("serve: deadline expired in queue")
	// ErrStopped means the batcher shut down before the request ran.
	ErrStopped = errors.New("serve: batcher stopped")
)

// BatcherConfig tunes the micro-batcher.
type BatcherConfig struct {
	// MaxBatchSize caps how many queued requests one batch execution
	// scores (default 64).
	MaxBatchSize int
	// MaxWait bounds how long the first request of a batch waits for
	// company when the executor is busy; with an idle executor the batch
	// dispatches immediately (default 2ms).
	MaxWait time.Duration
	// QueueDepth bounds the admission queue; requests beyond it are shed
	// with ErrQueueFull (default 1024).
	QueueDepth int
}

func (c BatcherConfig) withDefaults() BatcherConfig {
	if c.MaxBatchSize <= 0 {
		c.MaxBatchSize = 64
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 2 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	return c
}

// request is one enqueued point waiting to be scored. Requests cycle
// through a pool: a request is returned only from the paths that prove its
// done channel is empty (refused admission, or its response was received).
// A request abandoned to ctx cancellation is left to the garbage collector,
// because a late response may still land in its channel.
type request struct {
	pt       *synth.Point
	deadline time.Time // zero = no deadline
	done     chan response
}

// response is the terminal state of one request.
type response struct {
	score float64
	seq   uint64 // model sequence number that scored it
	err   error
}

// batch is one dispatch unit: the collected requests plus the reusable
// point and score buffers their execution fills. Batches cycle through a
// pool; the executor owns a batch from dispatch until it returns it.
type batch struct {
	reqs   []*request
	pts    []*synth.Point
	scores []float64
}

// ExecFunc scores one batch of points into scores (len(scores) ==
// len(pts)), returning the sequence number of the model that produced
// them. The scores buffer is owned by the caller and reused across batches.
// ctx carries the batch's scoring budget — the latest deadline among the
// batch's live requests — so featurization work under it is abandoned once
// no request can still use the result.
type ExecFunc func(ctx context.Context, pts []*synth.Point, scores []float64) (uint64, error)

// Batcher coalesces single-point requests into batches. Create with
// NewBatcher, feed with Submit, stop with Close.
type Batcher struct {
	cfg       BatcherConfig
	exec      ExecFunc
	met       *Metrics
	queue     chan *request
	execQ     chan *batch
	stop      chan struct{}
	wg        sync.WaitGroup
	reqPool   sync.Pool
	batchPool sync.Pool
}

// NewBatcher starts the dispatcher and executor goroutines.
func NewBatcher(cfg BatcherConfig, exec ExecFunc, met *Metrics) *Batcher {
	cfg = cfg.withDefaults()
	b := &Batcher{
		cfg:   cfg,
		exec:  exec,
		met:   met,
		queue: make(chan *request, cfg.QueueDepth),
		execQ: make(chan *batch),
		stop:  make(chan struct{}),
	}
	b.wg.Add(2)
	go b.dispatch()
	go b.executor()
	return b
}

// QueueDepth reports how many admitted requests are waiting to be batched.
func (b *Batcher) QueueDepth() int { return len(b.queue) }

func (b *Batcher) getBatch() *batch {
	if bt, ok := b.batchPool.Get().(*batch); ok {
		return bt
	}
	return &batch{
		reqs:   make([]*request, 0, b.cfg.MaxBatchSize),
		pts:    make([]*synth.Point, 0, b.cfg.MaxBatchSize),
		scores: make([]float64, b.cfg.MaxBatchSize),
	}
}

// putBatch clears the batch's pointers (so a pooled batch does not pin
// requests or points past its lifetime) and returns it to the pool.
func (b *Batcher) putBatch(bt *batch) {
	for i := range bt.reqs {
		bt.reqs[i] = nil
	}
	for i := range bt.pts {
		bt.pts[i] = nil
	}
	bt.reqs, bt.pts = bt.reqs[:0], bt.pts[:0]
	b.batchPool.Put(bt)
}

// Submit admits one point and blocks until it is scored, shed, or ctx ends.
// deadline zero means no deadline beyond ctx.
func (b *Batcher) Submit(ctx context.Context, pt *synth.Point, deadline time.Time) (float64, uint64, error) {
	select {
	case <-b.stop:
		return 0, 0, ErrStopped
	default:
	}
	req, ok := b.reqPool.Get().(*request)
	if !ok {
		req = &request{done: make(chan response, 1)}
	}
	req.pt, req.deadline = pt, deadline
	select {
	case b.queue <- req:
	default:
		req.pt = nil
		b.reqPool.Put(req) // never admitted: its channel is provably empty
		if b.met != nil {
			b.met.ShedQueue.Add(1)
			trace.Count(nil, "serve.shed_queue", 1)
		}
		return 0, 0, ErrQueueFull
	}
	select {
	case resp := <-req.done:
		req.pt = nil
		b.reqPool.Put(req) // answered: the buffered channel is empty again
		return resp.score, resp.seq, resp.err
	case <-ctx.Done():
		// The request is still in the pipeline; its eventual response is
		// dropped (done is buffered). The caller has already gone away. Do
		// NOT pool the request — the late response occupies its channel.
		return 0, 0, ctx.Err()
	}
}

// Close stops the batcher and fails any still-queued requests with
// ErrStopped. In-flight batches finish first.
func (b *Batcher) Close() {
	close(b.stop)
	b.wg.Wait()
	// Drain whatever was admitted but never dispatched.
	for {
		select {
		case req := <-b.queue:
			req.done <- response{err: ErrStopped}
		default:
			return
		}
	}
}

// dispatch collects requests into batches. A batch opens on its first
// request, greedily absorbs everything already queued, and then hands off
// immediately if the executor is free — the common idle-server case pays no
// wait. Only when it is busy does the batch hold its MaxWait
// window (more requests can only help a batch that must wait anyway).
func (b *Batcher) dispatch() {
	defer b.wg.Done()
	defer close(b.execQ)
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
outer:
	for {
		var first *request
		select {
		case first = <-b.queue:
		case <-b.stop:
			return
		}
		bt := b.getBatch()
		bt.reqs = append(bt.reqs, first)
	drain:
		for len(bt.reqs) < b.cfg.MaxBatchSize {
			select {
			case req := <-b.queue:
				bt.reqs = append(bt.reqs, req)
			default:
				break drain
			}
		}
		if len(bt.reqs) < b.cfg.MaxBatchSize {
			select {
			case b.execQ <- bt: // the executor was idle: dispatch now
				continue
			case <-b.stop:
				b.failBatch(bt)
				return
			default: // executor busy: collect while we wait
			}
			timer.Reset(b.cfg.MaxWait)
		collect:
			for len(bt.reqs) < b.cfg.MaxBatchSize {
				select {
				case req := <-b.queue:
					bt.reqs = append(bt.reqs, req)
				case b.execQ <- bt:
					// The executor freed up mid-window; it owns bt now.
					if !timer.Stop() {
						<-timer.C
					}
					continue outer
				case <-timer.C:
					break collect
				case <-b.stop:
					// Shutting down: run what we have, then exit.
					break collect
				}
			}
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		}
		select {
		case b.execQ <- bt:
		case <-b.stop:
			// The executor may already be gone; fail the batch directly.
			b.failBatch(bt)
			return
		}
		select {
		case <-b.stop:
			return
		default:
		}
	}
}

// failBatch answers every request in bt with ErrStopped.
func (b *Batcher) failBatch(bt *batch) {
	for _, req := range bt.reqs {
		req.done <- response{err: ErrStopped}
	}
}

// executor runs batches: expired requests are shed, the rest are scored in
// one ExecFunc call and answered individually.
func (b *Batcher) executor() {
	defer b.wg.Done()
	for bt := range b.execQ {
		b.run(bt)
	}
}

// run executes one batch and returns it to the pool.
func (b *Batcher) run(bt *batch) {
	sctx, span := trace.Start(context.Background(), "serve.batch")
	defer span.End()
	now := time.Now()
	live := bt.reqs[:0]
	for _, req := range bt.reqs {
		if !req.deadline.IsZero() && now.After(req.deadline) {
			if b.met != nil {
				b.met.ShedDeadline.Add(1)
			}
			span.Add("shed_deadline", 1)
			req.done <- response{err: fmt.Errorf("%w (late by %s)", ErrDeadline, now.Sub(req.deadline))}
			continue
		}
		live = append(live, req)
	}
	if len(live) == 0 {
		b.putBatch(bt)
		return
	}
	if b.met != nil {
		b.met.BatchSize.Observe(float64(len(live)))
	}
	bt.pts = bt.pts[:0]
	for _, req := range live {
		bt.pts = append(bt.pts, req.pt)
	}
	if cap(bt.scores) < len(live) {
		bt.scores = make([]float64, len(live))
	}
	scores := bt.scores[:len(live)]
	span.Add("items", int64(len(live)))
	// The batch runs under the latest deadline any live request still has;
	// requests without deadlines leave the batch unbounded.
	ctx := sctx
	var latest time.Time
	bounded := true
	for _, req := range live {
		if req.deadline.IsZero() {
			bounded = false
			break
		}
		if req.deadline.After(latest) {
			latest = req.deadline
		}
	}
	if bounded {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, latest)
		defer cancel()
	}
	seq, err := b.exec(ctx, bt.pts, scores)
	if err != nil {
		for _, req := range live {
			req.done <- response{err: err}
		}
		b.putBatch(bt)
		return
	}
	for i, req := range live {
		req.done <- response{score: scores[i], seq: seq}
	}
	b.putBatch(bt)
}
