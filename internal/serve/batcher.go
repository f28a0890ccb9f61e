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
// parallelism: requests from many HTTP handler goroutines coalesce into
// batches that flow through featurestore.Store.Featurize and the predictor's
// batch path together. A request is one queue entry however many points it
// carries, and an entry is never split across batches, so one request is
// scored by one model generation. Admission is a bounded queue — when the
// server falls behind, excess load is shed immediately with a retryable
// error instead of building an unbounded backlog (the classic load-shedding
// discipline of production serving stacks).
//
// Batching is one loop on one goroutine: wait for the first entry, drain
// whatever else is already queued while the batch has room, run the batch,
// repeat. An idle server runs a lone request at once; a busy one finds the
// requests that queued during the last batch and runs them together. A batch
// already parallelizes internally via the Workers knobs. Requests cycle
// through a sync.Pool and the loop owns its point and score buffers, so a
// steady-state request allocates nothing in the batcher.

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
	// MaxBatchSize caps how many points one batch execution scores
	// (default 64); a request carrying more runs alone.
	MaxBatchSize int
	// MaxWait is ignored: with one batch loop, a coalescing window could
	// only close a batch before the loop is free to run it, never add a
	// request to it. It stays for callers that still set it.
	MaxWait time.Duration
	// QueueDepth bounds the admission queue in requests; requests beyond it
	// are shed with ErrQueueFull (default 1024).
	QueueDepth int
}

func (c BatcherConfig) withDefaults() BatcherConfig {
	if c.MaxBatchSize <= 0 {
		c.MaxBatchSize = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	return c
}

// request is one queue entry: a request's points and the buffer their
// scores land in. Requests cycle through a pool: a request is returned only
// from the paths that prove its done channel is empty (refused admission, or
// its response was received). A request abandoned to ctx cancellation is
// left to the garbage collector, because a late response may still land in
// its channel.
type request struct {
	pts      []*synth.Point
	scores   []float64
	deadline time.Time // zero = no deadline
	done     chan response
	// one and oneScore hold Submit's single point and score inline.
	one      [1]*synth.Point
	oneScore [1]float64
}

// response is the terminal state of one request.
type response struct {
	seq uint64 // model sequence number that scored it
	err error
}

// ExecFunc scores one batch of points into scores (len(scores) ==
// len(pts)), returning the sequence number of the model that produced
// them. The scores buffer is owned by the caller and reused across batches.
// ctx carries the batch's scoring budget — the latest deadline among the
// batch's live requests — so featurization work under it is abandoned once
// no request can still use the result.
type ExecFunc func(ctx context.Context, pts []*synth.Point, scores []float64) (uint64, error)

// Batcher coalesces requests into batches. Create with NewBatcher, feed with
// SubmitPoints or Submit, stop with Close.
type Batcher struct {
	cfg     BatcherConfig
	exec    ExecFunc
	met     *Metrics
	queue   chan *request
	stop    chan struct{}
	wg      sync.WaitGroup
	reqPool sync.Pool

	// The batch being run; only the loop goroutine touches these.
	reqs   []*request
	pts    []*synth.Point
	scores []float64
}

// NewBatcher starts the batch loop.
func NewBatcher(cfg BatcherConfig, exec ExecFunc, met *Metrics) *Batcher {
	cfg = cfg.withDefaults()
	b := &Batcher{
		cfg:   cfg,
		exec:  exec,
		met:   met,
		queue: make(chan *request, cfg.QueueDepth),
		stop:  make(chan struct{}),
	}
	b.wg.Add(1)
	go b.loop()
	return b
}

// QueueDepth reports how many admitted requests are waiting to be batched.
func (b *Batcher) QueueDepth() int { return len(b.queue) }

// SubmitPoints admits pts as one request and blocks until they are scored
// into scores (len(scores) >= len(pts)), shed, or ctx ends; it returns the
// sequence number of the one model that scored them all. deadline zero
// means no deadline beyond ctx. When ctx ends first the batcher may still
// write scores later, so the caller must not reuse the buffer.
func (b *Batcher) SubmitPoints(ctx context.Context, pts []*synth.Point, scores []float64, deadline time.Time) (uint64, error) {
	req := b.getRequest(deadline)
	req.pts, req.scores = pts, scores[:len(pts)]
	resp, back := b.await(ctx, req)
	if back {
		b.putRequest(req)
	}
	return resp.seq, resp.err
}

// Submit scores one point: the one-point case of SubmitPoints, through a
// pooled request that holds the point and its score inline.
func (b *Batcher) Submit(ctx context.Context, pt *synth.Point, deadline time.Time) (float64, uint64, error) {
	req := b.getRequest(deadline)
	req.one[0] = pt
	req.pts, req.scores = req.one[:], req.oneScore[:]
	resp, back := b.await(ctx, req)
	if !back {
		return 0, 0, resp.err
	}
	score := req.oneScore[0]
	b.putRequest(req)
	if resp.err != nil {
		return 0, 0, resp.err
	}
	return score, resp.seq, nil
}

func (b *Batcher) getRequest(deadline time.Time) *request {
	req, ok := b.reqPool.Get().(*request)
	if !ok {
		req = &request{done: make(chan response, 1)}
	}
	req.deadline = deadline
	return req
}

// putRequest clears the request's pointers (so a pooled request does not
// pin points or a caller's buffer) and returns it to the pool.
func (b *Batcher) putRequest(req *request) {
	req.pts, req.scores, req.one[0] = nil, nil, nil
	b.reqPool.Put(req)
}

// await admits req and waits for its response. back reports that req came
// back — refused or answered — so its channel is empty and it may be pooled.
func (b *Batcher) await(ctx context.Context, req *request) (resp response, back bool) {
	select {
	case <-b.stop:
		return response{err: ErrStopped}, true
	default:
	}
	select {
	case b.queue <- req:
	default:
		if b.met != nil {
			b.met.ShedQueue.Add(1)
			trace.Count(nil, "serve.shed_queue", 1)
		}
		return response{err: ErrQueueFull}, true
	}
	select {
	case resp := <-req.done:
		return resp, true
	case <-ctx.Done():
		// The request is still in the pipeline; its eventual response is
		// dropped (done is buffered). The caller has already gone away.
		return response{err: ctx.Err()}, false
	}
}

// Close stops the batcher and fails any still-queued requests with
// ErrStopped. The running batch finishes first.
func (b *Batcher) Close() {
	close(b.stop)
	b.wg.Wait()
	for {
		select {
		case req := <-b.queue:
			req.done <- response{err: ErrStopped}
		default:
			return
		}
	}
}

// loop is the batcher's one goroutine. A batch opens on the first queued
// request and absorbs what is already queued behind it up to MaxBatchSize
// points; a request that would overflow the batch opens the next one.
func (b *Batcher) loop() {
	defer b.wg.Done()
	var next *request
	for {
		first := next
		next = nil
		if first == nil {
			select {
			case first = <-b.queue:
			case <-b.stop:
				return
			}
		}
		b.reqs = append(b.reqs[:0], first)
		n := len(first.pts)
	drain:
		for n < b.cfg.MaxBatchSize {
			select {
			case req := <-b.queue:
				if n+len(req.pts) > b.cfg.MaxBatchSize {
					next = req
					break drain
				}
				b.reqs = append(b.reqs, req)
				n += len(req.pts)
			default:
				break drain
			}
		}
		b.run()
		clear(b.reqs)
		clear(b.pts)
	}
}

// run executes the batch in b.reqs: expired requests are shed, the rest are
// scored in one ExecFunc call and answered individually.
func (b *Batcher) run() {
	sctx, span := trace.Start(context.Background(), "serve.batch")
	defer span.End()
	now := time.Now()
	live := b.reqs[:0]
	for _, req := range b.reqs {
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
		return
	}
	b.pts = b.pts[:0]
	for _, req := range live {
		b.pts = append(b.pts, req.pts...)
	}
	if cap(b.scores) < len(b.pts) {
		b.scores = make([]float64, len(b.pts))
	}
	scores := b.scores[:len(b.pts)]
	if b.met != nil {
		b.met.BatchSize.Observe(float64(len(b.pts)))
	}
	span.Add("items", int64(len(b.pts)))
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
	seq, err := b.exec(ctx, b.pts, scores)
	for _, req := range live {
		if err == nil {
			scores = scores[copy(req.scores, scores):]
		}
		req.done <- response{seq: seq, err: err}
	}
}
