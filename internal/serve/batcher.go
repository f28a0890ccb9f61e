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
// error instead of building an unbounded backlog.
//
// The batcher has no goroutine of its own: a submitter runs batches. After
// enqueueing, it waits for its response or for the one-slot run token; the
// token holder packs one batch from the head of the queue, runs it, answers
// every entry in it and hands the token on. An idle server runs a lone
// request on the request's own goroutine and wakes no other; a busy one finds
// the requests that queued during the last batch and runs them together.
// Requests cycle through a sync.Pool and the token holder reuses the point
// and score buffers, so a steady-state request allocates nothing here.

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
	// MaxWait is ignored: one batch runs at a time, so a coalescing window
	// could never add a request to it. It stays for callers that set it.
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
// scores land in. A request returns to the pool only from the paths that
// prove its done channel empty (refused admission, or response received);
// one abandoned to its ctx or to Close is left to the garbage collector.
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
// no request can still use the result. It runs on a submitter's goroutine,
// which returns only when it does, so it must honor ctx.
type ExecFunc func(ctx context.Context, pts []*synth.Point, scores []float64) (uint64, error)

// Batcher coalesces requests into batches. Create with NewBatcher, feed with
// SubmitPoints or Submit, stop with Close.
type Batcher struct {
	cfg     BatcherConfig
	exec    ExecFunc
	met     *Metrics
	queue   chan *request
	stop    chan struct{}
	token   chan struct{} // one slot: sending into it takes the right to run a batch
	reqPool sync.Pool

	// The batch being run and the request held over for the next one; only
	// the token holder touches these.
	next   *request
	reqs   []*request
	pts    []*synth.Point
	scores []float64
}

// NewBatcher builds a batcher; it starts no goroutine.
func NewBatcher(cfg BatcherConfig, exec ExecFunc, met *Metrics) *Batcher {
	cfg = cfg.withDefaults()
	return &Batcher{
		cfg:   cfg,
		exec:  exec,
		met:   met,
		queue: make(chan *request, cfg.QueueDepth),
		stop:  make(chan struct{}),
		token: make(chan struct{}, 1),
	}
}

// QueueDepth reports how many admitted requests are waiting to be batched.
func (b *Batcher) QueueDepth() int { return len(b.queue) }

// SubmitPoints admits pts as one request and blocks until they are scored
// into scores (len(scores) >= len(pts)), shed, or ctx ends; it returns the
// sequence number of the one model that scored them all. deadline zero
// means no deadline beyond ctx. While it waits, the call may run batches;
// it then returns only when the running batch does. When ctx or Close ends
// the wait first the batcher may still write scores later, so the caller
// must not reuse the buffer.
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
	if !b.enqueue(req) {
		if b.met != nil {
			b.met.ShedQueue.Add(1)
			trace.Count(nil, "serve.shed_queue", 1)
		}
		return response{err: ErrQueueFull}, true
	}
	done := ctx.Done() // read once: a context may count its calls
	for {
		select {
		case resp := <-req.done:
			return resp, true
		case b.token <- struct{}{}:
			if len(req.done) == 0 { // else the batch that handed over the token answered it
				b.run()
			}
			<-b.token
		case <-done:
			// The request is still queued; its eventual response is dropped
			// (done is buffered). The caller has already gone away.
			return response{err: ctx.Err()}, false
		case <-b.stop:
			// Close answers the request later, or already has.
			return response{err: ErrStopped}, false
		}
	}
}

// enqueue admits req. A full queue sheds it unless no batch is running: the
// queued requests' submitters may then all have left on their ctx, leaving
// nobody to drain it, so the caller runs one batch and tries once more.
func (b *Batcher) enqueue(req *request) bool {
	for try := 0; try < 2; try++ {
		select {
		case b.queue <- req:
			return true
		default:
		}
		select {
		case b.token <- struct{}{}:
			b.run()
			<-b.token
		default:
			return false
		}
	}
	return false
}

// Close stops the batcher: it takes the run token for good, which waits out
// the running batch, and fails the held-over and still-queued requests with
// ErrStopped. A submitter whose request is in the running batch returns
// ErrStopped at once, even though that batch may still go on to score it.
func (b *Batcher) Close() {
	close(b.stop)
	b.token <- struct{}{}
	for b.pack(); len(b.reqs) > 0; b.pack() {
		for _, req := range b.reqs {
			req.done <- response{err: ErrStopped}
		}
	}
}

// pack fills b.reqs with one batch from the head of the queue, the held-over
// request first: requests join while their points fit MaxBatchSize, the first
// one that would overflow is held over for the next batch, and one larger
// than MaxBatchSize runs alone.
func (b *Batcher) pack() {
	b.reqs = b.reqs[:0]
	for n := 0; n < b.cfg.MaxBatchSize; {
		req := b.next
		b.next = nil
		if req == nil {
			select {
			case req = <-b.queue:
			default:
				return
			}
		}
		if n > 0 && n+len(req.pts) > b.cfg.MaxBatchSize {
			b.next = req
			return
		}
		b.reqs = append(b.reqs, req)
		n += len(req.pts)
	}
}

// run packs one batch and executes it: expired requests are shed, the rest
// are scored in one ExecFunc call and answered individually. The caller holds
// the token.
func (b *Batcher) run() {
	b.pack()
	defer clear(b.reqs) // a finished batch pins no request
	ctx, span := trace.Start(context.Background(), "serve.batch")
	defer span.End()
	// The batch runs under the latest deadline any live request still has;
	// requests without deadlines leave the batch unbounded.
	now := time.Now()
	var latest time.Time
	bounded := true
	live := b.reqs[:0]
	for _, req := range b.reqs {
		switch {
		case req.deadline.IsZero():
			bounded = false
		case now.After(req.deadline):
			if b.met != nil {
				b.met.ShedDeadline.Add(1)
			}
			span.Add("shed_deadline", 1)
			req.done <- response{err: fmt.Errorf("%w (late by %s)", ErrDeadline, now.Sub(req.deadline))}
			continue
		case req.deadline.After(latest):
			latest = req.deadline
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
	clear(b.pts)
}
