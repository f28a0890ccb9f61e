package serve

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crossmodal/internal/synth"
)

// countingExec records the batch sizes it was handed and scores every point
// with its ID.
type countingExec struct {
	mu      sync.Mutex
	batches []int
	block   chan struct{} // when non-nil, exec waits on it
}

func (e *countingExec) exec(_ context.Context, pts []*synth.Point, scores []float64) (uint64, error) {
	if e.block != nil {
		<-e.block
	}
	e.mu.Lock()
	e.batches = append(e.batches, len(pts))
	e.mu.Unlock()
	for i, p := range pts {
		scores[i] = float64(p.ID)
	}
	return 1, nil
}

func (e *countingExec) batchSizes() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]int(nil), e.batches...)
}

func pt(id int) *synth.Point { return &synth.Point{ID: id} }

// admitCtx counts Submit's admissions: Submit first consults its context when
// it starts waiting for the response — after the request entered the queue.
type admitCtx struct {
	context.Context
	admitted *sync.WaitGroup
}

func (c admitCtx) Done() <-chan struct{} {
	c.admitted.Done()
	return c.Context.Done()
}

// TestBatcherCoalescesConcurrentRequests: requests that queue up behind a
// running batch run together. Gated, not raced — an idle batcher takes
// racing submits one at a time, and rightly so: a first singleton batch is
// held until the other 31 requests are all admitted, then released.
func TestBatcherCoalescesConcurrentRequests(t *testing.T) {
	exec := &countingExec{block: make(chan struct{})}
	entered := make(chan struct{}, 1)
	b := NewBatcher(BatcherConfig{MaxBatchSize: 64},
		func(ctx context.Context, pts []*synth.Point, scores []float64) (uint64, error) {
			select {
			case entered <- struct{}{}:
			default:
			}
			return exec.exec(ctx, pts, scores)
		}, nil)
	defer b.Close()

	const n = 32
	var wg, admitted sync.WaitGroup
	errs := make([]error, n)
	scores := make([]float64, n)
	submit := func(ctx context.Context, i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scores[i], _, errs[i] = b.Submit(ctx, pt(i), time.Time{})
		}()
	}
	submit(context.Background(), 0)
	<-entered // the executor holds [0] and waits on exec.block
	admitted.Add(n - 1)
	for i := 1; i < n; i++ {
		submit(admitCtx{context.Background(), &admitted}, i)
	}
	admitted.Wait()
	close(exec.block)
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if scores[i] != float64(i) {
			t.Fatalf("request %d scored %v", i, scores[i])
		}
	}
	sizes := exec.batchSizes()
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != n {
		t.Fatalf("executed %d points across %v, want %d", total, sizes, n)
	}
	// The held singleton is one batch; the next token holder drains
	// everything queued behind it into the next.
	if sizes[0] != 1 || len(sizes) > 3 {
		t.Errorf("31 requests queued behind a busy executor ran as batches %v, want [1] then at most two", sizes)
	}
}

func TestBatcherMaxBatchSize(t *testing.T) {
	exec := &countingExec{}
	b := NewBatcher(BatcherConfig{MaxBatchSize: 4, QueueDepth: 64}, exec.exec, nil)
	defer b.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := b.Submit(context.Background(), pt(i), time.Time{}); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	for _, s := range exec.batchSizes() {
		if s > 4 {
			t.Errorf("batch of %d exceeds MaxBatchSize 4", s)
		}
	}
}

// TestBatcherRunsLoneRequestWithoutWaiting: a request that finds the
// batcher idle runs at once as a batch of its own; it never waits for
// company.
func TestBatcherRunsLoneRequestWithoutWaiting(t *testing.T) {
	exec := &countingExec{}
	b := NewBatcher(BatcherConfig{MaxBatchSize: 1024}, exec.exec, nil)
	defer b.Close()
	start := time.Now()
	if _, _, err := b.Submit(context.Background(), pt(1), time.Time{}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("single request waited %v for a batch to fill", elapsed)
	}
	if sizes := exec.batchSizes(); len(sizes) != 1 || sizes[0] != 1 {
		t.Fatalf("batches = %v, want [1]", sizes)
	}
}

func TestBatcherShedsWhenQueueFull(t *testing.T) {
	block := make(chan struct{})
	exec := &countingExec{block: block}
	var met = NewMetrics()
	b := NewBatcher(BatcherConfig{MaxBatchSize: 1, QueueDepth: 2}, exec.exec, met)
	defer b.Close()

	// Saturate: the executor blocks the submitter running it (it ignores
	// ctx) until a shed is seen, so the queue fills. Submit from goroutines
	// until ErrQueueFull shows up.
	var full atomic.Int32
	var unblock sync.Once
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			_, _, err := b.Submit(ctx, pt(i), time.Time{})
			if errors.Is(err, ErrQueueFull) {
				full.Add(1)
				unblock.Do(func() { close(block) })
			}
		}(i)
	}
	wg.Wait()
	if full.Load() == 0 {
		t.Error("no request was shed with a depth-2 queue and a blocked executor")
	}
	if met.ShedQueue.Load() != uint64(full.Load()) {
		t.Errorf("shed counter %d vs %d observed errors", met.ShedQueue.Load(), full.Load())
	}
}

func TestBatcherShedsExpiredDeadlines(t *testing.T) {
	block := make(chan struct{})
	exec := &countingExec{block: block}
	met := NewMetrics()
	b := NewBatcher(BatcherConfig{MaxBatchSize: 8, QueueDepth: 64}, exec.exec, met)
	defer b.Close()

	// First batch occupies the executor long enough for the second
	// request's deadline to lapse in the queue.
	var wg sync.WaitGroup
	wg.Add(2)
	var err1, err2 error
	go func() {
		defer wg.Done()
		_, _, err1 = b.Submit(context.Background(), pt(1), time.Time{})
	}()
	time.Sleep(20 * time.Millisecond) // let request 1 reach the blocked executor
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, _, err2 = b.Submit(ctx, pt(2), time.Now().Add(10*time.Millisecond))
	}()
	time.Sleep(50 * time.Millisecond) // request 2's deadline expires while queued
	close(block)
	wg.Wait()
	if err1 != nil {
		t.Errorf("request 1: %v", err1)
	}
	if !errors.Is(err2, ErrDeadline) {
		t.Errorf("request 2 err = %v, want ErrDeadline", err2)
	}
	if met.ShedDeadline.Load() == 0 {
		t.Error("deadline shed not counted")
	}
}

func TestBatcherCloseFailsPending(t *testing.T) {
	exec := &countingExec{}
	b := NewBatcher(BatcherConfig{}, exec.exec, nil)
	if _, _, err := b.Submit(context.Background(), pt(1), time.Time{}); err != nil {
		t.Fatal(err)
	}
	b.Close()
	if _, _, err := b.Submit(context.Background(), pt(2), time.Time{}); !errors.Is(err, ErrStopped) {
		t.Errorf("post-close submit err = %v, want ErrStopped", err)
	}
}

// TestBatcherPacksWholeRequests: queued requests pack into a batch while
// their points fit MaxBatchSize; a request that would overflow it opens the
// next batch, and one larger than MaxBatchSize runs alone — never split.
func TestBatcherPacksWholeRequests(t *testing.T) {
	exec := &countingExec{block: make(chan struct{})}
	entered := make(chan struct{}, 1)
	b := NewBatcher(BatcherConfig{MaxBatchSize: 64},
		func(ctx context.Context, pts []*synth.Point, scores []float64) (uint64, error) {
			select {
			case entered <- struct{}{}:
			default:
			}
			return exec.exec(ctx, pts, scores)
		}, nil)
	defer b.Close()

	var wg sync.WaitGroup
	submit := func(ctx context.Context, first, n int) {
		pts := make([]*synth.Point, n)
		for i := range pts {
			pts[i] = pt(first + i)
		}
		scores := make([]float64, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.SubmitPoints(ctx, pts, scores, time.Time{}); err != nil {
				t.Errorf("request at %d: %v", first, err)
				return
			}
			for i, sc := range scores {
				if sc != float64(first+i) {
					t.Errorf("point %d scored %v", first+i, sc)
					return
				}
			}
		}()
	}
	submit(context.Background(), 0, 1)
	<-entered // the loop holds the singleton; queue the rest behind it in order
	for i, n := range []int{30, 30, 10, 100} {
		var admitted sync.WaitGroup
		admitted.Add(1)
		submit(admitCtx{context.Background(), &admitted}, 1000*(i+1), n)
		admitted.Wait()
	}
	close(exec.block)
	wg.Wait()
	// 30 + 30 fill 60 of 64; the 10 would overflow and opens the next batch;
	// the 100 overflows that one and runs alone.
	if got, want := exec.batchSizes(), []int{1, 60, 10, 100}; !reflect.DeepEqual(got, want) {
		t.Errorf("batches %v, want %v", got, want)
	}
}

// TestBatcherSubmitPointsZeroAllocs is TestBatcherSubmitZeroAllocs for an
// n-point request: the caller's points and score buffer ride in the pooled
// request, and the token holder reuses the batch buffers.
func TestBatcherSubmitPointsZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds bookkeeping allocations")
	}
	b := NewBatcher(BatcherConfig{MaxBatchSize: 8},
		func(_ context.Context, pts []*synth.Point, scores []float64) (uint64, error) {
			for i := range pts {
				scores[i] = 0.5
			}
			return 1, nil
		}, nil)
	defer b.Close()
	pts := make([]*synth.Point, 8)
	for i := range pts {
		pts[i] = pt(i)
	}
	scores := make([]float64, len(pts))
	if _, err := b.SubmitPoints(ctxbg, pts, scores, time.Time{}); err != nil { // warm the pools
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := b.SubmitPoints(ctxbg, pts, scores, time.Time{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocs per steady-state 8-point SubmitPoints, want 0", allocs)
	}
}

// TestBatcherRunsOnSubmitter: the batcher has no goroutine of its own —
// NewBatcher and Close add none — and a lone request's batch runs on the
// goroutine that submitted it.
func TestBatcherRunsOnSubmitter(t *testing.T) {
	before := runtime.NumGoroutine()
	var stack []byte
	b := NewBatcher(BatcherConfig{}, func(_ context.Context, pts []*synth.Point, scores []float64) (uint64, error) {
		buf := make([]byte, 64<<10)
		stack = buf[:runtime.Stack(buf, false)]
		return 1, nil
	}, nil)
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("NewBatcher: %d goroutines, %d before it", n, before)
	}
	if _, _, err := b.Submit(ctxbg, pt(1), time.Time{}); err != nil {
		t.Fatal(err)
	}
	b.Close()
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("after Close: %d goroutines, %d before NewBatcher", n, before)
	}
	if !bytes.Contains(stack, []byte("TestBatcherRunsOnSubmitter")) {
		t.Errorf("ExecFunc ran off the submitting goroutine:\n%s", stack)
	}
}

// TestBatcherDrainsAbandonedFullQueue: when every request in a full queue
// was abandoned by its submitter (a client that went away) and no batch is
// running, nobody is left to drain it; the next submitter must run a batch to
// make room instead of being shed, and so must every one after it.
func TestBatcherDrainsAbandonedFullQueue(t *testing.T) {
	exec := &countingExec{block: make(chan struct{})}
	entered := make(chan struct{}, 1)
	b := NewBatcher(BatcherConfig{MaxBatchSize: 1, QueueDepth: 2},
		func(ctx context.Context, pts []*synth.Point, scores []float64) (uint64, error) {
			select {
			case entered <- struct{}{}:
			default:
			}
			return exec.exec(ctx, pts, scores)
		}, nil)
	defer b.Close()

	held := make(chan error, 1)
	go func() {
		_, _, err := b.Submit(ctxbg, pt(0), time.Time{})
		held <- err
	}()
	<-entered // the executor holds [0] on the goroutine that submitted it
	ctx, cancel := context.WithCancel(ctxbg)
	var wg sync.WaitGroup
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := b.Submit(ctx, pt(i), time.Time{}); !errors.Is(err, context.Canceled) {
				t.Errorf("abandoned request %d: %v, want context.Canceled", i, err)
			}
		}(i)
	}
	for b.QueueDepth() < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	wg.Wait()
	close(exec.block)
	if err := <-held; err != nil {
		t.Fatalf("held request: %v", err)
	}

	// The queue is full of abandoned requests and no batch is running.
	done := make(chan error, 1)
	go func() {
		_, _, err := b.Submit(ctxbg, pt(3), time.Time{})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("submit behind a full queue of abandoned requests: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("submit behind a full queue of abandoned requests has not returned after 2 s")
	}
}

// TestSubmitRacingCloseReturns: a Submit racing Close returns — scored or
// ErrStopped — even when its request is enqueued after Close drained the
// queue, where nobody is left to answer it.
func TestSubmitRacingCloseReturns(t *testing.T) {
	exec := &countingExec{}
	b := NewBatcher(BatcherConfig{MaxBatchSize: 4}, exec.exec, nil)
	const n = 64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if _, _, err := b.Submit(context.Background(), pt(i), time.Time{}); err != nil && !errors.Is(err, ErrStopped) {
				t.Errorf("submit %d: %v", i, err)
			}
		}(i)
	}
	close(start)
	b.Close()
	returned := make(chan struct{})
	go func() { wg.Wait(); close(returned) }()
	select {
	case <-returned:
	case <-time.After(2 * time.Second):
		t.Fatal("a Submit racing Close has not returned after 2 s")
	}
}

// TestBatcherSubmitZeroAllocs is the arena contract on the serving hot
// path: once pools are warm, a steady-state no-deadline Submit allocates
// nothing in the batcher (request, batch, points, and scores all reuse).
func TestBatcherSubmitZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds bookkeeping allocations")
	}
	b := NewBatcher(BatcherConfig{MaxBatchSize: 8, MaxWait: time.Millisecond},
		func(_ context.Context, pts []*synth.Point, scores []float64) (uint64, error) {
			for i := range pts {
				scores[i] = 0.5
			}
			return 1, nil
		}, nil)
	defer b.Close()
	p := pt(1)
	if _, _, err := b.Submit(ctxbg, p, time.Time{}); err != nil { // warm the pools
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := b.Submit(ctxbg, p, time.Time{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocs per steady-state Submit, want 0", allocs)
	}
}
