package serve

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crossmodal/internal/synth"
)

// countingExec records the request sizes it was handed and scores every
// point with its ID.
type countingExec struct {
	mu      sync.Mutex
	batches []int
	entered chan struct{} // when non-nil, exec signals on it as it starts
	block   chan struct{} // when non-nil, exec then waits on it
}

func (e *countingExec) exec(_ context.Context, pts []*synth.Point, scores []float64) (uint64, error) {
	if e.entered != nil {
		e.entered <- struct{}{}
	}
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

// wedgedExec is a countingExec whose calls signal entered and then hold
// until block is closed. entered holds more signals than any test makes
// calls, so a call nobody waits for never blocks on it.
func wedgedExec() *countingExec {
	return &countingExec{entered: make(chan struct{}, 1024), block: make(chan struct{})}
}

// occupy takes every run slot of b with a request held inside exec (a
// wedgedExec) and returns once all of them are running; the returned wait
// blocks until they have all returned, and fails t if one was not scored.
func occupy(t *testing.T, b *Batcher[*synth.Point], exec *countingExec) (wait func()) {
	t.Helper()
	var wg sync.WaitGroup
	for i := range cap(b.slots) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := b.Submit(ctxbg, pt(i), time.Time{}); err != nil {
				t.Errorf("slot holder %d: %v", i, err)
			}
		}()
		<-exec.entered
	}
	return wg.Wait
}

// TestBatcherRunsLoneRequestWithoutWaiting: a request that finds the
// batcher idle runs at once, as one ExecFunc call; it never waits for
// company.
func TestBatcherRunsLoneRequestWithoutWaiting(t *testing.T) {
	exec := &countingExec{}
	b := NewBatcher(BatcherConfig{}, exec.exec, nil)
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
	b := NewBatcher(BatcherConfig{QueueDepth: 2}, exec.exec, met)
	defer b.Close()

	// Saturate: the executor blocks the submitters running it (it ignores
	// ctx) until a shed is seen, so every run slot and then the queue fill.
	// Submit from goroutines until ErrQueueFull shows up.
	var full atomic.Int32
	var unblock sync.Once
	var wg sync.WaitGroup
	for i := 0; i < cap(b.slots)+32; i++ {
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
	exec := wedgedExec()
	met := NewMetrics()
	b := NewBatcher(BatcherConfig{QueueDepth: 64}, exec.exec, met)
	defer b.Close()

	// The requests holding every run slot occupy the executor long enough
	// for the next request's deadline to lapse while it waits for one.
	held := occupy(t, b, exec)
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, _, err = b.Submit(ctx, pt(-1), time.Now().Add(10*time.Millisecond))
	}()
	time.Sleep(50 * time.Millisecond) // its deadline expires while queued
	close(exec.block)
	held()
	<-done
	if !errors.Is(err, ErrDeadline) {
		t.Errorf("queued request err = %v, want ErrDeadline", err)
	}
	if got := met.ShedDeadline.Load(); got != 1 {
		t.Errorf("ShedDeadline = %d after one deadline shed, want 1", got)
	}
}

// TestBatcherCloseFailsPending: with every run slot held and the queue full,
// Close fails the waiting requests with ErrStopped, returns only once the
// requests already scoring have, and every later request fails with
// ErrStopped too.
func TestBatcherCloseFailsPending(t *testing.T) {
	exec := wedgedExec()
	const depth = 4
	b := NewBatcher(BatcherConfig{QueueDepth: depth}, exec.exec, nil)
	held := occupy(t, b, exec)
	waiters := make(chan error, depth)
	for i := range depth {
		go func() {
			_, _, err := b.Submit(context.Background(), pt(100+i), time.Time{})
			waiters <- err
		}()
	}
	for b.QueueDepth() < depth {
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() { b.Close(); close(closed) }()
	for range depth {
		if err := <-waiters; !errors.Is(err, ErrStopped) {
			t.Errorf("waiting request err = %v, want ErrStopped", err)
		}
	}
	select {
	case <-closed:
		t.Error("Close returned while requests were still scoring")
	default:
	}
	close(exec.block)
	held()
	<-closed
	if _, _, err := b.Submit(context.Background(), pt(2), time.Time{}); !errors.Is(err, ErrStopped) {
		t.Errorf("post-close submit err = %v, want ErrStopped", err)
	}
}

// TestRequestsScoreConcurrently: a request never waits for another's
// scoring while a run slot is free — with two slots, two requests whose
// ExecFuncs each wait for the other both finish.
func TestRequestsScoreConcurrently(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var arrived sync.WaitGroup
	arrived.Add(2)
	both := make(chan struct{})
	go func() { arrived.Wait(); close(both) }()
	b := NewBatcher(BatcherConfig{}, func(_ context.Context, pts []*synth.Point, scores []float64) (uint64, error) {
		arrived.Done()
		select {
		case <-both:
			return 1, nil
		case <-time.After(2 * time.Second):
			return 0, errors.New("the other request did not start scoring within 2 s")
		}
	}, nil)
	defer b.Close()
	errs := make(chan error, 2)
	for i := range 2 {
		go func() {
			_, err := b.SubmitPoints(ctxbg, []*synth.Point{pt(i)}, make([]float64, 1), time.Time{})
			errs <- err
		}()
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestBatcherSubmitPointsZeroAllocs: admission allocates nothing — an n-point
// request scores straight from the caller's points into its score buffer.
func TestBatcherSubmitPointsZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds bookkeeping allocations")
	}
	b := NewBatcher(BatcherConfig{},
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
	if _, err := b.SubmitPoints(ctxbg, pts, scores, time.Time{}); err != nil { // warm up
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
// NewBatcher and Close add none — and a request runs on the goroutine that
// submitted it.
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
// was abandoned by its submitter (a client that went away) while every run
// slot was held, the next submitter must not be shed once the slots free up,
// and neither must any one after it.
func TestBatcherDrainsAbandonedFullQueue(t *testing.T) {
	exec := wedgedExec()
	b := NewBatcher(BatcherConfig{QueueDepth: 2}, exec.exec, nil)
	defer b.Close()

	held := occupy(t, b, exec) // the executor holds every slot on the goroutines that submitted
	ctx, cancel := context.WithCancel(ctxbg)
	var wg sync.WaitGroup
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := b.Submit(ctx, pt(100+i), time.Time{}); !errors.Is(err, context.Canceled) {
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
	held()

	// The queue filled with abandoned requests and no request is running.
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

// TestSubmitRacingCloseReturns: Submits racing Close — released together
// with the requests holding every run slot — each return, scored or
// ErrStopped: a waiter either wins a freed slot before Close takes them all
// or sees the batcher stopped.
func TestSubmitRacingCloseReturns(t *testing.T) {
	const n = 64
	exec := wedgedExec()
	b := NewBatcher(BatcherConfig{QueueDepth: n}, exec.exec, nil)
	held := occupy(t, b, exec)
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
	close(exec.block)
	b.Close()
	held()
	returned := make(chan struct{})
	go func() { wg.Wait(); close(returned) }()
	select {
	case <-returned:
	case <-time.After(2 * time.Second):
		t.Fatal("a Submit racing Close has not returned after 2 s")
	}
}
