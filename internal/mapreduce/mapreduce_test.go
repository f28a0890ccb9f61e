package mapreduce

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapPreservesOrder(t *testing.T) {
	inputs := make([]int, 100)
	for i := range inputs {
		inputs[i] = i
	}
	for _, workers := range []int{0, 1, 4, 200} {
		got, err := Map(context.Background(), Config{Workers: workers}, inputs, func(x int) (int, error) {
			return x * x, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmptyInput(t *testing.T) {
	got, err := Map(nil, Config{}, nil, func(x int) (int, error) { return x, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("empty map: got %v, %v", got, err)
	}
}

func TestMapPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	_, err := Map(context.Background(), Config{Workers: 4}, []int{1, 2, 3, 4}, func(x int) (int, error) {
		if x == 3 {
			return 0, boom
		}
		return x, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "input 2") {
		t.Errorf("err = %v, want it to name the failing input", err)
	}
}

func TestMapHonorsContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	inputs := make([]int, 10000)
	_, err := Map(ctx, Config{Workers: 2}, inputs, func(x int) (int, error) {
		if calls.Add(1) == 5 {
			cancel()
		}
		return x, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := calls.Load(); n >= 10000 {
		t.Errorf("all %d inputs ran despite cancellation", n)
	}
}

// TestMapShortCircuitsOnError: the first mapper error must cancel the job so
// queued inputs are dropped instead of running to completion.
func TestMapShortCircuitsOnError(t *testing.T) {
	const n = 500
	inputs := make([]int, n)
	for i := range inputs {
		inputs[i] = i
	}
	var calls atomic.Int32
	_, err := Map(context.Background(), Config{Workers: 4}, inputs, func(i int) (int, error) {
		calls.Add(1)
		if i == 0 {
			return 0, errors.New("boom")
		}
		time.Sleep(time.Millisecond)
		return i, nil
	})
	if err == nil {
		t.Fatal("expected the mapper error")
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Fatalf("error should wrap the mapper's, got %v", err)
	}
	if got := calls.Load(); got > n/2 {
		t.Errorf("map ran %d of %d inputs after the first error; should short-circuit", got, n)
	}
}

// TestMapParentCancellationReported: with no mapper error, a canceled parent
// context is still reported as such.
func TestMapParentCancellationReported(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	inputs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	if _, err := Map(ctx, Config{Workers: 2}, inputs, func(i int) (int, error) {
		return i, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestMapBlockClaims pins the block-claim contract at the block boundaries:
// every index is mapped exactly once, outputs keep input order, and a job
// shorter than one full block still spreads over more than one worker.
func TestMapBlockClaims(t *testing.T) {
	const block = 64 // blockLen's cap, reached once n >= 8*workers*64
	for _, workers := range []int{1, 2, 3, 16} {
		for _, n := range []int{0, 1, block - 1, block, block + 1, 10*block + 3, 8*16*block + 5} {
			inputs := make([]int, n)
			for i := range inputs {
				inputs[i] = i
			}
			calls := make([]atomic.Int32, n)
			got, err := Map(context.Background(), Config{Workers: workers}, inputs, func(i int) (int, error) {
				calls[i].Add(1)
				return 3*i + 1, nil
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			if len(got) != n {
				t.Fatalf("workers=%d n=%d: %d outputs", workers, n, len(got))
			}
			for i := range got {
				if c := calls[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: input %d mapped %d times", workers, n, i, c)
				}
				if got[i] != 3*i+1 {
					t.Fatalf("workers=%d n=%d: got[%d] = %d, want %d", workers, n, i, got[i], 3*i+1)
				}
			}
		}
	}

	// Block length is a function of (n, workers) only and never lets a
	// short job collapse onto one worker.
	for _, tc := range []struct{ n, workers, want int }{
		{8, 4, 1}, {8, 8, 1}, {63, 2, 3}, {8192, 2, 64}, {8192, 4, 64}, {1000, 16, 7}, {1 << 20, 3, 64},
	} {
		if got := blockLen(tc.n, tc.workers); got != tc.want {
			t.Errorf("blockLen(%d, %d) = %d, want %d", tc.n, tc.workers, got, tc.want)
		}
	}

	// Small n uses more than one worker: two items that each wait for the
	// other to start can only both finish when they run on different
	// goroutines.
	for _, n := range []int{2, 8, block - 1} {
		var started sync.WaitGroup
		started.Add(2)
		inputs := make([]int, n)
		for i := range inputs {
			inputs[i] = i
		}
		_, err := Map(context.Background(), Config{Workers: 2}, inputs, func(i int) (int, error) {
			if i == 0 || i == n-1 {
				started.Done()
				started.Wait()
			}
			return i, nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestForChunksCoversEveryIndexOnce: the chunk runs tile [0, n) exactly, at
// any worker count, with only the last one short.
func TestForChunksCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 3} {
		for _, n := range []int{0, 1, 7, 8, 9, 100} {
			const size = 8
			seen := make([]atomic.Int32, n)
			ForChunks(Config{Workers: workers}, n, size, func(lo, hi int) {
				if lo%size != 0 || hi-lo > size || (hi-lo < size && hi != n) {
					t.Errorf("workers=%d n=%d: bad chunk [%d, %d)", workers, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					seen[i].Add(1)
				}
			})
			for i := range seen {
				if c := seen[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestBlocksTilesAndStops: Blocks tiles [0, n) with consecutive blocks of
// blockLen's length at any worker count (serial included), reports the first
// block error and stops claiming after it, and reports a cancelled context.
func TestBlocksTilesAndStops(t *testing.T) {
	for _, workers := range []int{1, 2, 16} {
		for _, n := range []int{0, 1, 63, 64, 1025} {
			want := blockLen(n, min(workers, max(n, 1)))
			seen := make([]atomic.Int32, n)
			err := Blocks(nil, Config{Workers: workers}, n, func(_ context.Context, lo, hi int) error {
				if lo%want != 0 || hi <= lo || hi-lo > want || (hi-lo < want && hi != n) {
					t.Errorf("workers=%d n=%d: bad block [%d, %d), block length %d", workers, n, lo, hi, want)
				}
				for i := lo; i < hi; i++ {
					seen[i].Add(1)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i := range seen {
				if c := seen[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}

		boom := errors.New("boom")
		var calls atomic.Int32
		err := Blocks(context.Background(), Config{Workers: workers}, 64*100, func(_ context.Context, lo, hi int) error {
			calls.Add(1)
			if lo == 0 {
				return boom
			}
			time.Sleep(time.Millisecond)
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		if got := calls.Load(); got > 50 {
			t.Errorf("workers=%d: %d of 100 blocks ran after the first error", workers, got)
		}

		ctx, cancel := context.WithCancel(context.Background())
		calls.Store(0)
		err = Blocks(ctx, Config{Workers: workers}, 64*100, func(jobCtx context.Context, lo, hi int) error {
			switch n := calls.Add(1); {
			case n == 3:
				cancel()
			case n > 3:
				// A block that started before the cancel reached the job's
				// own context waits for it there, so each other worker runs
				// at most this one block. (The parent's Done closes before
				// its children are canceled, so waiting on it is not enough.)
				<-jobCtx.Done()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got := calls.Load(); got > 3+int32(workers) {
			t.Errorf("workers=%d: %d blocks ran, cancelled during the third", workers, got)
		}
	}
}
