// Package mapreduce is a small in-process parallel map engine.
//
// The paper implements feature generation and labeling-function application
// "using our MapReduce framework" (§6.3); this package provides the map half
// of that programming model on a single machine, sharding work across
// goroutine workers: per item (Map), per claimed block of items (Blocks — the
// featurization job, one slab per block), or per fixed-size run (ForChunks —
// model inference, vectorization, column counting). Reductions live with
// their stages, which fold per-worker partials themselves.
package mapreduce

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Config controls job execution.
type Config struct {
	// Workers is the number of parallel mapper goroutines.
	// Zero or negative means GOMAXPROCS.
	Workers int
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Map applies fn to every input in parallel and returns the outputs in input
// order. The first error cancels the job's context, so unclaimed work is
// dropped and only already in-flight calls finish; the first error is
// returned. A nil context is treated as context.Background().
func Map[In, Out any](ctx context.Context, cfg Config, inputs []In, fn func(In) (Out, error)) ([]Out, error) {
	outputs := make([]Out, len(inputs))
	err := Blocks(ctx, cfg, len(inputs), func(ctx context.Context, lo, hi int) error {
		// Polling the Done channel is a lock-free read; ctx.Err() takes the
		// context's mutex, a cache line every worker would write per item.
		done := ctx.Done()
		for i := lo; i < hi; i++ {
			select {
			case <-done:
				return nil // Blocks reports the cancellation
			default:
			}
			out, err := fn(inputs[i])
			if err != nil {
				return fmt.Errorf("mapreduce: map input %d: %w", i, err)
			}
			outputs[i] = out
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return outputs, nil
}

// Blocks calls fn(ctx, lo, hi) for consecutive blocks tiling [0, n), in
// parallel: Map for a mapper that amortises something — a slab, a generator —
// over the items of a block and writes its own outputs. The first error
// cancels the job's context (the one fn receives), so unclaimed blocks are
// dropped, and is returned; a cancelled context is reported as its error. A
// nil context is treated as context.Background().
//
// Workers claim the blocks from one atomic cursor, so the hand-off cost is
// paid per block rather than per item. The block length depends only on n and
// the worker count (see blockLen); as long as what fn computes for an item
// does not depend on its block, results never depend on Workers or on
// scheduling.
func Blocks(ctx context.Context, cfg Config, n int, fn func(ctx context.Context, lo, hi int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := min(cfg.workers(), n)
	block := blockLen(n, max(workers, 1))
	workers = min(workers, (n+block-1)/block)
	cancel := func() {}
	if workers > 1 {
		// A serial job stops at its first error by returning, and pays for
		// no context of its own.
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
	}
	var (
		cursor   atomic.Int64
		errOnce  sync.Once
		firstErr error
	)
	claim := func() {
		for ctx.Err() == nil {
			lo := int(cursor.Add(int64(block))) - block
			if lo >= n {
				return
			}
			if err := fn(ctx, lo, min(lo+block, n)); err != nil {
				errOnce.Do(func() {
					firstErr = err
					cancel()
				})
				return
			}
		}
	}
	if workers <= 1 {
		claim()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				claim()
			}()
		}
		wg.Wait()
	}
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// blockLen is how many consecutive inputs a worker claims at once:
// n/(8*workers) clamped to [1, 64]. Eight blocks per worker keep the tail
// balanced when items cost unevenly, the cap bounds how much work a cancelled
// job can still have claimed, and short jobs (an 8-point serving request)
// degrade to one item per claim so they spread over every worker. It is a
// function of the job's shape alone, not a knob: no caller has a reason to
// want a different value, and results do not depend on it.
func blockLen(n, workers int) int {
	return max(1, min(n/(8*workers), 64))
}

// ForChunks calls fn(lo, hi) once for every size-long run [lo, hi) of
// [0, n) (the last may be shorter), spread over the workers like Map. fn
// writes its own disjoint outputs and cannot fail, so nothing is returned.
func ForChunks(cfg Config, n, size int, fn func(lo, hi int)) {
	starts := make([]int, (n+size-1)/size)
	for c := range starts {
		starts[c] = c * size
	}
	// The mapper never errors and the context never cancels.
	_, _ = Map(nil, cfg, starts, func(lo int) (struct{}, error) {
		fn(lo, min(lo+size, n))
		return struct{}{}, nil
	})
}
