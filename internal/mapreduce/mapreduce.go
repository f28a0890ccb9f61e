// Package mapreduce is a small in-process map / combine / reduce engine.
//
// The paper implements feature generation and labeling-function application
// "using our MapReduce framework" (§6.3); this package provides the same
// programming model on a single machine, sharding work across goroutine
// workers. It is used by feature generation (map each data point through the
// organizational-resource library), LF application (map each point through
// every LF), and itemset counting (map to (itemset, count), reduce by sum).
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
//
// Workers claim contiguous index blocks from one atomic cursor, so the
// hand-off cost is paid per block rather than per item. The block length
// depends only on len(inputs) and the worker count (see blockLen) and outputs
// land at their input index, so results never depend on Workers or on
// scheduling.
func Map[In, Out any](ctx context.Context, cfg Config, inputs []In, fn func(In) (Out, error)) ([]Out, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(inputs)
	outputs := make([]Out, n)
	workers := min(cfg.workers(), n)
	if workers <= 1 {
		for i, in := range inputs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			out, err := fn(in)
			if err != nil {
				return nil, fmt.Errorf("mapreduce: map input %d: %w", i, err)
			}
			outputs[i] = out
		}
		return outputs, nil
	}

	// Cancelling on the first mapper error makes every worker stop before
	// its next item, so the job short-circuits instead of running the
	// remaining inputs to completion.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Polling the Done channel is a lock-free read; ctx.Err() takes the
	// context's mutex, a cache line every worker would write per item.
	done := ctx.Done()
	block := blockLen(n, workers)
	workers = min(workers, (n+block-1)/block)
	var (
		wg       sync.WaitGroup
		cursor   atomic.Int64
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(cursor.Add(int64(block))) - block
				if lo >= n {
					return
				}
				for i := lo; i < min(lo+block, n); i++ {
					select {
					case <-done:
						return
					default:
					}
					out, err := fn(inputs[i])
					if err != nil {
						errOnce.Do(func() {
							firstErr = fmt.Errorf("mapreduce: map input %d: %w", i, err)
							cancel()
						})
						return
					}
					outputs[i] = out
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return outputs, nil
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

// KV is one intermediate key/value pair emitted by a MapReduce mapper.
type KV[K comparable, V any] struct {
	Key   K
	Value V
}

// Run executes a full map/shuffle/reduce job: mapFn turns each input into
// zero or more key/value pairs; pairs are grouped by key; reduceFn folds each
// group. The result maps each key to its reduced value. reduceFn receives the
// values in a deterministic (input-index) order.
func Run[In any, K comparable, V, R any](
	ctx context.Context,
	cfg Config,
	inputs []In,
	mapFn func(In, func(K, V)) error,
	reduceFn func(K, []V) (R, error),
) (map[K]R, error) {
	// Map phase: each input produces its own pair slice so ordering is
	// deterministic regardless of scheduling.
	pairLists, err := Map(ctx, cfg, inputs, func(in In) ([]KV[K, V], error) {
		var pairs []KV[K, V]
		emit := func(k K, v V) { pairs = append(pairs, KV[K, V]{k, v}) }
		if err := mapFn(in, emit); err != nil {
			return nil, err
		}
		return pairs, nil
	})
	if err != nil {
		return nil, err
	}
	// Shuffle phase.
	groups := make(map[K][]V)
	for _, pairs := range pairLists {
		for _, p := range pairs {
			groups[p.Key] = append(groups[p.Key], p.Value)
		}
	}
	// Reduce phase, parallel over keys.
	keys := make([]K, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	reduced, err := Map(ctx, cfg, keys, func(k K) (R, error) {
		return reduceFn(k, groups[k])
	})
	if err != nil {
		return nil, err
	}
	out := make(map[K]R, len(keys))
	for i, k := range keys {
		out[k] = reduced[i]
	}
	return out, nil
}

// Count is a convenience job that counts how many times mapFn emits each key
// across all inputs.
func Count[In any, K comparable](ctx context.Context, cfg Config, inputs []In, mapFn func(In, func(K)) error) (map[K]int, error) {
	return Run(ctx, cfg, inputs,
		func(in In, emit func(K, int)) error {
			return mapFn(in, func(k K) { emit(k, 1) })
		},
		func(_ K, counts []int) (int, error) {
			total := 0
			for _, c := range counts {
				total += c
			}
			return total, nil
		})
}
