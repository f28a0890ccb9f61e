package model

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"crossmodal/internal/sparse"
	"crossmodal/internal/trace"
)

// numGradShards is the fixed number of per-minibatch gradient accumulators.
// It is deliberately independent of Config.Workers: each shard covers a
// fixed contiguous slice of the batch and the shards merge in index order,
// so the float additions performed are the same whether one goroutine
// processes all shards or eight process one each — bit-for-bit determinism
// for a given seed at any worker count. It also caps per-step parallelism.
const numGradShards = 8

// gradShard is one accumulator: a gradient buffer with the same flat layout
// as MLP.params, the shard's sample-weight subtotal, and a scratch arena for
// forward/backward passes. All of it is allocated once per training run.
type gradShard struct {
	grad  []float64
	total float64
	fresh bool // true until the first contributing sample zeroes the buffer this step
	scr   *scratch
}

// poolMinMACs is the multiply-add count below which a minibatch step runs
// its shards inline: eight channel hand-offs cost 3–8 µs, more than a sparse
// logistic step's whole ~1k multiply-adds; measured at 2 workers the pool
// draws level near 59k and leads by 118k. The partition and merge order do
// not depend on who runs a shard, so the choice cannot change a result.
const poolMinMACs = 1 << 16

// trainer is the data-parallel minibatch engine. With more than one worker
// it keeps a persistent goroutine pool fed by an unbuffered shard-index
// channel, so a steady-state step performs zero heap allocations.
type trainer struct {
	m         *MLP
	opt       *adam
	cfg       Config
	shards    [numGradShards]gradShard
	innerMACs int // multiply-adds per sample above the first layer

	work   chan int                 // shard indices for the in-flight step
	wg     sync.WaitGroup           // completion of the in-flight step
	active [numGradShards][]float64 // backing array for the per-step active-shard list

	// In-flight minibatch, published to workers via the work channel.
	rows          *sparse.Rows
	targets       []float64
	sampleWeights []float64
	batch         []int

	// The dense adapter's gathered minibatch (see step).
	gathered           sparse.Rows
	gTargets, gWeights []float64
	gBatch             []int
}

func newTrainer(m *MLP, cfg Config) *trainer {
	t := &trainer{m: m, opt: newAdam(m, cfg.LearningRate), cfg: cfg}
	for s := range t.shards {
		t.shards[s].grad = make([]float64, len(m.params))
		t.shards[s].scr = m.newScratch()
	}
	for l := 1; l < len(m.weights); l++ {
		t.innerMACs += len(m.weights[l])
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	if workers = min(workers, numGradShards); workers > 1 {
		work := make(chan int) // captured: close may clear t.work before a worker first runs
		t.work = work
		for w := 0; w < workers; w++ {
			go func() {
				for s := range work {
					t.runShard(s)
					t.wg.Done()
				}
			}()
		}
	}
	return t
}

// close releases the worker pool.
func (t *trainer) close() {
	if t.work != nil {
		close(t.work)
		t.work = nil
	}
}

// step is the dense adapter: it gathers the minibatch's rows, zeros
// skipped, into the trainer's reusable block and steps on that.
func (t *trainer) step(X [][]float64, targets, sampleWeights []float64, batch []int) {
	t.gathered.Reset(t.m.inDim)
	t.gTargets, t.gWeights, t.gBatch = t.gTargets[:0], t.gWeights[:0], t.gBatch[:0]
	for k, idx := range batch {
		t.gathered.AddDense(X[idx])
		t.gTargets = append(t.gTargets, targets[idx])
		t.gBatch = append(t.gBatch, k)
		if sampleWeights != nil {
			t.gWeights = append(t.gWeights, sampleWeights[idx])
		}
	}
	weights := t.gWeights
	if sampleWeights == nil {
		weights = nil
	}
	t.stepRows(&t.gathered, t.gTargets, weights, t.gBatch)
}

// stepRows accumulates gradients over one minibatch (batch indexes rows,
// targets and sampleWeights alike), shard-parallel when the step is big
// enough to pay for the hand-off, then merges them in fixed shard order and
// applies a single Adam update.
func (t *trainer) stepRows(rows *sparse.Rows, targets, sampleWeights []float64, batch []int) {
	t.rows, t.targets, t.sampleWeights, t.batch = rows, targets, sampleWeights, batch
	macs := len(batch) * t.innerMACs
	for _, idx := range batch {
		macs += (rows.Ptr[idx+1] - rows.Ptr[idx]) * t.m.sizes[1]
	}
	if t.work == nil || macs < poolMinMACs {
		for s := range t.shards {
			t.runShard(s)
		}
	} else {
		t.wg.Add(numGradShards)
		for s := 0; s < numGradShards; s++ {
			t.work <- s
		}
		t.wg.Wait()
	}

	// Gather the contributing shards in shard order (fixed regardless of
	// which worker ran what); the optimizer sums them on the fly, so the
	// merged gradient is never materialized.
	bufs := t.active[:0]
	var totalWeight float64
	for s := range t.shards {
		sh := &t.shards[s]
		if sh.total == 0 {
			continue // no contributing samples this step
		}
		totalWeight += sh.total
		bufs = append(bufs, sh.grad)
	}
	if totalWeight == 0 {
		return
	}
	t.opt.apply(t.m, bufs, totalWeight, t.cfg.L2)
}

// runShard zeroes shard s and accumulates its slice of the current batch:
// samples [s·n/S, (s+1)·n/S) for batch length n and S shards.
func (t *trainer) runShard(s int) {
	sh := &t.shards[s]
	sh.total = 0
	sh.fresh = true
	n := len(t.batch)
	for _, idx := range t.batch[s*n/numGradShards : (s+1)*n/numGradShards] {
		target := t.targets[idx]
		w := 1.0
		if t.sampleWeights != nil {
			w = t.sampleWeights[idx]
		}
		// Noise-aware class weighting: weight by the target's positive
		// mass rather than a hard label.
		w *= 1 + (t.cfg.PositiveWeight-1)*target
		if w == 0 {
			continue
		}
		if sh.fresh {
			// A sparse sample touches only its own first-layer columns, so
			// the buffer is zeroed once and every sample adds (0 + d·x is
			// d·x); an empty shard is skipped by the merge via total == 0.
			clear(sh.grad)
			sh.fresh = false
		}
		sh.total += w
		cols, vals := t.rows.Row(idx)
		t.accumulate(sh, cols, vals, target, w)
	}
}

// accumulate backpropagates one sample into the shard's gradient buffer,
// entries in sample order. All intermediates live in the shard's scratch
// arena — no allocations.
func (t *trainer) accumulate(sh *gradShard, cols []int32, vals []float64, target, w float64) {
	m := t.m
	s := sh.scr
	m.forward(cols, vals, s)
	L := len(m.weights)
	// Output delta: dL/dz = p - target for sigmoid cross-entropy.
	s.deltas[L-1][0] = (s.output() - target) * w
	for l := L - 1; l >= 0; l-- {
		inCols, in := cols, vals
		if l > 0 {
			inCols, in = m.allCols[:m.sizes[l]], s.acts[l]
		}
		delta := s.deltas[l]
		width := m.sizes[l]
		gW := sh.grad[m.wOff[l] : m.wOff[l]+width*len(delta)]
		gB := sh.grad[m.bOff[l] : m.bOff[l]+len(delta)]
		for o, d := range delta {
			gB[o] += d
			row := gW[o*width : (o+1)*width]
			for k, c := range inCols {
				row[c] += d * in[k]
			}
		}
		if l == 0 {
			break
		}
		// Backpropagate through the ReLU layer below.
		W := m.weights[l]
		prev := s.deltas[l-1]
		for i := range prev {
			if in[i] <= 0 {
				prev[i] = 0 // ReLU gradient is 0; buffer is reused
				continue
			}
			var sum float64
			for o, d := range delta {
				sum += d * W[o*width+i]
			}
			prev[i] = sum
		}
	}
}

// Train fits the network on dense rows X: the adapter over TrainRows' engine
// that converts each minibatch as it is drawn (zeros skipped), so no second
// copy of the design is held.
func Train(ctx context.Context, X [][]float64, targets []float64, sampleWeights []float64, cfg Config) (*MLP, error) {
	if len(X) == 0 {
		return nil, fmt.Errorf("model: no training data")
	}
	for i, x := range X {
		if len(x) != len(X[0]) {
			return nil, fmt.Errorf("model: row %d has width %d, want %d", i, len(x), len(X[0]))
		}
	}
	return train(ctx, len(X), len(X[0]), targets, sampleWeights, cfg, func(t *trainer, batch []int) {
		t.step(X, targets, sampleWeights, batch)
	})
}

// TrainRows fits the network on sparse rows with soft targets in [0,1]
// (probabilistic labels; hard labels are 0/1) and optional per-example
// weights (nil means uniform). Uses Adam with minibatches and the
// noise-aware cross-entropy whose gradient at the output is simply
// p - target. Minibatches are gradient-sharded across up to cfg.Workers
// goroutines; the result is identical for any worker count. rows is
// validated once here, so the inner loops check nothing.
func TrainRows(ctx context.Context, rows *sparse.Rows, targets []float64, sampleWeights []float64, cfg Config) (*MLP, error) {
	if rows.Len() == 0 {
		return nil, fmt.Errorf("model: no training data")
	}
	if err := rows.Validate(); err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	return train(ctx, rows.Len(), rows.Width, targets, sampleWeights, cfg, func(t *trainer, batch []int) {
		t.stepRows(rows, targets, sampleWeights, batch)
	})
}

// train is the epoch loop both entry points share; step runs one minibatch.
func train(ctx context.Context, n, width int, targets, sampleWeights []float64, cfg Config, step func(*trainer, []int)) (*MLP, error) {
	if len(targets) != n {
		return nil, fmt.Errorf("model: %d rows vs %d targets", n, len(targets))
	}
	if sampleWeights != nil && len(sampleWeights) != n {
		return nil, fmt.Errorf("model: %d rows vs %d weights", n, len(sampleWeights))
	}
	for i, t := range targets {
		if t < 0 || t > 1 || math.IsNaN(t) {
			return nil, fmt.Errorf("model: target[%d] = %v outside [0,1]", i, t)
		}
	}
	cfg = cfg.withDefaults()
	ctx, span := trace.Start(ctx, "model.train")
	defer span.End()
	span.SetInt("rows", int64(n))
	span.SetInt("features", int64(width))
	span.SetInt("epochs", int64(cfg.Epochs))
	m, err := New(width, cfg.Hidden, cfg.Seed)
	if err != nil {
		return nil, err
	}
	m.workers = cfg.Workers
	t := newTrainer(m, cfg)
	defer t.close()
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		_, epSpan := trace.Start(ctx, "model.epoch")
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for start := 0; start < len(order); start += cfg.BatchSize {
			step(t, order[start:min(start+cfg.BatchSize, len(order))])
			epSpan.Add("batches", 1)
		}
		epSpan.End()
	}
	return m, nil
}

// adam holds Adam optimizer state in flat arrays mirroring MLP.params.
type adam struct {
	lr    float64
	t     int
	m, v  []float64 // first and second moments
	beta1 float64
	beta2 float64
	eps   float64
}

func newAdam(net *MLP, lr float64) *adam {
	n := len(net.params)
	return &adam{
		lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8,
		m: make([]float64, n), v: make([]float64, n),
	}
}

// apply performs one Adam update from the shard gradient buffers, summing
// them per parameter in shard order as it sweeps. Weight spans get L2 decay;
// bias spans do not.
func (a *adam) apply(net *MLP, bufs [][]float64, totalWeight, l2 float64) {
	a.t++
	c1 := 1 - math.Pow(a.beta1, float64(a.t))
	c2 := 1 - math.Pow(a.beta2, float64(a.t))
	for l := range net.weights {
		a.span(net, bufs, totalWeight, net.wOff[l], net.wOff[l]+len(net.weights[l]), l2, c1, c2)
		a.span(net, bufs, totalWeight, net.bOff[l], net.bOff[l]+len(net.biases[l]), 0, c1, c2)
	}
}

// span updates params[lo:hi]; l2 == 0 skips the decay term entirely (biases)
// so the math matches the unregularized bias update exactly.
func (a *adam) span(net *MLP, bufs [][]float64, totalWeight float64, lo, hi int, l2, c1, c2 float64) {
	p := net.params
	head, rest := bufs[0], bufs[1:]
	for j := lo; j < hi; j++ {
		g := head[j]
		for _, b := range rest {
			g += b[j]
		}
		g /= totalWeight
		if l2 != 0 {
			g += l2 * p[j]
		}
		a.m[j] = a.beta1*a.m[j] + (1-a.beta1)*g
		a.v[j] = a.beta2*a.v[j] + (1-a.beta2)*g*g
		p[j] -= a.lr * (a.m[j] / c1) / (math.Sqrt(a.v[j]/c2) + a.eps)
	}
}
