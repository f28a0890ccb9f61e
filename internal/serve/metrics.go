package serve

import (
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"crossmodal/internal/monitor"
)

// Observability for the serving path: lock-free counters, fixed-bucket
// histograms with quantile estimation, and a short sliding QPS window. All
// of it is stdlib-only and cheap enough to sit on every request; the
// /metrics endpoint renders a Prometheus-style text exposition.

// Histogram is a concurrency-safe fixed-bucket histogram. Bounds are upper
// bucket edges; observations above the last bound land in an implicit
// overflow bucket. Quantiles interpolate linearly inside a bucket, which is
// exact enough for p50/p95/p99 reporting at serving granularity.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last = overflow
	total  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	max    atomic.Uint64 // float64 bits
}

// NewHistogram builds a histogram over ascending upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, floatBits(floatFrom(old)+v)) {
			break
		}
	}
	// Observations are non-negative (latencies, batch sizes), so the zero
	// initial max is a safe floor.
	for old := h.max.Load(); floatFrom(old) < v; old = h.max.Load() {
		if h.max.CompareAndSwap(old, floatBits(v)) {
			break
		}
	}
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func floatFrom(b uint64) float64 { return math.Float64frombits(b) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return floatFrom(h.sum.Load()) }

// Max returns the largest observation, or 0 with no observations.
func (h *Histogram) Max() float64 { return floatFrom(h.max.Load()) }

// Mean returns the mean observation, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile estimates the q-th quantile (q in [0,1]) by linear interpolation
// within the containing bucket. Observations in the overflow bucket report
// the max seen. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	target := min(max(q, 0), 1) * float64(total)
	var cum float64
	lo := 0.0
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if cum+c >= target && c > 0 {
			if i >= len(h.bounds) {
				return h.Max()
			}
			frac := max(0, (target-cum)/c)
			return lo + frac*(h.bounds[i]-lo)
		}
		cum += c
		if i < len(h.bounds) {
			lo = h.bounds[i]
		}
	}
	return h.Max()
}

// Buckets returns (upper bound, count) pairs including the overflow bucket
// (bound = +Inf rendered by the caller).
func (h *Histogram) Buckets() ([]float64, []uint64) {
	counts := make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return append([]float64(nil), h.bounds...), counts
}

// qpsWindowSlots is the size of the sliding per-second request window; the
// reported rate averages the most recent qpsWindowSeconds full seconds.
const (
	qpsWindowSlots   = 16
	qpsWindowSeconds = 10
)

// rateWindow counts events per wall-clock second in a small ring, reporting
// a trailing-window rate. A mutex is fine here: one tiny critical section
// per request is noise next to featurization.
type rateWindow struct {
	mu    sync.Mutex
	secs  [qpsWindowSlots]int64
	count [qpsWindowSlots]uint64
}

// Add records one event at time now.
func (w *rateWindow) Add(now time.Time) {
	sec := now.Unix()
	i := int(sec % qpsWindowSlots)
	w.mu.Lock()
	if w.secs[i] != sec {
		w.secs[i] = sec
		w.count[i] = 0
	}
	w.count[i]++
	w.mu.Unlock()
}

// Rate reports events/second over the trailing qpsWindowSeconds full
// seconds (the current partial second is excluded).
func (w *rateWindow) Rate(now time.Time) float64 {
	sec := now.Unix()
	var n uint64
	w.mu.Lock()
	for i := 0; i < qpsWindowSlots; i++ {
		if d := sec - w.secs[i]; d >= 1 && d <= qpsWindowSeconds {
			n += w.count[i]
		}
	}
	w.mu.Unlock()
	return float64(n) / qpsWindowSeconds
}

// Metrics aggregates the serving counters /metrics exports: QPS, queue depth
// (requests waiting for a run slot, read live from the batcher), request-size
// and latency distributions, and shed counts.
type Metrics struct {
	start time.Time

	Requests     atomic.Uint64 // HTTP /predict requests admitted to scoring
	Predictions  atomic.Uint64 // points scored (a request may carry several)
	ShedQueue    atomic.Uint64 // rejected: QueueDepth requests already waiting
	ShedDeadline atomic.Uint64 // rejected: deadline expired before scoring
	// ShedBreaker is never incremented and always reads 0: nothing sheds on
	// a resource failure. It is kept only for bench/'s serve.shed sum.
	ShedBreaker  atomic.Uint64
	NotReady     atomic.Uint64 // rejected: no model loaded
	ClientErrors atomic.Uint64 // malformed requests
	Errors       atomic.Uint64 // internal scoring failures

	Latency   *Histogram // seconds per request
	BatchSize *Histogram // points per scored request
	Scores    *Histogram // served model scores, for operators

	qps rateWindow
}

// NewMetrics builds the metric set with serving-scale bucket layouts.
func NewMetrics() *Metrics {
	return &Metrics{
		start: time.Now(),
		Latency: NewHistogram([]float64{
			0.0001, 0.0002, 0.0005, 0.001, 0.002, 0.005,
			0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 2, 5,
		}),
		BatchSize: NewHistogram([]float64{1, 2, 4, 8, 16, 32, 64, 128, 256}),
		Scores:    NewHistogram(monitor.ScoreEdges()),
	}
}

// ObserveRequest records one completed scoring request.
func (m *Metrics) ObserveRequest(latency time.Duration, points int, now time.Time) {
	m.Requests.Add(1)
	m.Predictions.Add(uint64(points))
	m.Latency.Observe(latency.Seconds())
	m.qps.Add(now)
}

// WriteTo renders the Prometheus-style exposition. queueDepth and modelSeq
// are gauges owned elsewhere (batcher, registry) and passed in by the
// handler.
func (m *Metrics) WriteTo(w io.Writer, queueDepth int, modelKind string, modelSeq uint64) {
	now := time.Now()
	fmt.Fprintf(w, "serve_uptime_seconds %.3f\n", now.Sub(m.start).Seconds())
	fmt.Fprintf(w, "serve_requests_total %d\n", m.Requests.Load())
	fmt.Fprintf(w, "serve_predictions_total %d\n", m.Predictions.Load())
	fmt.Fprintf(w, "serve_shed_queue_total %d\n", m.ShedQueue.Load())
	fmt.Fprintf(w, "serve_shed_deadline_total %d\n", m.ShedDeadline.Load())
	fmt.Fprintf(w, "serve_not_ready_total %d\n", m.NotReady.Load())
	fmt.Fprintf(w, "serve_client_errors_total %d\n", m.ClientErrors.Load())
	fmt.Fprintf(w, "serve_errors_total %d\n", m.Errors.Load())
	fmt.Fprintf(w, "serve_queue_depth %d\n", queueDepth)
	fmt.Fprintf(w, "serve_qps_window %.2f\n", m.qps.Rate(now))
	if up := now.Sub(m.start).Seconds(); up > 0 {
		fmt.Fprintf(w, "serve_qps_cumulative %.2f\n", float64(m.Requests.Load())/up)
	}
	if modelKind != "" {
		fmt.Fprintf(w, "serve_model_loaded{kind=%q} 1\n", modelKind)
	} else {
		fmt.Fprintf(w, "serve_model_loaded 0\n")
	}
	fmt.Fprintf(w, "serve_model_seq %d\n", modelSeq)
	writeHistogram(w, "serve_latency_seconds", m.Latency)
	writeHistogram(w, "serve_batch_size", m.BatchSize)
	writeHistogram(w, "serve_scores", m.Scores)
}

// writeHistogram renders one histogram: count, sum, quantiles, and buckets.
func writeHistogram(w io.Writer, name string, h *Histogram) {
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
	fmt.Fprintf(w, "%s_sum %g\n", name, h.Sum())
	fmt.Fprintf(w, "%s_max %g\n", name, h.Max())
	for _, q := range []float64{0.5, 0.95, 0.99} {
		fmt.Fprintf(w, "%s{quantile=\"%g\"} %g\n", name, q, h.Quantile(q))
	}
	bounds, counts := h.Buckets()
	var cum uint64
	for i, c := range counts {
		cum += c
		if i < len(bounds) {
			fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, bounds[i], cum)
		} else {
			fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
		}
	}
}
