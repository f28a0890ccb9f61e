package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so one stall cannot set the number.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted, and false when
// fewer than minBeyond samples lie beyond it.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if n-1-i < minBeyond {
		return 0, false
	}
	return sorted[i], true
}

// median is for the handful of repetitions of a batch workload, where the
// percentile rule does not apply: the middle value, or the mean of the two
// middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// tally is the fail_ratio accounting: every operation is attempted once and
// is either ok or failed; a failed output check fails the operation it
// checked.
type tally struct{ attempted, failed int }

func (t *tally) add(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

func (t *tally) merge(o tally) { t.attempted += o.attempted; t.failed += o.failed }

func (t tally) failRatio() float64 {
	if t.attempted == 0 {
		return 1 // nothing ran: not a pass
	}
	return float64(t.failed) / float64(t.attempted)
}

// heapWatch finds a repetition's peak live heap, for peak_heap_mb. The
// runtime refreshes /gc/heap/live:bytes only when a collection ends, and its
// own cycles miss a short-lived peak at random (curate_mem read 238 or 285 MB,
// lifecycle_drift 190 or 272 MB), so the watch forces a collection every
// 50 ms, or back to back where one takes longer than that. (Resting between
// collections for as long as each took missed lifecycle_drift's half-second
// peak in one run of 18.) That slows the program down: the repetition it
// watches is an extra one whose times are discarded.
type heapWatch struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

const (
	liveHeapMetric = "/gc/heap/live:bytes"
	allocsMetric   = "/gc/heap/allocs:bytes"
)

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func startHeapWatch() *heapWatch {
	h := &heapWatch{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			runtime.GC()
			if v := readMetric(liveHeapMetric); v > h.peak {
				h.peak = v
			}
			select {
			case <-tick.C:
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak in MB.
func (h *heapWatch) peakMB() float64 {
	close(h.stop)
	h.done.Wait()
	return float64(h.peak) / (1 << 20)
}

func allocMB(before uint64) float64 {
	return float64(readMetric(allocsMetric)-before) / (1 << 20)
}

// envStamp is recorded in every result file.
type envStamp struct {
	Commit     string         `json:"commit"`
	Date       string         `json:"date"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NProc      int            `json:"nproc"`
	CPU        string         `json:"cpu"`
	Seed       int64          `json:"seed"`
	CorpusSeed int64          `json:"corpus_seed"`
	Seconds    float64        `json:"seconds"`
	Scale      float64        `json:"scale"`
	Workers    int            `json:"workers"`
	Callers    int            `json:"callers"`
	Sizes      map[string]int `json:"sizes"`
}

func newEnvStamp(cfg runConfig) envStamp {
	e := envStamp{
		Commit: "unknown", Date: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPU: "unknown", Seed: cfg.seed, CorpusSeed: corpusSeed, Seconds: cfg.seconds, Scale: cfg.scale,
		Workers: cfg.workers(), Callers: cfg.callers(), Sizes: map[string]int{},
	}
	// The driver's checkout is not a git repository; the stamp then stays
	// "unknown" instead of shelling out.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				e.Commit += "+dirty"
			}
		}
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// measurement is one reported number. N is the sample count behind it (0
// when the number is not a statistic over samples).
type measurement struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// phaseCount is the sent / ok / failed line every load phase prints.
type phaseCount struct {
	Phase  string `json:"phase"`
	Sent   int    `json:"sent"`
	OK     int    `json:"ok"`
	Failed int    `json:"failed"`
	Note   string `json:"note,omitempty"`
}

// result is everything one run of one workload reports; it is also the
// result file's schema.
type result struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Env       envStamp `json:"env"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	// MeasuredS is how long the run's measured unit took: the median timed
	// repetition of a batch workload, the closed loop of a serving one. (Not
	// the sum of the repetitions: their number changes from run to run.)
	MeasuredS float64       `json:"measured_s"`
	Metrics   []measurement `json:"metrics"`
	Checks    []checkResult `json:"checks"`
	Phases    []phaseCount  `json:"phases,omitempty"`
	Notes     []string      `json:"notes,omitempty"`
	ops       tally
}

func (r *result) set(name string, v float64, n int) {
	def, ok := metricByName[name]
	if !ok {
		panic("bench: metric " + name + " is not in the registry")
	}
	for i := range r.Metrics {
		if r.Metrics[i].Name == name {
			r.Metrics[i].Value, r.Metrics[i].N = v, n
			return
		}
	}
	r.Metrics = append(r.Metrics, measurement{Name: name, Value: v, Unit: def.Unit, N: n})
}

func (r *result) get(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// check records an output check. A failed check fails the operation it
// covers, so it shows in fail_ratio and in the exit code.
func (r *result) check(name string, ok bool, format string, args ...any) bool {
	c := checkResult{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
	return ok
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return r.ops.attempted > 0 || r.Attempted > 0
}

// finish folds the tally into the result. Failed checks that were not
// already charged to an operation are charged here, so correct=false always
// comes with failed > 0.
func (r *result) finish() {
	bad := 0
	for _, c := range r.Checks {
		if !c.OK {
			bad++
		}
	}
	if r.ops.failed < bad {
		r.ops.failed = min(bad, max(r.ops.attempted, 1))
	}
	r.Attempted, r.Failed = r.ops.attempted, r.ops.failed
	if !r.Traced {
		r.set("fail_ratio", r.ops.failRatio(), r.Attempted)
		r.set("ok_ratio", 1-r.ops.failRatio(), r.Attempted)
	}
}

// printTable prints one line per metric: workload metric value unit.
func (r *result) printTable() {
	for _, p := range r.Phases {
		fmt.Printf("# %s phase %s: sent %d ok %d failed %d %s\n", r.Workload, p.Phase, p.Sent, p.OK, p.Failed, p.Note)
	}
	for _, n := range r.Notes {
		fmt.Printf("# %s %s\n", r.Workload, n)
	}
	for _, c := range r.Checks {
		if !c.OK {
			fmt.Printf("# %s CHECK FAILED %s: %s\n", r.Workload, c.Name, c.Detail)
		}
	}
	for _, m := range r.Metrics {
		line := fmt.Sprintf("%s %s %s %s", r.Workload, m.Name, formatValue(m.Value), m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		fmt.Println(line)
	}
}

func formatValue(v float64) string {
	return fmt.Sprintf("%.6g", v)
}

// notMeasured is what the driver's line carries for a per-layer metric the
// run did not measure: the layer is not on this workload's path, the phase
// was marked invalid, or the percentile rule refused the number. No
// measurement is negative, so it cannot be read as a result.
const notMeasured = -1

// standIn is what the driver's line carries for an end-to-end metric the
// workload does not define (metrics.go, definedOn). The driver reads every
// name from every workload, wants no value to be 0 and no time to read the
// same on every run, so a time is the length of the run's measured unit
// (MeasuredS) in the metric's unit, and anything else is 1. The table and the
// result file do not carry these cells.
func (r *result) standIn(d metricDef) float64 {
	switch d.Unit {
	case "s":
		return r.MeasuredS
	case "ms":
		return r.MeasuredS * 1000
	}
	return 1
}

// contractLine is the last line of a single run: the JSON object the driver
// reads, with every end-to-end metric (untraced) or every per-layer metric
// (traced) of BENCHMARK.json.
func (r *result) contractLine() string {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	ms := make(map[string]map[string]any, len(defs))
	for _, d := range defs {
		v, ok := r.get(d.Name)
		switch {
		case ok:
		case r.Traced:
			v = notMeasured
		default:
			v = r.standIn(d)
		}
		ms[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	raw, err := json.Marshal(map[string]any{
		"correct": r.correct(), "attempted": r.Attempted, "failed": r.Failed, "metrics": ms,
	})
	if err != nil {
		panic(err)
	}
	return string(raw)
}

func resultPath(outDir, workload string, traced bool) string {
	name := "result-" + workload
	if traced {
		name += "-traced"
	}
	return filepath.Join(outDir, name+".json")
}

func (r *result) writeFile(outDir string) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(resultPath(outDir, r.Workload, r.Traced), append(raw, '\n'), 0o644)
}

func readResult(outDir, workload string, traced bool) (*result, error) {
	raw, err := os.ReadFile(resultPath(outDir, workload, traced))
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, err
	}
	return &r, nil
}
