package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true (10 samples beyond)", v, ok)
	}
	// 999 samples leave only 9 beyond the p99 rank: refused.
	if _, ok := percentile(xs[:999], 0.99); ok {
		t.Error("p99 reported with 9 samples beyond it")
	}
	if _, ok := percentile(xs, 0.999); ok {
		t.Error("p99.9 of 1000 samples reported with no samples beyond it")
	}
	if v, ok := percentile(xs[:21], 0.5); !ok || v != 11 {
		t.Errorf("p50 of 1..21 = %v, %v; want 11, true", v, ok)
	}
	if _, ok := percentile(xs[:19], 0.5); ok {
		t.Error("p50 of 19 samples reported with 9 samples beyond it")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of nothing reported")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 50, Parent: 0},  // overlaps b on [30,50)
		{Name: "b", Start: 30, End: 70, Parent: 0},  // parallel call
		{Name: "c", Start: 90, End: 120, Parent: 0}, // sticks out of the parent
		{Name: "grandchild", Start: 35, End: 45, Parent: 2},
		{Name: "open", Start: 5, End: -1, Parent: 0}, // never closed
	}
	self := selfTimes(spans)
	// Children cover [10,70) and [90,100): 70 of the parent's 100.
	want := []int64{30, 40, 30, 30, 10, 0}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, self[i], w)
		}
	}
	if by := selfByName(spans); by["parent"] != 30 || by["b"] != 30 {
		t.Errorf("selfByName = %v", by)
	}
}

func TestRecorderNilIsNoop(t *testing.T) {
	var r *recorder
	got := 0
	d := r.do("x", -1, 0, func(id int) { got = id; time.Sleep(time.Millisecond) })
	if got != -1 || d < time.Millisecond || r.snapshot() != nil {
		t.Errorf("nil recorder: id %d, duration %v", got, d)
	}
}

// The open loop's due times come from the schedule alone: replies that take
// twenty intervals each must neither stretch the sending window nor stop
// later requests from leaving.
func TestOpenLoopScheduleIgnoresCompletions(t *testing.T) {
	const n, interval, service = 60, 2 * time.Millisecond, 40 * time.Millisecond
	start := time.Now()
	for i := 0; i < 3; i++ {
		if got, want := dueAt(start, i, interval), start.Add(time.Duration(i)*interval); !got.Equal(want) {
			t.Fatalf("dueAt(%d) = %v, want %v", i, got, want)
		}
	}
	var concurrent, peak atomic.Int64
	st := openLoop(n, interval, func(int) error {
		if c := concurrent.Add(1); c > peak.Load() {
			peak.Store(c)
		}
		time.Sleep(service)
		concurrent.Add(-1)
		return nil
	})
	if st.Sent != n || st.OK != n || st.Failed != 0 {
		t.Fatalf("sent %d ok %d failed %d", st.Sent, st.OK, st.Failed)
	}
	// A closed loop would need n × service = 2.4 s; the schedule is 120 ms.
	if window := float64(n) / st.Achieved; window > 0.5 {
		t.Errorf("sending window %.3f s: sends waited for completions", window)
	}
	if peak.Load() < 5 {
		t.Errorf("at most %d requests in flight: sends waited for completions", peak.Load())
	}
	if st.Backlog == 0 {
		t.Error("no request outstanding when the schedule ended")
	}
	// Timed from the due time, so no latency is below the service time.
	if st.Lat[0] < float64(service)/1e6 {
		t.Errorf("fastest latency %.3f ms is below the service time", st.Lat[0])
	}
}

func TestGeneratorHonesty(t *testing.T) {
	lag := make([]float64, 2000)
	st := &loadStats{Sent: 2000, OK: 2000, Lag: lag, TargetRPS: 1000, Achieved: 1000}
	if ok, why := st.generatorValid(); !ok {
		t.Errorf("punctual generator judged invalid: %s", why)
	}
	for i := 1900; i < 2000; i++ {
		lag[i] = 1.5 // 5% of sends 1.5 ms late: p99 over the limit
	}
	if ok, _ := st.generatorValid(); ok {
		t.Error("late generator judged valid")
	}
	st = &loadStats{Sent: 2000, OK: 2000, Lag: make([]float64, 2000), TargetRPS: 1000, Achieved: 970}
	if ok, _ := st.generatorValid(); ok {
		t.Error("generator offering 97% of the rate judged valid")
	}
	st = &loadStats{Lag: make([]float64, 5), TargetRPS: 1000, Achieved: 1000}
	if ok, _ := st.generatorValid(); ok {
		t.Error("five requests support no lag p99")
	}
}

func TestFailRatioAccounting(t *testing.T) {
	var ops tally
	for i := 0; i < 8; i++ {
		ops.add(i != 3)
	}
	ops.merge(tally{attempted: 2, failed: 1})
	if ops.attempted != 10 || ops.failed != 2 || ops.failRatio() != 0.2 {
		t.Errorf("tally %+v ratio %v", ops, ops.failRatio())
	}
	if (tally{}).failRatio() != 1 {
		t.Error("a run that attempted nothing must not read as a pass")
	}

	// A failed output check fails the run even when every operation
	// answered: it is charged to the tally, shows in fail_ratio and clears
	// correct.
	res := &result{Workload: "curate_mem"}
	res.ops = tally{attempted: 4}
	res.check("fine", true, "")
	res.check("digest", false, "digest %x differs", 7)
	res.finish()
	if res.correct() || res.Failed != 1 || res.Attempted != 4 {
		t.Errorf("correct %v failed %d attempted %d", res.correct(), res.Failed, res.Attempted)
	}
	if v, _ := res.get("fail_ratio"); v != 0.25 {
		t.Errorf("fail_ratio = %v, want 0.25", v)
	}
	if v, _ := res.get("ok_ratio"); v != 0.75 {
		t.Errorf("ok_ratio = %v, want 0.75", v)
	}
}

// The driver's line names every metric of BENCHMARK.json on every workload.
// What the run did not measure must not read as a result: an end-to-end
// metric the workload does not define carries the stand-in (never 0, a time
// never constant), a per-layer metric carries notMeasured.
func TestContractLine(t *testing.T) {
	type line struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	res := &result{Workload: "curate_mem", MeasuredS: 2.5}
	res.ops = tally{attempted: 4}
	res.set("wall_s", 1.25, 2)
	res.finish()
	var got line
	if err := json.Unmarshal([]byte(res.contractLine()), &got); err != nil {
		t.Fatal(err)
	}
	if !got.Correct || got.Attempted != 4 || got.Failed != 0 || len(got.Metrics) != len(endToEnd) {
		t.Errorf("contract line %+v", got)
	}
	for _, d := range endToEnd {
		if m, ok := got.Metrics[d.Name]; !ok || m.Unit != d.Unit || m.Value == 0 {
			t.Errorf("contract line: %s = %+v (present %v), want unit %s and a value that is not 0", d.Name, m, ok, d.Unit)
		}
	}
	for name, want := range map[string]float64{"wall_s": 1.25, "adapt_s": 2.5, "p50_ms": 2500, "capacity_pps": 1, "ok_ratio": 1} {
		if v := got.Metrics[name].Value; v != want {
			t.Errorf("contract line: %s = %v, want %v", name, v, want)
		}
	}

	traced := &result{Workload: "serve_hot", Traced: true}
	traced.ops = tally{attempted: 1}
	traced.set("serve.shed", 0, 0) // measured, and 0
	traced.finish()
	got = line{}
	if err := json.Unmarshal([]byte(traced.contractLine()), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Metrics) != len(perLayer) {
		t.Errorf("traced contract line has %d metrics, want %d", len(got.Metrics), len(perLayer))
	}
	if v := got.Metrics["serve.shed"].Value; v != 0 {
		t.Errorf("serve.shed = %v, want the measured 0", v)
	}
	if v := got.Metrics["serve.open_p99_ms.r3"].Value; v != notMeasured {
		t.Errorf("serve.open_p99_ms.r3 = %v, want %v for a metric the run did not measure", v, notMeasured)
	}
}

// Every workload defines setup_s and ok_ratio, and every scoped metric names
// workloads that exist.
func TestDefinedOn(t *testing.T) {
	for name, on := range definedOn {
		if _, ok := metricByName[name]; !ok {
			t.Errorf("definedOn scopes %q, which is not a metric", name)
		}
		for _, w := range on {
			if _, ok := workloadByName(w); !ok {
				t.Errorf("%s is scoped to unknown workload %q", name, w)
			}
		}
	}
	for _, w := range workloads {
		for _, name := range []string{"setup_s", "ok_ratio"} {
			if !metricByName[name].definedFor(w.Name) {
				t.Errorf("%s is not defined on %s", name, w.Name)
			}
		}
	}
	if metricByName["test_auprc"].definedFor("curate_stream") || !metricByName["p99_ms"].definedFor("serve_cold") {
		t.Error("definedFor does not follow definedOn")
	}
}

func TestWorseBy(t *testing.T) {
	lowerIsBetter, higherIsBetter := metricDef{Better: lower}, metricDef{Better: higher}
	if d := worseBy(lowerIsBetter, 10, 11); d < 0.0999 || d > 0.1001 {
		t.Errorf("10 → 11, lower is better: %v", d)
	}
	if d := worseBy(higherIsBetter, 10, 11); d > -0.0999 {
		t.Errorf("10 → 11, higher is better: %v", d)
	}
}

// BENCHMARK.json is generated from the registry (`bench -manifest`); the
// file and the program must not drift apart.
func TestManifestMatchesFile(t *testing.T) {
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, manifest()) {
		t.Error("BENCHMARK.json differs from `bench -manifest`; regenerate it")
	}
	seen := map[string]bool{}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
				t.Errorf("metric %q (%q) is duplicated or too long", d.Name, d.Unit)
			}
			seen[d.Name] = true
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
}
