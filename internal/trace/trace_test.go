package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"
)

// install swaps in a fresh tracer for one test and removes it afterwards.
func install(t *testing.T) *Tracer {
	t.Helper()
	tr := New()
	SetDefault(tr)
	t.Cleanup(func() { SetDefault(nil) })
	return tr
}

func TestDisabledIsNoop(t *testing.T) {
	SetDefault(nil)
	ctx := context.Background()
	ctx2, sp := Start(ctx, "stage")
	if ctx2 != ctx {
		t.Error("disabled Start must return the context unchanged")
	}
	if sp != (Span{}) {
		t.Error("disabled Start must return the zero span")
	}
	sp.End()
	sp.Add("n", 1)
	sp.SetInt("k", 2)
	sp.SetFloat("f", 3)
	sp.SetStr("s", "x")
	Count(ctx, "c", 1)
	SetInt(ctx, "k", 1)
	if Enabled() {
		t.Error("Enabled() with no tracer installed")
	}
}

// TestDisabledHotPathAllocs is the tentpole guarantee: with tracing
// disabled, span start/end and counter bumps on the hot path allocate
// nothing.
func TestDisabledHotPathAllocs(t *testing.T) {
	SetDefault(nil)
	ctx := context.Background()
	if n := testing.AllocsPerRun(1000, func() {
		c, sp := Start(ctx, "hot")
		Count(c, "items", 1)
		sp.Add("n", 1)
		sp.End()
	}); n != 0 {
		t.Fatalf("disabled span start/end allocates %v per run, want 0", n)
	}
}

func TestSpanNestingAndAttrs(t *testing.T) {
	tr := install(t)
	ctx := context.Background()
	ctx, root := Start(ctx, "run")
	cctx, child := Start(ctx, "stage")
	child.SetInt("points", 42)
	child.Add("edges", 10)
	child.Add("edges", 5)
	Count(cctx, "edges", 3) // routes to the same span via ctx
	child.SetStr("kind", "early")
	child.SetFloat("rate", 0.5)
	child.End()
	root.End()

	spans := tr.snapshot()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if spans[0].parent != 0 || spans[1].parent != 1 {
		t.Errorf("parents = %d,%d, want 0,1", spans[0].parent, spans[1].parent)
	}
	got := map[string]interface{}{}
	var counter int64
	for _, a := range spans[1].attrs {
		got[a.Key] = a.Value()
		if a.Key == "edges" {
			if !a.IsCounter() {
				t.Error("edges should be a counter")
			}
			counter = a.i
		}
	}
	if counter != 18 {
		t.Errorf("edges counter = %d, want 18 (10+5+3)", counter)
	}
	if got["points"] != int64(42) || got["kind"] != "early" || got["rate"] != 0.5 {
		t.Errorf("attrs = %v", got)
	}
	if spans[1].start < spans[0].start || spans[1].end > spans[0].end {
		t.Error("child span not contained in parent")
	}
}

func TestCountWithoutSpanGoesToProcessCounters(t *testing.T) {
	tr := install(t)
	Count(context.Background(), "shed", 2)
	Count(nil, "shed", 3)
	if got := tr.Counters()["shed"]; got != 5 {
		t.Errorf("process counter = %d, want 5", got)
	}
}

func TestEndTwiceKeepsFirstEnd(t *testing.T) {
	tr := install(t)
	_, sp := Start(context.Background(), "s")
	sp.End()
	first := tr.snapshot()[0].end
	time.Sleep(time.Millisecond)
	sp.End()
	if got := tr.snapshot()[0].end; got != first {
		t.Errorf("second End moved the end time: %v → %v", first, got)
	}
}

func TestRootLanes(t *testing.T) {
	tr := install(t)
	// Sequential roots share a lane; an overlapping root gets its own.
	_, a := Start(context.Background(), "a")
	a.End()
	_, b := Start(context.Background(), "b")
	_, c := Start(context.Background(), "c") // b still open → new lane
	b.End()
	c.End()
	spans := tr.snapshot()
	if spans[0].tid != spans[1].tid {
		t.Errorf("sequential roots on lanes %d vs %d, want shared", spans[0].tid, spans[1].tid)
	}
	if spans[1].tid == spans[2].tid {
		t.Error("overlapping roots share a lane")
	}
}

func TestChromeTraceSchema(t *testing.T) {
	tr := install(t)
	ctx, root := Start(context.Background(), "run")
	_, child := Start(ctx, "stage")
	child.Add("items", 7)
	child.End()
	root.End()
	Count(context.Background(), "orphan", 1)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	// The exported document must be loadable per the trace_event schema:
	// an object with a traceEvents array of events carrying name/ph/pid/tid
	// and, for complete events, numeric ts and dur.
	var doc struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Pid  int                    `json:"pid"`
			Tid  int                    `json:"tid"`
			Ts   float64                `json:"ts"`
			Dur  float64                `json:"dur"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var complete, meta, instant int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
			if ev.Dur < 0 || ev.Ts < 0 {
				t.Errorf("event %q has negative ts/dur", ev.Name)
			}
			if ev.Pid != 1 || ev.Tid < 1 {
				t.Errorf("event %q has bad pid/tid %d/%d", ev.Name, ev.Pid, ev.Tid)
			}
		case "M":
			meta++
		case "i":
			instant++
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if complete != 2 || meta != 1 || instant != 1 {
		t.Errorf("events: %d complete, %d meta, %d instant", complete, meta, instant)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Name == "stage" && ev.Args["items"] != float64(7) {
			t.Errorf("stage args = %v", ev.Args)
		}
	}
}

func TestSummaryAggregatesRepeatedStages(t *testing.T) {
	tr := install(t)
	ctx, run := Start(context.Background(), "run")
	for i := 0; i < 3; i++ {
		_, ep := Start(ctx, "epoch")
		ep.Add("batches", 4)
		ep.End()
	}
	run.End()
	var buf bytes.Buffer
	if err := tr.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "run") || !strings.Contains(out, "epoch") {
		t.Fatalf("summary missing stages:\n%s", out)
	}
	if !strings.Contains(out, "×3") {
		t.Errorf("summary should aggregate 3 epochs into ×3:\n%s", out)
	}
	if !strings.Contains(out, "batches=12") {
		t.Errorf("summary should sum counters across instances (want batches=12):\n%s", out)
	}
	if strings.Index(out, "run") > strings.Index(out, "epoch") {
		t.Errorf("parent should print before child:\n%s", out)
	}
}

func TestSpanNamesAndLen(t *testing.T) {
	tr := install(t)
	ctx, a := Start(context.Background(), "a")
	_, b := Start(ctx, "b")
	b.End()
	_, b2 := Start(ctx, "b")
	b2.End()
	a.End()
	if tr.Len() != 3 {
		t.Errorf("Len = %d", tr.Len())
	}
	names := tr.SpanNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("SpanNames = %v", names)
	}
}

// TestConcurrentSpans drives many goroutines through Start/End/Count; run
// with -race (make gate-full covers this package).
func TestConcurrentSpans(t *testing.T) {
	tr := install(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ctx, sp := Start(context.Background(), "batch")
				Count(ctx, "items", 1)
				_, inner := Start(ctx, "featurize")
				inner.End()
				sp.End()
			}
		}()
	}
	wg.Wait()
	if tr.Len() != 8*50*2 {
		t.Errorf("Len = %d, want %d", tr.Len(), 8*50*2)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestCaptureWritesChromeAndSummary(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	var summary bytes.Buffer
	stop, err := Capture(path, &summary, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if !Enabled() {
		t.Fatal("Capture should install a tracer")
	}
	ctx, sp := Start(context.Background(), "stage")
	Count(ctx, "items", 3)
	sp.End()
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if Enabled() {
		t.Error("stop should uninstall the tracer")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]interface{}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("captured trace not valid JSON: %v", err)
	}
	if !strings.Contains(summary.String(), "stage") {
		t.Errorf("summary missing stage:\n%s", summary.String())
	}
}

func TestCaptureDisabledPath(t *testing.T) {
	stop, err := Capture("", nil, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if Enabled() {
		t.Error("empty Capture must not install a tracer")
	}
	if err := stop(); err != nil {
		t.Error(err)
	}
}

func TestCaptureProfilesDisabled(t *testing.T) {
	stop, err := Capture("", nil, "", "")
	if err != nil {
		t.Fatal(err)
	}
	// With no CPU profile path Capture must leave the profiler free.
	if err := pprof.StartCPUProfile(io.Discard); err != nil {
		t.Errorf("empty Capture started a CPU profile: %v", err)
	} else {
		pprof.StopCPUProfile()
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestCaptureBadPath(t *testing.T) {
	stop, err := Capture(filepath.Join(t.TempDir(), "no", "such", "dir", "t.json"), nil, "", "")
	if err != nil {
		t.Fatal(err)
	}
	_, sp := Start(context.Background(), "s")
	sp.End()
	if err := stop(); err == nil {
		t.Error("expected error for unwritable trace path")
	}
}

func TestCaptureWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	stop, err := Capture("", nil, cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if Enabled() {
		t.Error("profiling alone must not install a tracer")
	}
	// Burn a little CPU so the profile has something to sample.
	x := 0.0
	for i := 0; i < 1_000_000; i++ {
		x += float64(i) * 1.000001
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if info.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(path))
		}
	}
}

func TestCaptureMemProfileOnly(t *testing.T) {
	mem := filepath.Join(t.TempDir(), "mem.pprof")
	stop, err := Capture("", nil, "", mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(mem); err != nil || info.Size() == 0 {
		t.Fatalf("heap profile missing or empty: %v", err)
	}
}

// TestCaptureBadCPUProfilePath: a CPU profile that cannot start fails
// Capture before it installs a tracer.
func TestCaptureBadCPUProfilePath(t *testing.T) {
	if _, err := Capture("", &bytes.Buffer{}, filepath.Join(t.TempDir(), "no", "such", "dir", "cpu"), ""); err == nil {
		t.Fatal("expected error for uncreatable CPU profile path")
	}
	if Enabled() {
		t.Error("a failed Capture left a tracer installed")
	}
}

// TestCaptureBadMemProfilePath: a heap profile that cannot be written fails
// the stop, which still writes the trace.
func TestCaptureBadMemProfilePath(t *testing.T) {
	var summary bytes.Buffer
	stop, err := Capture("", &summary, "", filepath.Join(t.TempDir(), "no", "such", "dir", "mem"))
	if err != nil {
		t.Fatal(err)
	}
	_, sp := Start(context.Background(), "stage")
	sp.End()
	if err := stop(); err == nil {
		t.Fatal("expected error for uncreatable heap profile path")
	}
	if !strings.Contains(summary.String(), "stage") {
		t.Errorf("summary not written past the heap profile's failure:\n%s", summary.String())
	}
}

// TestCaptureTwiceSequential: a stopped capture must be restartable — the
// commands defer stop and may be invoked back to back in tests.
func TestCaptureTwiceSequential(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		stop, err := Capture("", nil, filepath.Join(dir, "cpu"), "")
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if err := stop(); err != nil {
			t.Fatalf("round %d stop: %v", i, err)
		}
	}
}

func BenchmarkSpanDisabled(b *testing.B) {
	SetDefault(nil)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, sp := Start(ctx, "hot")
		Count(c, "items", 1)
		sp.End()
	}
}

func BenchmarkSpanEnabled(b *testing.B) {
	tr := New()
	SetDefault(tr)
	defer SetDefault(nil)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, sp := Start(ctx, "hot")
		Count(c, "items", 1)
		sp.End()
	}
}
