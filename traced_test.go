package crossmodal_test

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

// requiredStages are the pipeline stages the trace must cover: every phase
// of the adaptation loop shows up as a named span in the exported stage tree.
var requiredStages = []string{"featurize", "mining", "labelprop", "labelmodel", "train", "eval"}

// TestGoldenPipelineTraced checks the golden run with tracing ENABLED. Its
// contract entry must hash like the untraced runs': instrumentation must
// never consume RNG draws, reorder work, or otherwise perturb the
// computation. It then checks the captured trace itself — stage coverage,
// Chrome trace_event validity, and the human-readable summary.
func TestGoldenPipelineTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	g := goldenRun(t, variant{traced: true})
	checkEntries(t, g.got)

	// The exported Chrome trace must be valid trace_event JSON with complete
	// events carrying the fields chrome://tracing and Perfetto require.
	var chrome, summary bytes.Buffer
	fatalIf(t, g.tr.WriteChromeTrace(&chrome))
	fatalIf(t, g.tr.WriteSummary(&summary))
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	events := make(map[string]bool)
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			events[ev.Name] = true
			if ev.Dur < 0 || ev.Ts < 0 {
				t.Errorf("event %q has negative timing: ts=%v dur=%v", ev.Name, ev.Ts, ev.Dur)
			}
		}
	}
	// Every stage is a span, a complete Chrome event, and a summary line.
	spans := g.tr.SpanNames()
	for _, stage := range requiredStages {
		if !slices.Contains(spans, stage) {
			t.Errorf("trace missing required stage span %q (have %v)", stage, spans)
		}
		if !events[stage] {
			t.Errorf("chrome trace missing complete event for stage %q", stage)
		}
		if !strings.Contains(summary.String(), stage) {
			t.Errorf("summary missing stage %q:\n%s", stage, summary.String())
		}
	}
}
