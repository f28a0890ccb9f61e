package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// The open-loop generator is a child process of the running binary; under
// `go test` that binary is the test binary.
func TestMain(m *testing.M) {
	if spec := os.Getenv(openLoopEnv); spec != "" {
		os.Exit(runOpenLoopGenerator(spec))
	}
	os.Exit(m.Run())
}

// TestSmokeWorkloads runs every workload for about a second at 1/50 size and
// requires what the driver requires: every output check passes, nothing
// failed, every end-to-end metric the workload defines is there, finite and
// not 0, and the driver's line carries every name with a value that is not 0.
// Two workloads need more than 1/50: weak supervision covers no positive in a
// 320-image corpus, and a drift episode needs windows large enough to trip
// the detectors and pass the shadow comparison.
func TestSmokeWorkloads(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scale  float64
		traced bool
	}{
		{"curate_mem", 0.1, false},
		{"curate_stream", 0.02, false},
		{"curate_stream", 0.02, true},
		{"serve_hot", 0.02, false},
		{"serve_hot", 0.02, true},
		{"serve_cold", 0.02, false},
		{"lifecycle_drift", 0.25, false},
	} {
		name := tc.name
		if tc.traced {
			name += "/traced"
		}
		t.Run(name, func(t *testing.T) {
			cfg := runConfig{seed: 53, seconds: 1, scale: tc.scale, traced: tc.traced, outDir: t.TempDir()}
			w, ok := workloadByName(tc.name)
			if !ok {
				t.Fatal("unknown workload")
			}
			res := &result{Workload: tc.name, Traced: tc.traced, Env: newEnvStamp(cfg)}
			err := w.run(cfg, res)
			// A closed loop this short on a slow machine (race detector) may
			// collect too few samples for a p99. The output checks ran before
			// that and are asserted all the same; only the metrics are not.
			noP99 := errors.Is(err, errNoP99)
			if err != nil && !noP99 {
				t.Fatal(err)
			}
			res.finish()
			for _, c := range res.Checks {
				if !c.OK {
					t.Errorf("check %s failed: %s", c.Name, c.Detail)
				}
			}
			if len(res.Checks) == 0 || !res.correct() || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%d checks, correct %v, attempted %d, failed %d", len(res.Checks), res.correct(), res.Attempted, res.Failed)
			}
			if noP99 {
				t.Skipf("output checks passed; metrics not asserted: %v", err)
			}
			if tc.traced {
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+tc.name+".json")); err != nil {
					t.Errorf("no span file: %v", err)
				}
				if len(res.Metrics) < 10 {
					t.Errorf("traced run reported %d metrics", len(res.Metrics))
				}
				return
			}
			var line struct {
				Metrics map[string]struct{ Value float64 } `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(res.contractLine()), &line); err != nil {
				t.Fatal(err)
			}
			for _, d := range endToEnd {
				v, reported := res.get(d.Name)
				if reported != d.definedFor(tc.name) {
					t.Errorf("%s: reported %v, defined on %s %v", d.Name, reported, tc.name, d.definedFor(tc.name))
				}
				if reported && (v == 0 || math.IsNaN(v) || math.IsInf(v, 0)) {
					t.Errorf("%s = %v", d.Name, v)
				}
				if m, ok := line.Metrics[d.Name]; !ok || m.Value <= 0 {
					t.Errorf("driver's line: %s = %v (present %v)", d.Name, m.Value, ok)
				}
			}
		})
	}
}
