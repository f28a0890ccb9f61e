package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"crossmodal/internal/experiments"
)

// goodConfig mirrors the flag defaults.
func goodConfig() runConfig {
	return runConfig{run: "all", scale: 1.0, seed: 17}
}

func TestRunConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*runConfig)
		wantErr string // "" means valid
	}{
		{"defaults", func(*runConfig) {}, ""},
		{"single experiment", func(c *runConfig) { c.run = "table2" }, ""},
		{"experiment list", func(c *runConfig) { c.run = "table1,figure5, lfgen" }, ""},
		{"task subset", func(c *runConfig) { c.tasks = "CT1,CT3" }, ""},
		{"task subset with spaces", func(c *runConfig) { c.tasks = "CT1, CT2" }, ""},
		{"tiny scale", func(c *runConfig) { c.scale = 0.05 }, ""},
		{"trace flags", func(c *runConfig) { c.tracePath = "t.json"; c.traceSummary = true }, ""},

		{"unknown experiment", func(c *runConfig) { c.run = "table9" }, "table9"},
		{"one bad name in list", func(c *runConfig) { c.run = "table1,nope" }, "nope"},
		{"unknown task", func(c *runConfig) { c.tasks = "CT1,CT9" }, "CT9"},
		{"zero scale", func(c *runConfig) { c.scale = 0 }, "-scale"},
		{"negative scale", func(c *runConfig) { c.scale = -1 }, "-scale"},
		{"negative workers", func(c *runConfig) { c.workers = -2 }, "-workers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := goodConfig()
			tc.mutate(&cfg)
			err := cfg.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validate() accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name the problem (%q)", err, tc.wantErr)
			}
		})
	}
}

// TestValidateKnowsEveryManifestEntry: every experiment declared in the
// manifest must pass -run validation, so adding one to the registry is
// enough to make it runnable.
func TestValidateKnowsEveryManifestEntry(t *testing.T) {
	for _, name := range experiments.ExperimentNames() {
		cfg := goodConfig()
		cfg.run = name
		if err := cfg.validate(); err != nil {
			t.Errorf("manifest experiment %q rejected by validate(): %v", name, err)
		}
	}
}

func TestTaskList(t *testing.T) {
	cfg := goodConfig()
	if got := cfg.taskList(); !reflect.DeepEqual(got, experiments.AllTasks()) {
		t.Errorf("default taskList = %v, want all tasks %v", got, experiments.AllTasks())
	}
	cfg.tasks = "CT2, CT4"
	if got := cfg.taskList(); !reflect.DeepEqual(got, []string{"CT2", "CT4"}) {
		t.Errorf("taskList = %v, want [CT2 CT4]", got)
	}
}

// TestRunTracedWritesChromeTrace runs one real experiment at tiny scale with
// -trace and asserts the output is loadable Chrome trace_event JSON whose
// stage tree covers the whole adaptation loop.
func TestRunTracedWritesChromeTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	out := filepath.Join(t.TempDir(), "trace.json")
	md := filepath.Join(t.TempDir(), "results.md")
	cfg := runConfig{run: "rawvsfeat", scale: 0.05, seed: 5, tasks: "CT1", out: md, tracePath: out}
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not valid Chrome trace JSON: %v", err)
	}
	names := make(map[string]bool)
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			names[ev.Name] = true
		}
	}
	for _, stage := range []string{"featurize", "mining", "labelprop", "labelmodel", "train", "eval"} {
		if !names[stage] {
			t.Errorf("trace missing stage %q", stage)
		}
	}
}

// TestRunRejectsInvalidConfigFast: run() must reject before building the
// suite or any corpus.
func TestRunRejectsInvalidConfigFast(t *testing.T) {
	cfg := goodConfig()
	cfg.run = "table9"
	start := time.Now()
	if err := run(cfg); err == nil {
		t.Fatal("run() accepted an unknown experiment")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("invalid config took %v to reject", elapsed)
	}
}

// TestRunOutputIsReproducible: same-seed runs write byte-equal markdown;
// wall times go to stderr, not into the -o file.
func TestRunOutputIsReproducible(t *testing.T) {
	var outs [2][]byte
	for i := range outs {
		md := filepath.Join(t.TempDir(), "results.md")
		if err := run(runConfig{run: "table1", scale: 0.05, seed: 5, tasks: "CT1", out: md}); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = raw
	}
	if string(outs[0]) != string(outs[1]) || strings.Contains(string(outs[0]), "generated in") {
		t.Fatalf("same-seed outputs differ or carry a wall time:\n%s\n---\n%s", outs[0], outs[1])
	}
}
