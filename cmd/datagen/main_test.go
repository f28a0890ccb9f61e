package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// goodConfig mirrors the flag defaults.
func goodConfig() runConfig {
	return runConfig{task: "CT1", n: 1000, seed: 17, corpus: "text", chunk: 4096}
}

func TestRunConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*runConfig)
		wantErr string // "" means valid
	}{
		{"defaults", func(*runConfig) {}, ""},
		{"image corpus", func(c *runConfig) { c.corpus = "image" }, ""},
		{"test corpus", func(c *runConfig) { c.corpus = "test" }, ""},
		{"other task", func(c *runConfig) { c.task = "CT3" }, ""},
		{"single point", func(c *runConfig) { c.n = 1 }, ""},

		{"unknown task", func(c *runConfig) { c.task = "CT0" }, "CT0"},
		{"zero n", func(c *runConfig) { c.n = 0 }, "-n"},
		{"negative n", func(c *runConfig) { c.n = -5 }, "-n"},
		{"unknown corpus", func(c *runConfig) { c.corpus = "video" }, "corpus"},
		{"empty corpus", func(c *runConfig) { c.corpus = "" }, "corpus"},
		{"zero chunk", func(c *runConfig) { c.chunk = 0 }, "-chunk"},
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

// TestRunRejectsInvalidConfigFast: run() must reject before building the
// synthetic world.
func TestRunRejectsInvalidConfigFast(t *testing.T) {
	cfg := goodConfig()
	cfg.corpus = "video"
	start := time.Now()
	if err := run(cfg); err == nil {
		t.Fatal("run() accepted an unknown corpus")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("invalid config took %v to reject", elapsed)
	}
}

// TestRunWritesJSONL exercises the happy path end to end at tiny scale: the
// exported file must be valid JSON lines with the requested corpus size.
func TestRunWritesJSONL(t *testing.T) {
	dir := t.TempDir()
	out := dir + "/pts.jsonl"
	cfg := runConfig{task: "CT1", n: 8, seed: 3, corpus: "test", out: out, chunk: 4096}
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 8 {
		t.Fatalf("exported %d lines, want 8", len(lines))
	}
	for i, line := range lines {
		var rec map[string]interface{}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i, err)
		}
		if _, ok := rec["features"]; !ok {
			t.Fatalf("line %d has no features: %s", i, line)
		}
		if _, ok := rec["label"]; !ok {
			t.Fatalf("line %d (test corpus) has no label: %s", i, line)
		}
	}
}

// TestExportDigestsPinned: the in-process export of every corpus, with a
// chunk size that does not divide the corpus, hashes to the datagen entries
// of the behaviour contract (testdata/contract.json at the module root),
// which the root TestContract computes from the built binary at these flags.
// They are the bytes the materialized BuildDataset path wrote before
// streaming became the only mode.
func TestExportDigestsPinned(t *testing.T) {
	raw, err := os.ReadFile("../../testdata/contract.json")
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		SHA256 map[string]string `json:"sha256"`
	}
	if err := json.Unmarshal(raw, &contract); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, corpus := range []string{"text", "image", "test"} {
		want, ok := contract.SHA256["datagen/"+corpus]
		if !ok {
			t.Fatalf("contract has no datagen/%s entry", corpus)
		}
		out := dir + "/" + corpus + ".jsonl"
		if err := run(runConfig{task: "CT1", n: 20, seed: 5, corpus: corpus, out: out, chunk: 7}); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(raw); hex.EncodeToString(sum[:]) != want {
			t.Errorf("%s: export digest %x, contract %s", corpus, sum, want)
		}
	}
}

// TestStreamModeRejectsBadChunk: run rejects a non-positive chunk size.
func TestStreamModeRejectsBadChunk(t *testing.T) {
	cfg := goodConfig()
	cfg.chunk = 0
	if err := run(cfg); err == nil {
		t.Fatal("run accepted chunk 0")
	}
}
