package crossmodal_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	fuzzFunc  = regexp.MustCompile(`(?m)^func (Fuzz\w*)\(\w+ \*testing\.F\)`)
	fuzzSmoke = regexp.MustCompile(`-fuzz (\w+)\b.*\s(\./\S*)\s*$`)
)

// TestGateFullRunsEveryFuzzer: every `func Fuzz*` in the module is a smoke of
// `make gate-full`, run in its own package, and every smoke there names a
// fuzzer that exists. Both sides are "dir FuzzName".
func TestGateFullRunsEveryFuzzer(t *testing.T) {
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		for _, m := range fuzzFunc.FindAllSubmatch(src, -1) {
			declared[filepath.Dir(p)+" "+string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	ran := map[string]bool{}
	inGateFull := false
	for _, line := range strings.Split(string(mk), "\n") {
		if !strings.HasPrefix(line, "\t") {
			inGateFull = strings.HasPrefix(line, "gate-full:")
			continue
		}
		if m := fuzzSmoke.FindStringSubmatch(line); inGateFull && m != nil {
			ran[filepath.Clean(m[2])+" "+m[1]] = true
		}
	}
	if len(declared) == 0 || len(ran) == 0 {
		t.Fatalf("found %d fuzzers and %d gate-full smokes; the scan is broken", len(declared), len(ran))
	}
	for f := range declared {
		if !ran[f] {
			t.Errorf("fuzzer %s is not a gate-full smoke: add it to the Makefile", f)
		}
	}
	for f := range ran {
		if !declared[f] {
			t.Errorf("gate-full smoke %s names no fuzzer in that package", f)
		}
	}
}
