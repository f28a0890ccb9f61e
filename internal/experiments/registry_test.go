package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"crossmodal/internal/core"
	"crossmodal/internal/synth"
)

func TestManifestShape(t *testing.T) {
	m := Manifest()
	if len(m) != 11 {
		t.Fatalf("manifest has %d experiments, want 11", len(m))
	}
	seen := make(map[string]bool)
	for _, e := range m {
		if e.Name == "" || e.Title == "" || e.Run == nil {
			t.Errorf("incomplete manifest entry: %+v", e)
		}
		if seen[e.Name] {
			t.Errorf("duplicate experiment name %q", e.Name)
		}
		seen[e.Name] = true
	}
}

func TestExperimentNamesMatchManifestOrder(t *testing.T) {
	names := ExperimentNames()
	m := Manifest()
	if len(names) != len(m) {
		t.Fatalf("names = %d entries, manifest = %d", len(names), len(m))
	}
	for i, e := range m {
		if names[i] != e.Name {
			t.Errorf("names[%d] = %q, manifest[%d].Name = %q", i, names[i], i, e.Name)
		}
	}
}

// TestDatasetConfigScaleClamps: corpus sizes scale linearly but never drop
// below the floor that keeps the pipeline statistically meaningful.
func TestDatasetConfigScaleClamps(t *testing.T) {
	base := synth.DefaultDatasetConfig()

	tiny := &Suite{cfg: Config{Scale: 0.0001, Seed: 7}}
	got := tiny.datasetConfig()
	for name, v := range map[string]int{
		"NumText":           got.NumText,
		"NumUnlabeledImage": got.NumUnlabeledImage,
		"NumHandLabelPool":  got.NumHandLabelPool,
		"NumTest":           got.NumTest,
	} {
		if v != 200 {
			t.Errorf("scale 0.0001: %s = %d, want floor 200", name, v)
		}
	}
	if got.Seed != 7 {
		t.Errorf("seed not propagated: %d", got.Seed)
	}

	full := &Suite{cfg: Config{Scale: 1.0, Seed: 7}}
	got = full.datasetConfig()
	if got.NumText != base.NumText || got.NumTest != base.NumTest {
		t.Errorf("scale 1.0 changed sizes: %+v vs default %+v", got, base)
	}

	half := &Suite{cfg: Config{Scale: 0.5, Seed: 7}}
	got = half.datasetConfig()
	if want := base.NumText / 2; got.NumText != want && got.NumText != 200 {
		t.Errorf("scale 0.5: NumText = %d, want %d", got.NumText, want)
	}
}

// TestPipelineOptionsScaleClamps: the label-propagation graph shrinks with
// scale but keeps enough seeds and dev nodes to function, and never grows
// past the defaults.
func TestPipelineOptionsScaleClamps(t *testing.T) {
	def := core.DefaultOptions()

	tiny := &Suite{cfg: Config{Scale: 0.0001, Seed: 7, Workers: 3}}
	o := tiny.pipelineOptions()
	if o.MaxGraphSeeds != 200 {
		t.Errorf("MaxGraphSeeds = %d, want floor 200", o.MaxGraphSeeds)
	}
	if o.GraphDevNodes != 100 {
		t.Errorf("GraphDevNodes = %d, want floor 100", o.GraphDevNodes)
	}
	if o.Workers != 3 {
		t.Errorf("Workers = %d, want 3", o.Workers)
	}
	if o.Seed != 7 {
		t.Errorf("Seed = %d, want 7", o.Seed)
	}

	full := &Suite{cfg: Config{Scale: 1.0, Seed: 7}}
	o = full.pipelineOptions()
	if o.MaxGraphSeeds != def.MaxGraphSeeds || o.GraphDevNodes != def.GraphDevNodes {
		t.Errorf("scale 1.0 changed graph sizes: %d/%d, want %d/%d",
			o.MaxGraphSeeds, o.GraphDevNodes, def.MaxGraphSeeds, def.GraphDevNodes)
	}

	big := &Suite{cfg: Config{Scale: 4.0, Seed: 7}}
	o = big.pipelineOptions()
	if o.MaxGraphSeeds != def.MaxGraphSeeds {
		t.Errorf("scale > 1 should not inflate MaxGraphSeeds: %d", o.MaxGraphSeeds)
	}
}

// TestManifestSmoke runs every declared experiment end to end at tiny scale
// on one task and requires each to render finite, non-empty markdown. This
// is the guarantee that a manifest entry is actually runnable — not just
// named.
func TestManifestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	s := smallSuite(t)
	ctx := context.Background()
	for _, e := range Manifest() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(ctx, &buf, s, []string{"CT1"}); err != nil {
				t.Fatalf("experiment %q failed: %v", e.Name, err)
			}
			out := buf.String()
			if strings.TrimSpace(out) == "" {
				t.Fatalf("experiment %q rendered nothing", e.Name)
			}
			for _, bad := range []string{"NaN", "Inf", "-Inf"} {
				if strings.Contains(out, bad) {
					t.Errorf("experiment %q emitted %s:\n%s", e.Name, bad, out)
				}
			}
		})
	}
}
