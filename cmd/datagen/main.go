// Command datagen samples a synthetic cross-modal dataset, featurizes it
// through the organizational-resource library, and writes it as JSON lines —
// one object per data point with its modality, ground-truth label (withheld
// for the unlabeled corpus), and common-feature values. Useful for
// inspecting the feature space or feeding external tools.
//
// Usage:
//
//	datagen [-task CT1] [-n 1000] [-seed 17] [-corpus text|image|test] [-chunk 4096] [-o out.jsonl]
//
// The corpus is generated, featurized, and written chunk by chunk (chunk size
// -chunk) rather than materialized whole, so memory stays bounded by the
// chunk size — the CLI face of the streaming curation path.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"crossmodal/internal/feature"
	"crossmodal/internal/resource"
	"crossmodal/internal/synth"
)

// record is the JSON shape of one exported data point.
type record struct {
	ID       int                    `json:"id"`
	Modality string                 `json:"modality"`
	Label    *int8                  `json:"label,omitempty"` // omitted for the unlabeled corpus
	Features map[string]interface{} `json:"features"`
}

// runConfig carries the parsed flags; validate rejects bad combinations
// before the world is built.
type runConfig struct {
	task   string
	n      int
	seed   int64
	corpus string
	out    string
	chunk  int
}

func (c runConfig) validate() error {
	if _, err := synth.TaskByName(c.task); err != nil {
		return err
	}
	if c.n <= 0 {
		return fmt.Errorf("-n must be positive, got %d", c.n)
	}
	if c.chunk <= 0 {
		return fmt.Errorf("-chunk must be positive, got %d", c.chunk)
	}
	switch c.corpus {
	case "text", "image", "test":
	default:
		return fmt.Errorf("unknown corpus %q (want text, image, or test)", c.corpus)
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("datagen: ")
	var cfg runConfig
	flag.StringVar(&cfg.task, "task", "CT1", "classification task (CT1..CT5)")
	flag.IntVar(&cfg.n, "n", 1000, "number of points per corpus")
	flag.Int64Var(&cfg.seed, "seed", 17, "random seed")
	flag.StringVar(&cfg.corpus, "corpus", "text", "corpus to export: text, image, or test")
	flag.StringVar(&cfg.out, "o", "", "output file (default stdout)")
	flag.IntVar(&cfg.chunk, "chunk", 4096, "points generated and featurized per chunk (bounds memory)")
	flag.Parse()
	if err := run(cfg); err != nil {
		log.Fatal(err)
	}
}

func run(cfg runConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	taskName, n, seed, corpus, out := cfg.task, cfg.n, cfg.seed, cfg.corpus, cfg.out
	world, err := synth.NewWorld(synth.DefaultConfig())
	if err != nil {
		return err
	}
	lib, err := resource.StandardLibrary(world)
	if err != nil {
		return err
	}
	task, err := synth.TaskByName(taskName)
	if err != nil {
		return err
	}
	dsCfg := synth.DatasetConfig{
		Seed:              seed,
		NumText:           n,
		NumUnlabeledImage: n,
		NumHandLabelPool:  1,
		NumTest:           n,
	}

	w := bufio.NewWriter(os.Stdout)
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		w = bufio.NewWriter(f)
	}
	enc := json.NewEncoder(w)
	labeled := corpus == "text" || corpus == "test"
	emit := func(pts []*synth.Point) error {
		for _, p := range pts {
			rec := record{
				ID:       p.ID,
				Modality: string(p.Modality),
				Features: featureMap(lib.FeaturizePoint(p)),
			}
			if labeled {
				label := p.Label
				rec.Label = &label
			}
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
		return nil
	}

	want := map[string]synth.CorpusKind{
		"text": synth.TextCorpus, "image": synth.ImageCorpus, "test": synth.TestCorpus,
	}[corpus]
	stream, err := synth.NewStream(world, task, dsCfg)
	if err != nil {
		return err
	}
	// Each chunk is written out before the next is generated, so the next
	// refills it.
	for ch := stream.Next(cfg.chunk); ch != nil; ch = stream.NextInto(ch, cfg.chunk) {
		if ch.Corpus != want {
			continue
		}
		if err := emit(ch.Points); err != nil {
			return err
		}
	}
	return w.Flush()
}

// featureMap renders a vector's non-missing values as JSON-friendly types.
func featureMap(v *feature.Vector) map[string]interface{} {
	out := make(map[string]interface{})
	schema := v.Schema()
	for i := 0; i < schema.Len(); i++ {
		d := schema.Def(i)
		val := v.At(i)
		if val.Missing {
			continue
		}
		switch d.Kind {
		case feature.Categorical:
			out[d.Name] = val.Categories
		case feature.Numeric:
			out[d.Name] = val.Num
		case feature.Embedding:
			out[d.Name] = val.Vec
		}
	}
	return out
}
