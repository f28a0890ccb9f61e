// Command experiments regenerates the paper's evaluation tables and figures
// (Tables 1–3, Figures 5–7, the §6.6 fusion comparison and the §6.7.1
// automatic-vs-expert LF comparison) on the synthetic substrate and writes
// them as markdown.
//
// Usage:
//
//	experiments [-run all|<experiment>,...] [-scale 1.0] [-seed 17]
//	            [-tasks CT1,CT2,...] [-o out.md] [-store dir]
//	            [-trace trace.json] [-trace-summary]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -h lists the experiment names -run accepts. -scale shrinks every corpus
// for fast smoke runs; the headline numbers use the defaults, scale 1.0 and
// seed 17 (EXPERIMENTS.md, "Regenerating the numbers"). -store routes
// curation through the disk-backed feature store rooted at the given
// directory: a second run at the same scale and seed reuses the featurized
// chunks instead of recomputing them, with bit-identical results. -trace
// writes a Chrome trace_event JSON file loadable in chrome://tracing or
// ui.perfetto.dev; -trace-summary prints the aggregated stage tree to stderr
// on exit. Each experiment's wall time goes to stderr too, so same-seed
// outputs are byte-identical.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"crossmodal/internal/experiments"
	"crossmodal/internal/trace"
)

// runConfig carries the parsed flags; validate rejects bad combinations
// before any corpus is built.
type runConfig struct {
	run          string
	scale        float64
	seed         int64
	tasks        string
	out          string
	store        string
	workers      int
	cpuProfile   string
	memProfile   string
	tracePath    string
	traceSummary bool
}

func (c runConfig) validate() error {
	if c.scale <= 0 {
		return fmt.Errorf("-scale must be positive, got %v", c.scale)
	}
	if c.workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", c.workers)
	}
	for _, name := range strings.Split(c.run, ",") {
		if !slices.Contains(runNames(), strings.TrimSpace(name)) {
			return fmt.Errorf("unknown experiment %q (known: %s)",
				strings.TrimSpace(name), strings.Join(runNames(), ", "))
		}
	}
	if c.tasks != "" {
		allTasks := map[string]bool{}
		for _, t := range experiments.AllTasks() {
			allTasks[t] = true
		}
		for _, t := range strings.Split(c.tasks, ",") {
			if !allTasks[strings.TrimSpace(t)] {
				return fmt.Errorf("unknown task %q (known: %s)",
					strings.TrimSpace(t), strings.Join(experiments.AllTasks(), ", "))
			}
		}
	}
	return nil
}

// runNames lists what -run accepts: "all", then the manifest's experiments.
func runNames() []string {
	return append([]string{"all"}, experiments.ExperimentNames()...)
}

// taskList resolves the -tasks flag to the task subset to run.
func (c runConfig) taskList() []string {
	if c.tasks == "" {
		return experiments.AllTasks()
	}
	parts := strings.Split(c.tasks, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var cfg runConfig
	flag.StringVar(&cfg.run, "run", "all", "experiments to run, comma-separated ("+strings.Join(runNames(), ", ")+")")
	flag.Float64Var(&cfg.scale, "scale", 1.0, "corpus scale factor")
	flag.Int64Var(&cfg.seed, "seed", 17, "random seed")
	flag.StringVar(&cfg.tasks, "tasks", "", "comma-separated task subset (default: all five)")
	flag.StringVar(&cfg.out, "o", "", "output file (default stdout)")
	flag.StringVar(&cfg.store, "store", "", "feature-store directory: curation runs through the disk-backed streaming path rooted here, reusing chunks featurized by earlier runs at the same scale and seed")
	flag.IntVar(&cfg.workers, "workers", 0, "worker goroutines per parallel stage (0 = GOMAXPROCS)")
	flag.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&cfg.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	flag.StringVar(&cfg.tracePath, "trace", "", "write a Chrome trace_event JSON file (open in chrome://tracing or ui.perfetto.dev)")
	flag.BoolVar(&cfg.traceSummary, "trace-summary", false, "print the aggregated stage tree to stderr on exit")
	flag.Parse()

	if err := run(cfg); err != nil {
		log.Fatal(err)
	}
}

func run(cfg runConfig) (err error) {
	if err := cfg.validate(); err != nil {
		return err
	}
	var summaryW io.Writer
	if cfg.traceSummary {
		summaryW = os.Stderr
	}
	stop, err := trace.Capture(cfg.tracePath, summaryW, cfg.cpuProfile, cfg.memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if serr := stop(); err == nil {
			err = serr
		}
	}()

	w := io.Writer(os.Stdout)
	if cfg.out != "" {
		f, ferr := os.Create(cfg.out)
		if ferr != nil {
			return ferr
		}
		defer func() { // sets run's err: a failed close fails the run
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		w = f
	}

	suite, err := experiments.NewSuite(experiments.Config{Scale: cfg.scale, Seed: cfg.seed, Workers: cfg.workers, StoreDir: cfg.store})
	if err != nil {
		return err
	}
	if err := dispatch(context.Background(), w, suite, cfg.run, cfg.taskList(), cfg.scale); err != nil {
		return err
	}
	if cfg.store != "" {
		log.Printf("feature store %s: reused %d previously featurized chunks", cfg.store, suite.ReusedChunks())
	}
	return nil
}

// dispatch runs the selected subset of the experiment manifest in order.
func dispatch(ctx context.Context, w io.Writer, suite *experiments.Suite, run string, tasks []string, scale float64) error {
	want := map[string]bool{}
	for _, name := range strings.Split(run, ",") {
		want[strings.TrimSpace(name)] = true
	}
	all := want["all"]

	fmt.Fprintf(w, "# Cross-modal adaptation experiments (scale %.2f, tasks %s)\n",
		scale, strings.Join(tasks, ", "))

	for _, exp := range experiments.Manifest() {
		if !all && !want[exp.Name] {
			continue
		}
		start := time.Now()
		fmt.Fprintf(w, "\n## %s\n\n", exp.Title)
		if err := exp.Run(ctx, w, suite, tasks); err != nil {
			return fmt.Errorf("%s: %w", exp.Name, err)
		}
		log.Printf("%s generated in %s", exp.Name, time.Since(start).Round(time.Second))
	}
	return nil
}
