// Command bench is the repository's one benchmark: five workloads over the
// three paths (curation, serving, lifecycle), eleven end-to-end metrics and a
// per-layer replay. README.md in this directory is the glossary.
//
//	go build -o bench/out/bench ./bench && bench/out/bench -seed 53
//
// runs every workload in its own child process and prints one line per
// metric: workload metric value unit. -traced adds the per-layer run,
// -workload NAME runs one workload, -selfcheck runs the suite twice and
// compares the two against the regression bounds.
//
// The driver's form, which is also how the suite starts its children,
//
//	bench --workload NAME --seed N --seconds S --trace 0|1
//
// runs one workload once in this process and ends with one JSON line.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// corpusSeed draws the corpora of the curation workloads and the whole drift
// episode. It is a constant, not the run's seed: between corpora ws_f1 and
// test_auprc move by 15-31 % and one drift episode in ten promotes nothing,
// which no bound the contract allows could hold (README.md, "What the seed
// chooses").
const corpusSeed = 53

// runConfig is what one run of one workload is given.
type runConfig struct {
	// seed draws the request IDs of the serving workloads.
	seed    int64
	seconds float64
	// scale multiplies every workload size; 1 is the size README.md states.
	// It has no flag: only the unit tests set another value.
	scale  float64
	traced bool
	outDir string
}

// workers pins Options.Workers; callers is the load generator's connection
// count. GOMAXPROCS is left alone and recorded in the stamp.
func (c runConfig) workers() int { return min(runtime.NumCPU(), 4) }
func (c runConfig) callers() int { return min(runtime.NumCPU(), 2) }

func (c runConfig) size(n int) int { return max(1, int(float64(n)*c.scale)) }

func main() {
	var (
		seed      = flag.Int64("seed", 53, "workload seed: the same seed gives the same inputs")
		workload  = flag.String("workload", "", "run only this workload")
		seconds   = flag.Float64("seconds", runSeconds, "measured seconds per run")
		trace     = flag.Int("trace", -1, "single-run form: 0 prints the end-to-end metrics, 1 the per-layer metrics")
		traced    = flag.Bool("traced", false, "suite form: also make the per-layer run of each workload")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced suite twice, compare against the bounds, then check seed+1")
		outDir    = flag.String("out", "bench/out", "directory for result and span files")
		printMan  = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	if spec := os.Getenv(openLoopEnv); spec != "" {
		os.Exit(runOpenLoopGenerator(spec))
	}
	flag.Parse()
	if *printMan {
		os.Stdout.Write(manifest())
		return
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, scale: 1, outDir: *outDir}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatal(err)
	}
	names := []string{}
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	if *workload != "" {
		if _, ok := workloadByName(*workload); !ok {
			fatal(fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(names, ", ")))
		}
		names = []string{*workload}
	}

	switch {
	case *trace >= 0:
		if *workload == "" {
			fatal(fmt.Errorf("-trace needs -workload"))
		}
		cfg.traced = *trace == 1
		os.Exit(runSingle(*workload, cfg))
	case *selfcheck:
		os.Exit(runSelfcheck(names, cfg))
	default:
		ok := true
		for _, name := range names {
			_, pass := runChild(name, cfg, false)
			ok = ok && pass
			if *traced {
				_, pass := runChild(name, cfg, true)
				ok = ok && pass
			}
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runSingle runs one workload in this process. The exit code is 0 only when
// every output check passed; a harness error prints no result line.
func runSingle(name string, cfg runConfig) int {
	w, _ := workloadByName(name)
	res := &result{Workload: name, Traced: cfg.traced, Env: newEnvStamp(cfg)}
	if err := w.run(cfg, res); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 2
	}
	res.finish()
	if err := res.writeFile(cfg.outDir); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	res.printTable()
	fmt.Println(res.contractLine())
	if !res.correct() {
		return 1
	}
	return 0
}

// runChild runs one workload in a child process of this binary, so heap
// peaks do not leak between workloads, passes its table through and returns
// the result file it wrote.
func runChild(name string, cfg runConfig, traced bool) (*result, bool) {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	os.Remove(resultPath(cfg.outDir, name, traced)) // never read a stale file
	cmd := exec.Command(exe,
		"-workload", name, "-trace", trace,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-out", cfg.outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		fatal(err)
	}
	if err := cmd.Start(); err != nil {
		fatal(err)
	}
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		// The JSON line is for the driver; the suite prints the table only.
		if line := sc.Text(); !strings.HasPrefix(line, "{") {
			fmt.Println(line)
		}
	}
	werr := cmd.Wait()
	res, rerr := readResult(cfg.outDir, name, traced)
	if rerr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: no result (%v, %v)\n", name, werr, rerr)
		return nil, false
	}
	return res, werr == nil
}
