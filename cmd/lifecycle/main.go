// Command lifecycle runs the closed adaptation loop end to end against a
// simulated drifting organization: it bootstraps a weakly supervised model,
// serves it over HTTP, replays a seeded drift schedule through the server,
// and lets the lifecycle controller detect the shift, re-mine and retrain on
// a fresh window, shadow-score the candidate, and hot-swap it through the
// canary-gated /admin/reload — printing the deterministic event log. The
// episode itself is wired by lifecycle.Bootstrap.
//
// Usage:
//
//	lifecycle [-task CT1] [-seed 17] [-window 300] [-windows 8]
//	          [-drift-window 3] [-shift 2.5] [-decay 0.35]
//	          [-simulate-drift] [-scale 0.05] [-workers 1]
//	          [-artifacts DIR] [-out events.json]
//
// With -simulate-drift (the default) the traffic schedule injects a
// topic/URL prior shift plus fidelity decay at -drift-window; with
// -simulate-drift=false the world never moves and the controller must never
// detect drift. The command exits non-zero when the episode breaks either
// rule, so the zero-drift control run checks itself.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"

	"crossmodal/internal/lifecycle"
	"crossmodal/internal/serve"
	"crossmodal/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lifecycle: ")
	var c runConfig
	flag.StringVar(&c.taskName, "task", "CT1", "classification task (CT1..CT5)")
	flag.Int64Var(&c.seed, "seed", 17, "seed for the world, schedule, and every controller decision")
	flag.IntVar(&c.window, "window", 300, "traffic points per observation window")
	flag.IntVar(&c.windows, "windows", 8, "total observation windows to replay")
	flag.IntVar(&c.driftWindow, "drift-window", 3, "window index where the shifted regime begins")
	flag.Float64Var(&c.shift, "shift", 2.5, "topic-prior shift magnitude at the changepoint")
	flag.Float64Var(&c.decay, "decay", 0.35, "per-attribute observation decay in the shifted regime")
	flag.BoolVar(&c.simDrift, "simulate-drift", true, "inject the drift episode (false: static world, loop must stay quiet)")
	flag.Float64Var(&c.scale, "scale", 0.05, "training corpus scale factor for bootstrap and retrains")
	flag.IntVar(&c.workers, "workers", 1, "worker goroutines per parallel stage (0 = GOMAXPROCS; results do not depend on it)")
	flag.StringVar(&c.artifacts, "artifacts", "", "artifact directory (default: a fresh temp dir)")
	flag.StringVar(&c.outPath, "out", "", "write the run result (event log + counters) as JSON here")
	flag.Parse()
	if err := run(c); err != nil {
		log.Fatal(err)
	}
}

type runConfig struct {
	taskName, artifacts, outPath          string
	seed                                  int64
	window, windows, driftWindow, workers int
	shift, decay, scale                   float64
	simDrift                              bool
}

// validate rejects flag combinations before the world is built or a model
// trained, with a message naming the offending flag.
func (c runConfig) validate() error {
	switch {
	case c.window <= 0 || c.windows <= 0:
		return fmt.Errorf("-window %d, -windows %d: must be > 0", c.window, c.windows)
	case c.simDrift && (c.driftWindow <= 0 || c.driftWindow >= c.windows):
		return fmt.Errorf("-drift-window %d: must fall inside (0, %d)", c.driftWindow, c.windows)
	case c.scale <= 0:
		return fmt.Errorf("-scale %v: must be > 0", c.scale)
	case c.workers < 0:
		return fmt.Errorf("-workers %d: must be >= 0", c.workers)
	}
	if _, err := synth.TaskByName(c.taskName); err != nil {
		return fmt.Errorf("-task %q: %w", c.taskName, err)
	}
	return nil
}

func run(c runConfig) error {
	if err := c.validate(); err != nil {
		return err
	}
	if c.artifacts == "" {
		dir, err := os.MkdirTemp("", "lifecycle-artifacts-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		c.artifacts = dir
	}

	task, _ := synth.TaskByName(c.taskName) // validate checked the name
	world := synth.MustWorld(synth.DefaultConfig())
	sched := synth.DriftSchedule{Seed: c.seed, Epochs: []synth.Epoch{{N: c.windows * c.window}}}
	if c.simDrift {
		sched.Epochs = []synth.Epoch{
			{N: c.driftWindow * c.window},
			{N: (c.windows - c.driftWindow) * c.window, TopicShift: c.shift, URLShift: c.shift * 0.75, Decay: c.decay},
		}
	}
	traffic, err := synth.NewTraffic(world, task, sched)
	if err != nil {
		return err
	}

	ctx := context.Background()
	log.Printf("bootstrapping %s model (scale %.2f)", c.taskName, c.scale)
	cfg, srv, err := lifecycle.Bootstrap(ctx, world, lifecycle.Config{
		Traffic: traffic, WindowSize: c.window, Retrain: synth.DefaultDatasetConfig().Scaled(c.scale, 1),
		ArtifactDir: c.artifacts, Seed: c.seed,
	}, c.workers)
	if err != nil {
		return err
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := serve.NewHTTPServer("", srv.Handler())
	go hs.Serve(ln)
	defer hs.Close()
	cfg.BaseURL = "http://" + ln.Addr().String()
	log.Printf("serving on %s; replaying %d windows x %d points", cfg.BaseURL, c.windows, c.window)

	ctrl, err := lifecycle.New(cfg)
	if err != nil {
		return err
	}
	res, err := ctrl.Run(ctx)
	if err != nil {
		return err
	}

	for _, e := range res.Events {
		line := fmt.Sprintf("w=%02d %-13s", e.Window, e.Type)
		if e.Channel != "" {
			line += " [" + e.Channel + "]"
		}
		if e.Detail != "" {
			line += " " + e.Detail
		}
		if e.Seq > 0 {
			line += fmt.Sprintf(" seq=%d", e.Seq)
		}
		log.Print(line)
	}
	log.Printf("windows=%d detections=%d retrains=%d promotions=%d rejections=%d final_seq=%d",
		res.Windows, res.Detections, res.Retrains, res.Promotions, res.Rejections, res.FinalSeq)

	if c.outPath != "" {
		raw, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(c.outPath, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		log.Printf("wrote %s", c.outPath)
	}
	return checkResult(res, c.simDrift)
}

// checkResult is the episode's own verdict: a drift run must promote a
// candidate (which implies a detection), and a static world must never trip
// a detector, whether or not a retrain followed.
func checkResult(res *lifecycle.Result, simDrift bool) error {
	if simDrift && res.Promotions == 0 {
		return fmt.Errorf("drift was injected but no candidate was promoted (detections=%d retrains=%d)",
			res.Detections, res.Retrains)
	}
	if !simDrift && res.Detections > 0 {
		return fmt.Errorf("static world but the controller detected drift %d times (retrains=%d)",
			res.Detections, res.Retrains)
	}
	return nil
}
