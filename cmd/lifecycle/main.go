// Command lifecycle runs the closed adaptation loop end to end against a
// simulated drifting organization: it bootstraps a weakly supervised model,
// serves it over HTTP, replays a seeded drift schedule through the server,
// and lets the lifecycle controller detect the shift, re-mine and retrain on
// a fresh window, shadow-score the candidate, and hot-swap it through the
// canary-gated /admin/reload — printing the deterministic event log.
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
	"path/filepath"
	"time"

	"crossmodal/internal/core"
	"crossmodal/internal/featurestore"
	"crossmodal/internal/fusion"
	"crossmodal/internal/lifecycle"
	"crossmodal/internal/model"
	"crossmodal/internal/resource"
	"crossmodal/internal/serve"
	"crossmodal/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lifecycle: ")
	var (
		taskName    = flag.String("task", "CT1", "classification task (CT1..CT5)")
		seed        = flag.Int64("seed", 17, "seed for the world, schedule, and every controller decision")
		window      = flag.Int("window", 300, "traffic points per observation window")
		windows     = flag.Int("windows", 8, "total observation windows to replay")
		driftWindow = flag.Int("drift-window", 3, "window index where the shifted regime begins")
		shift       = flag.Float64("shift", 2.5, "topic-prior shift magnitude at the changepoint")
		decay       = flag.Float64("decay", 0.35, "per-attribute observation decay in the shifted regime")
		simDrift    = flag.Bool("simulate-drift", true, "inject the drift episode (false: static world, loop must stay quiet)")
		scale       = flag.Float64("scale", 0.05, "training corpus scale factor for bootstrap and retrains")
		workers     = flag.Int("workers", 1, "worker goroutines per parallel stage (results do not depend on it)")
		artifacts   = flag.String("artifacts", "", "artifact directory (default: a fresh temp dir)")
		outPath     = flag.String("out", "", "write the run result (event log + counters) as JSON here")
	)
	flag.Parse()
	if err := run(*taskName, *seed, *window, *windows, *driftWindow, *shift, *decay,
		*simDrift, *scale, *workers, *artifacts, *outPath); err != nil {
		log.Fatal(err)
	}
}

func run(taskName string, seed int64, window, windows, driftWindow int,
	shift, decay float64, simDrift bool, scale float64, workers int,
	artifacts, outPath string) error {
	switch {
	case window <= 0 || windows <= 0:
		return fmt.Errorf("-window and -windows must be > 0")
	case simDrift && (driftWindow <= 0 || driftWindow >= windows):
		return fmt.Errorf("-drift-window %d must fall inside (0, %d)", driftWindow, windows)
	case scale <= 0:
		return fmt.Errorf("-scale must be > 0")
	}
	task, err := synth.TaskByName(taskName)
	if err != nil {
		return err
	}
	if artifacts == "" {
		dir, err := os.MkdirTemp("", "lifecycle-artifacts-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		artifacts = dir
	}

	world, err := synth.NewWorld(synth.DefaultConfig())
	if err != nil {
		return err
	}
	sched := synth.DriftSchedule{Seed: seed, Epochs: []synth.Epoch{{N: windows * window}}}
	if simDrift {
		sched.Epochs = []synth.Epoch{
			{N: driftWindow * window},
			{N: (windows - driftWindow) * window, TopicShift: shift, URLShift: shift * 0.75, Decay: decay},
		}
	}
	traffic, err := synth.NewTraffic(world, task, sched)
	if err != nil {
		return err
	}

	lib, err := resource.StandardLibrary(world)
	if err != nil {
		return err
	}
	store, err := featurestore.New(lib, 65536)
	if err != nil {
		return err
	}

	opts := core.DefaultOptions()
	opts.StreamMining = true
	opts.Workers = workers
	opts.Seed = seed
	opts.MaxGraphSeeds = 1200
	opts.GraphDevNodes = 500
	opts.Graph.MaxCandidates = 120
	opts.Model = model.Config{Epochs: 5, LearningRate: 0.02, Seed: seed, Workers: workers}
	pipe, err := core.NewPipeline(lib, opts)
	if err != nil {
		return err
	}

	dsCfg := synth.DefaultDatasetConfig().Scaled(scale, 1)
	dsCfg.Seed = seed

	ctx := context.Background()
	log.Printf("bootstrapping %s model (scale %.2f, stream-mined)", taskName, scale)
	ds, err := traffic.FreshDataset(0, dsCfg)
	if err != nil {
		return err
	}
	cur, err := pipe.Curate(ctx, ds)
	if err != nil {
		return err
	}
	incumbent, err := pipe.Train(ctx, cur, pipe.DefaultTrainSpec())
	if err != nil {
		return err
	}
	bootPath := filepath.Join(artifacts, "bootstrap.xma")
	if err := fusion.SaveFileLineage(bootPath, incumbent, &fusion.Lineage{
		Task: task.Name, Trigger: "bootstrap", Seed: seed,
	}); err != nil {
		return err
	}

	// Canary IDs sit far past the schedule, where the final regime persists:
	// they never collide with live window points, and after a promotion they
	// exercise the candidate on current-regime traffic.
	canary := make([]*synth.Point, 48)
	for i := range canary {
		canary[i] = traffic.Point(1<<30 + i)
	}
	srv, err := serve.New(serve.Config{
		Store:   store,
		World:   world,
		Seed:    seed,
		Workers: workers,
		Timeout: 5 * time.Second,
		PointSource: func(id int, _ synth.Modality, _ int) *synth.Point {
			return traffic.Point(id)
		},
	}, canary)
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

	if _, err := srv.Registry().LoadArtifact(bootPath); err != nil {
		return fmt.Errorf("install bootstrap artifact: %w", err)
	}
	baseURL := "http://" + ln.Addr().String()
	log.Printf("serving on %s; replaying %d windows x %d points", baseURL, windows, window)

	ctrl, err := lifecycle.New(lifecycle.Config{
		Traffic:       traffic,
		Store:         store,
		Pipe:          pipe,
		BaseURL:       baseURL,
		Incumbent:     incumbent,
		IncumbentPath: bootPath,
		WindowSize:    window,
		Retrain:       dsCfg,
		ArtifactDir:   artifacts,
		Seed:          seed,
	})
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

	if outPath != "" {
		raw, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		log.Printf("wrote %s", outPath)
	}
	return checkResult(res, simDrift)
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
