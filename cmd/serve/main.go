// Command serve runs the online inference service: it loads (or trains) a
// fusion model and serves predictions over HTTP with atomic hot-swap via
// POST /admin/reload and load shedding at an admission bound — the
// deployment stage that terminates the paper's adaptation pipeline.
//
// Usage:
//
//	serve [-addr :8099] [-model model.xma] [-train model.xma [-train-only]]
//	      [-fusion early|intermediate|devise] [-task CT1] [-scale 0.1]
//	      [-seed 17] [-workers N] [-cache 65536] [-canary 32]
//	      [-queue 1024] [-timeout 500ms]
//
// Typical flows:
//
//	serve -train model.xma -train-only -scale 0.1   # write an artifact
//	serve -model model.xma                          # serve it
//	serve -train model.xma -scale 0.1               # train, save, and serve
//
//	curl -s localhost:8099/predict -d '{"points":[{"id":7}]}'
//	curl -s localhost:8099/admin/reload -d '{"path":"model.xma"}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"crossmodal/internal/featurestore"
	"crossmodal/internal/fusion"
	"crossmodal/internal/mapreduce"
	"crossmodal/internal/model"
	"crossmodal/internal/resource"
	"crossmodal/internal/serve"
	"crossmodal/internal/synth"
	"crossmodal/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serve: ")
	var (
		addr       = flag.String("addr", ":8099", "listen address")
		modelPath  = flag.String("model", "", "model artifact to serve at startup")
		trainPath  = flag.String("train", "", "train a model and save the artifact here")
		trainOnly  = flag.Bool("train-only", false, "exit after training (requires -train)")
		fusionKind = flag.String("fusion", "early", "fusion architecture to train: early, intermediate, devise")
		taskName   = flag.String("task", "CT1", "classification task to train on (CT1..CT5)")
		scale      = flag.Float64("scale", 0.1, "training corpus scale factor")
		seed       = flag.Int64("seed", 17, "base seed for request point derivation and training")
		workers    = flag.Int("workers", 0, "worker goroutines for training and canary featurization (0 = GOMAXPROCS)")
		cache      = flag.Int("cache", 65536, "featurestore capacity (points)")
		canaryN    = flag.Int("canary", 32, "canary batch size validating every hot swap (0 disables)")
		queue      = flag.Int("queue", 1024, "requests that may wait for a run slot; excess load is shed with 429")
		timeout    = flag.Duration("timeout", 500*time.Millisecond, "per-request scoring budget")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (empty disables)")
		tracePath  = flag.String("trace", "", "write a Chrome trace_event JSON file on shutdown (open in chrome://tracing or ui.perfetto.dev)")
		traceSum   = flag.Bool("trace-summary", false, "print the aggregated stage tree to stderr on shutdown")
	)
	flag.Parse()
	if err := run(runConfig{
		addr: *addr, modelPath: *modelPath, trainPath: *trainPath, trainOnly: *trainOnly,
		fusionKind: *fusionKind, taskName: *taskName, scale: *scale, seed: *seed,
		workers: *workers, cache: *cache, canaryN: *canaryN,
		queue: *queue, timeout: *timeout,
		pprofAddr: *pprofAddr, tracePath: *tracePath, traceSummary: *traceSum,
	}); err != nil {
		log.Fatal(err)
	}
}

type runConfig struct {
	addr                 string
	modelPath, trainPath string
	trainOnly            bool
	fusionKind, taskName string
	scale                float64
	seed                 int64
	workers, cache       int
	canaryN              int
	timeout              time.Duration
	queue                int
	pprofAddr            string
	tracePath            string
	traceSummary         bool
}

// validate rejects flag combinations before any expensive work (world
// construction, training) starts, so operator mistakes fail in milliseconds
// with a message naming the offending flag.
func (c runConfig) validate() error {
	if c.addr == "" {
		return errors.New("-addr must not be empty")
	}
	if c.trainOnly && c.trainPath == "" {
		return errors.New("-train-only requires -train")
	}
	switch c.fusionKind {
	case "early", "intermediate", "devise":
	default:
		return fmt.Errorf("-fusion %q: want early, intermediate, or devise", c.fusionKind)
	}
	if _, err := synth.TaskByName(c.taskName); err != nil {
		return fmt.Errorf("-task %q: %w", c.taskName, err)
	}
	if c.scale <= 0 {
		return fmt.Errorf("-scale %v: must be > 0", c.scale)
	}
	if c.workers < 0 {
		return fmt.Errorf("-workers %d: must be >= 0", c.workers)
	}
	if c.cache <= 0 { // 0 would make the store unbounded
		return fmt.Errorf("-cache %d: must be > 0", c.cache)
	}
	if c.canaryN < 0 {
		return fmt.Errorf("-canary %d: must be >= 0", c.canaryN)
	}
	if c.queue <= 0 { // 0 would mean the batcher's default of 1024 waiters
		return fmt.Errorf("-queue %d: must be > 0", c.queue)
	}
	if c.timeout <= 0 {
		return fmt.Errorf("-timeout %v: must be > 0", c.timeout)
	}
	return nil
}

func run(cfg runConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	var summaryW io.Writer
	if cfg.traceSummary {
		summaryW = os.Stderr
	}
	stopTrace, err := trace.Capture(cfg.tracePath, summaryW, "", "")
	if err != nil {
		return err
	}
	defer func() {
		if terr := stopTrace(); terr != nil {
			log.Printf("trace: %v", terr)
		}
	}()
	srv, err := newServer(cfg)
	if err != nil || srv == nil {
		return err
	}
	defer srv.Close()

	if cfg.pprofAddr != "" {
		// net/http/pprof registers on the default mux; expose it on its own
		// listener so profiling never mixes with serving traffic.
		go func() { log.Printf("pprof: %v", http.ListenAndServe(cfg.pprofAddr, nil)) }()
	}

	hs := serve.NewHTTPServer(cfg.addr, srv.Handler())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("listening on %s", cfg.addr)
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		log.Printf("shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return hs.Shutdown(sctx)
	}
}

// newServer builds the serving stack cfg names — world, library, feature
// store, the -train model, canary batch — and installs the start model, if
// any. It returns a nil server after -train-only.
func newServer(cfg runConfig) (*serve.Server, error) {
	world, err := synth.NewWorld(synth.DefaultConfig())
	if err != nil {
		return nil, err
	}
	lib, err := resource.StandardLibrary(world)
	if err != nil {
		return nil, err
	}
	store, err := featurestore.New(lib, cfg.cache)
	if err != nil {
		return nil, err
	}

	startPath := cfg.modelPath
	if cfg.trainPath != "" {
		if err := train(world, lib, cfg); err != nil {
			return nil, err
		}
		log.Printf("trained %s model for %s → %s", cfg.fusionKind, cfg.taskName, cfg.trainPath)
		if cfg.trainOnly {
			return nil, nil
		}
		if startPath == "" {
			startPath = cfg.trainPath
		}
	}

	canary := make([]*synth.Point, cfg.canaryN)
	for i := range canary {
		// Derived as the server derives a request — the serving store holds
		// only such points — at IDs far above live traffic's.
		canary[i] = serve.DerivePoint(world, cfg.seed, 1<<30+i, synth.Image, 0)
	}
	srv, err := serve.New(serve.Config{
		Store:   store,
		World:   world,
		Seed:    cfg.seed,
		Workers: cfg.workers,
		Timeout: cfg.timeout,
		Batcher: serve.BatcherConfig{QueueDepth: cfg.queue},
	}, canary)
	if err != nil {
		return nil, err
	}
	if startPath == "" {
		log.Printf("no model loaded; POST /admin/reload to install one")
		return srv, nil
	}
	l, err := srv.Registry().LoadArtifact(startPath)
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("load %s: %w", startPath, err)
	}
	log.Printf("serving %s model (seq %d) from %s", l.Kind, l.Seq, l.Path)
	return srv, nil
}

// train builds a dataset for the task and trains the requested fusion
// architecture on the labeled text corpus plus the hand-labeled image pool —
// the fully supervised path, which is all serving needs (the weak-supervision
// pipeline lives in cmd/crossmodal). It bypasses the serving store: dataset
// entities are not DerivePoint's, so there they would answer their IDs.
func train(world *synth.World, lib *resource.Library, cfg runConfig) error {
	task, err := synth.TaskByName(cfg.taskName)
	if err != nil {
		return err
	}
	dsCfg := synth.DefaultDatasetConfig().Scaled(cfg.scale, 1)
	dsCfg.Seed = cfg.seed
	ds, err := synth.BuildDataset(world, task, dsCfg)
	if err != nil {
		return err
	}

	ctx := context.Background()
	mrCfg := mapreduce.Config{Workers: cfg.workers}
	corpusOf := func(name string, pts []*synth.Point) (fusion.Corpus, error) {
		vecs, err := lib.Featurize(ctx, mrCfg, pts)
		if err != nil {
			return fusion.Corpus{}, err
		}
		return fusion.Corpus{Name: name, Vectors: vecs, Targets: fusion.HardTargets(synth.Labels(pts))}, nil
	}
	text, err := corpusOf("text", ds.LabeledText)
	if err != nil {
		return err
	}
	image, err := corpusOf("image", ds.HandLabelPool)
	if err != nil {
		return err
	}

	fcfg := fusion.Config{
		Schema: lib.Schema().Servable(),
		Model: model.Config{
			Hidden:       []int{16},
			Epochs:       4,
			Seed:         cfg.seed,
			LearningRate: 0.02,
			Workers:      cfg.workers,
		},
	}
	var m fusion.Predictor
	switch cfg.fusionKind {
	case "early":
		m, err = fusion.TrainEarly(ctx, []fusion.Corpus{text, image}, fcfg)
	case "intermediate":
		m, err = fusion.TrainIntermediate(ctx, []fusion.Corpus{text, image}, fcfg)
	case "devise":
		m, err = fusion.TrainDeViSE(ctx, []fusion.Corpus{text}, image, fcfg)
	default:
		return fmt.Errorf("unknown fusion kind %q", cfg.fusionKind)
	}
	if err != nil {
		return err
	}
	return fusion.SaveFile(cfg.trainPath, m)
}
