package main

// surface.go holds every call the benchmark makes into the program under
// test, through the public functions README.md's tables name. A later API
// change breaks this file and no other.

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"crossmodal/internal/core"
	"crossmodal/internal/feature"
	"crossmodal/internal/featurestore"
	"crossmodal/internal/featurestore/disk"
	"crossmodal/internal/fusion"
	"crossmodal/internal/labelmodel"
	"crossmodal/internal/labelprop"
	"crossmodal/internal/lf"
	"crossmodal/internal/lifecycle"
	"crossmodal/internal/mapreduce"
	"crossmodal/internal/metrics"
	"crossmodal/internal/mining"
	"crossmodal/internal/model"
	"crossmodal/internal/monitor"
	"crossmodal/internal/resource"
	"crossmodal/internal/serve"
	"crossmodal/internal/synth"
)

var ctxBG = context.Background()

// base is what every workload builds first: the evaluation world, its
// resource library and task CT1.
type base struct {
	world *synth.World
	lib   *resource.Library
	task  *synth.Task
}

func newBase() (*base, error) {
	w, err := synth.NewWorld(synth.DefaultConfig())
	if err != nil {
		return nil, err
	}
	lib, err := resource.StandardLibrary(w)
	if err != nil {
		return nil, err
	}
	task, err := synth.TaskByName("CT1")
	if err != nil {
		return nil, err
	}
	return &base{world: w, lib: lib, task: task}, nil
}

// curateOut is what one repetition of a curation workload produced.
type curateOut struct {
	wsF1        float64
	auprc       float64 // curate_mem only: the trained predictor on the test corpus
	digest      uint64  // of ProbLabels and Covered, bit for bit
	chunks      int     // committed store chunks (stream only)
	wantChunks  int
	quarantined int
	// core.curate_s and core.train_s, from the spanned repetition.
	curateS, trainS float64
}

func digestLabels(probs []float64, covered []bool) uint64 {
	h := fnv.New64a()
	var b [9]byte
	for i, p := range probs {
		bits := math.Float64bits(p)
		for k := 0; k < 8; k++ {
			b[k] = byte(bits >> (8 * k))
		}
		b[8] = 0
		if covered[i] {
			b[8] = 1
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// ---------------------------------------------------------------- curate_mem

type curateMem struct {
	*base
	ds   *synth.Dataset
	opts core.Options
	pipe *core.Pipeline
}

func setupCurateMem(cfg runConfig) (*curateMem, map[string]int, error) {
	b, err := newBase()
	if err != nil {
		return nil, nil, err
	}
	dsCfg := synth.DatasetConfig{
		Seed: corpusSeed, NumText: cfg.size(24000), NumUnlabeledImage: cfg.size(16000), NumTest: cfg.size(2000),
	}
	ds, err := synth.BuildDataset(b.world, b.task, dsCfg)
	if err != nil {
		return nil, nil, err
	}
	opts := core.DefaultOptions()
	opts.Workers = cfg.workers()
	pipe, err := core.NewPipeline(b.lib, opts)
	if err != nil {
		return nil, nil, err
	}
	sizes := map[string]int{"text": dsCfg.NumText, "image": dsCfg.NumUnlabeledImage, "test": dsCfg.NumTest}
	return &curateMem{base: b, ds: ds, opts: pipe.Options(), pipe: pipe}, sizes, nil
}

// rep is input → complete result: Run, then EvaluateAUPRC on the test
// corpus. With a recorder it takes Run's two halves separately, so the
// spanned repetition yields core.curate_s and core.train_s.
func (e *curateMem) rep(rec *recorder, req int) (curateOut, error) {
	var out curateOut
	var pred fusion.Predictor
	var cur *core.Curation
	if rec == nil {
		res, err := e.pipe.Run(ctxBG, e.ds)
		if err != nil {
			return out, err
		}
		pred, cur = res.Predictor, res.Curation
	} else {
		root := rec.begin("rep", -1, req)
		defer rec.end(root)
		var err error
		d := rec.do("core.Pipeline.Curate", root, req, func(int) { cur, err = e.pipe.Curate(ctxBG, e.ds) })
		if err != nil {
			return out, err
		}
		out.curateS = d.Seconds()
		d = rec.do("core.Pipeline.Train", root, req, func(int) { pred, err = e.pipe.Train(ctxBG, cur, e.pipe.DefaultTrainSpec()) })
		if err != nil {
			return out, err
		}
		out.trainS = d.Seconds()
		id := rec.begin("core.Pipeline.EvaluateAUPRC", root, req)
		defer rec.end(id)
	}
	auprc, err := e.pipe.EvaluateAUPRC(ctxBG, pred, e.ds.TestImage)
	if err != nil {
		return out, err
	}
	out.auprc, out.wsF1 = auprc, cur.Report.WSF1
	out.digest = digestLabels(cur.ProbLabels, cur.Covered)
	return out, nil
}

// layerClock records the replay's spans and, per span name, how much work
// the calls did, so a layer metric is self time ÷ work.
type layerClock struct {
	rec      *recorder
	work     map[string]float64
	isOnPath map[string]bool
}

func newLayerClock(rec *recorder) *layerClock {
	return &layerClock{rec: rec, work: map[string]float64{}, isOnPath: map[string]bool{}}
}

// call times fn as a span under parent and books n units of work to name.
// onPath marks layers the end-to-end workload also executes; the rest are
// alternate paths and microbenchmarks timed for their own metric only.
func (c *layerClock) call(name string, parent int, onPath bool, n float64, fn func(id int) error) error {
	var err error
	c.rec.do(name, parent, 0, func(id int) { err = fn(id) })
	c.work[name] += n
	if onPath {
		c.isOnPath[name] = true
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

func reproject(vecs []*feature.Vector, schema *feature.Schema) []*feature.Vector {
	out := make([]*feature.Vector, len(vecs))
	for i, v := range vecs {
		out[i] = v.Reproject(schema)
	}
	return out
}

// propTargets are the precision targets core.tunePropCuts hands ChooseCuts.
func propTargets(opts core.Options, base float64) (pos, neg float64) {
	pos = math.Min(math.Max(opts.PosCutLift*base, 0.03), 0.8)
	neg = math.Max(1-base/3, opts.NegCutPrecision)
	return pos, neg
}

func hardTargets(labels []int8) []float64 {
	t := make([]float64, len(labels))
	for i, l := range labels {
		if l > 0 {
			t[i] = 1
		}
	}
	return t
}

func voteRate(m *lf.Matrix) float64 {
	var votes, cast float64
	for _, row := range m.Votes {
		for _, v := range row {
			votes++
			if v != 0 {
				cast++
			}
		}
	}
	if votes == 0 {
		return 0
	}
	return cast / votes
}

// Span names of the replay. A layer metric is the self time of its span name
// divided by the work booked to it.
const (
	spFeaturizeText  = "resource.Library.Featurize.text"
	spFeaturizeImage = "resource.Library.Featurize.image"
	spReproject      = "feature.Vector.Reproject"
	spFitScales      = "feature.FitScales"
	spMine           = "mining.Mine"
	spMineStream     = "mining.MineStream"
	spApply          = "lf.Apply"
	spAppendScore    = "lf.Matrix.AppendScoreLF"
	spFitWeights     = "labelprop.FitFeatureWeights"
	spBuildGraph     = "labelprop.BuildGraph"
	spBuildLSH       = "labelprop.BuildGraph.lsh"
	spDelta          = "labelprop.Builder.ApplyDelta"
	spPropagate      = "labelprop.Propagate"
	spChooseCuts     = "labelprop.ChooseCuts"
	spFitLM          = "labelmodel.FitSupervised"
	spPredictLM      = "labelmodel.Model.Predict"
	spTrainEarly     = "fusion.TrainEarly"
	spPredictBatch   = "fusion.EarlyModel.PredictBatch"
	spVectorize      = "feature.Vectorizer.TransformInto"
	spSimKernel      = "feature.SimKernel.Similarity"
	spModelTrain     = "model.Train"
	spMapNoop        = "mapreduce.Map.noop"
	spStreamNext     = "synth.Stream.Next"
	spAppendChunk    = "disk.Store.AppendChunk"
	spScanChunks     = "disk.Store.ScanChunks"
	spDiskOpen       = "disk.Open"
	spDiskFind       = "disk.Store.Find"
)

// graphStage is the propagation half both replays share once the node
// vectors are assembled: weights, graph, propagation, cuts, and the score LF
// appended to both matrices. build constructs the graph (one BuildGraph call
// or a run of Builder deltas).
func graphStage(c *layerClock, root int, opts core.Options, gSchema *feature.Schema, scales feature.Scales,
	seedNodes []*feature.Vector, seedLabels []int8, devLabels []int8, nImages, window int,
	matrix, devMatrix *lf.Matrix, devRows []int,
	build func(gcfg labelprop.GraphConfig) (*labelprop.Graph, error)) (*labelprop.Graph, labelprop.GraphConfig, error) {

	gcfg := opts.Graph
	gcfg.Seed = opts.Seed ^ 0x6a7f
	gcfg.Workers = opts.Workers
	if err := c.call(spFitWeights, root, true, 1, func(int) error {
		w, err := labelprop.FitFeatureWeights(seedNodes, seedLabels, scales, 20000, opts.Seed^0x77)
		if err == nil {
			gcfg.Weights = w
		}
		return nil
	}); err != nil {
		return nil, gcfg, err
	}
	graph, err := build(gcfg)
	if err != nil {
		return nil, gcfg, err
	}
	seeds := make(map[int]float64, len(seedLabels))
	var pos float64
	for i, l := range seedLabels {
		if l > 0 {
			seeds[i] = 1
			pos++
		} else {
			seeds[i] = 0
		}
	}
	prior := pos / float64(len(seedLabels))
	pcfg := opts.Prop
	pcfg.Prior = prior
	var res *labelprop.Result
	if err := c.call(spPropagate, root, true, 0, func(int) error {
		res, err = labelprop.Propagate(ctxBG, graph, seeds, pcfg)
		return err
	}); err != nil {
		return nil, gcfg, err
	}
	c.work[spPropagate] += float64(graph.NumEdges() * res.Iters)
	c.work["iters"] = float64(res.Iters)
	c.work["edges_per_vertex"] = float64(graph.NumEdges()) / float64(graph.NumVertices())

	devStart := len(seedNodes)
	imageStart := devStart + len(devLabels)
	var cuts labelprop.Cuts
	posT, negT := propTargets(opts, prior)
	if err := c.call(spChooseCuts, root, true, 1, func(int) error {
		cuts, err = labelprop.ChooseCuts(res.Scores[devStart:imageStart], devLabels, posT, negT)
		return err
	}); err != nil {
		return nil, gcfg, err
	}
	return graph, gcfg, c.call(spAppendScore, root, true, 1, func(int) error {
		img := &lf.ScoreLF{Name: "labelprop", Source: "labelprop", PosCut: cuts.Pos, NegCut: cuts.Neg,
			Scores: make([]float64, nImages), Present: make([]bool, nImages)}
		copy(img.Scores, res.Scores[imageStart:imageStart+window])
		copy(img.Present, res.Reached[imageStart:imageStart+window])
		if err := matrix.AppendScoreLF(img); err != nil {
			return err
		}
		dev := &lf.ScoreLF{Name: "labelprop", Source: "labelprop", PosCut: cuts.Pos, NegCut: cuts.Neg,
			Scores: make([]float64, devMatrix.NumPoints()), Present: make([]bool, devMatrix.NumPoints())}
		for i, row := range devRows {
			dev.Scores[row] = res.Scores[devStart+i]
			dev.Present[row] = res.Reached[devStart+i]
		}
		return devMatrix.AppendScoreLF(dev)
	})
}

// denoiseStage fits the dev-anchored label model and predicts the
// probabilistic labels.
func denoiseStage(c *layerClock, root int, opts core.Options, matrix, devMatrix *lf.Matrix, textLabels []int8) ([]float64, []bool, error) {
	lmCfg := opts.LabelModel
	lmCfg.ClassBalance = metrics.BaseRate(textLabels)
	var lm *labelmodel.Model
	var err error
	if err := c.call(spFitLM, root, true, float64(devMatrix.NumPoints()), func(int) error {
		lm, err = labelmodel.FitSupervised(ctxBG, devMatrix, textLabels, lmCfg)
		return err
	}); err != nil {
		return nil, nil, err
	}
	var probs []float64
	if err := c.call(spPredictLM, root, true, float64(matrix.NumPoints()), func(int) error {
		probs, err = lm.Predict(matrix)
		return err
	}); err != nil {
		return nil, nil, err
	}
	return probs, labelmodel.Covered(matrix), nil
}

// graphSplitSizes mirrors core.graphSplit's sizes (not its permutation: the
// corpus is i.i.d., so the first rows cost what a random sample costs).
func graphSplitSizes(opts core.Options, nText int) (nSeeds, nDev int) {
	nSeeds = min(opts.MaxGraphSeeds, nText)
	nDev = min(opts.GraphDevNodes, nText-nSeeds)
	if nDev == 0 {
		nSeeds = nText * 3 / 4
		nDev = nText - nSeeds
	}
	return nSeeds, nDev
}

func seq(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

// replay re-executes core.Curate + Train stage by stage with each layer's
// public functions on the same dataset, then times the alternate paths and
// microbenchmarks that have a layer metric but no place on this path.
func (e *curateMem) replay(c *layerClock) error {
	opts := e.opts
	mr := mapreduce.Config{Workers: opts.Workers}
	root := c.rec.begin("replay", -1, 0)
	defer c.rec.end(root)

	var textVecs, imageVecs, testVecs []*feature.Vector
	allocs := readMetric(allocsMetric)
	err := c.call(spFeaturizeText, root, true, float64(len(e.ds.LabeledText)), func(int) (err error) {
		textVecs, err = e.lib.Featurize(ctxBG, mr, e.ds.LabeledText)
		return err
	})
	if err != nil {
		return err
	}
	err = c.call(spFeaturizeImage, root, true, float64(len(e.ds.UnlabeledImage)), func(int) (err error) {
		imageVecs, err = e.lib.Featurize(ctxBG, mr, e.ds.UnlabeledImage)
		return err
	})
	if err != nil {
		return err
	}
	c.work["featurize_bytes"] = float64(readMetric(allocsMetric) - allocs)
	textLabels := synth.Labels(e.ds.LabeledText)

	lfSchema := e.lib.Schema().Sets(opts.LFSets...)
	var lfText, lfImage []*feature.Vector
	_ = c.call(spReproject, root, true, float64(len(textVecs)+len(imageVecs)), func(int) error {
		lfText, lfImage = reproject(textVecs, lfSchema), reproject(imageVecs, lfSchema)
		return nil
	})

	var lfs []*lf.LF
	var mrep mining.Report
	err = c.call(spMine, root, true, float64(len(lfText)), func(int) (err error) {
		lfs, mrep, err = mining.Mine(ctxBG, mr, opts.Mining, lfText, textLabels)
		return err
	})
	if err != nil {
		return err
	}
	bookMining(c, mrep, len(lfs))

	var devMatrix, matrix *lf.Matrix
	err = c.call(spApply, root, true, float64((len(lfText)+len(lfImage))*len(lfs)), func(int) (err error) {
		if devMatrix, err = lf.Apply(ctxBG, mr, lfs, lfText); err != nil {
			return err
		}
		matrix, err = lf.Apply(ctxBG, mr, lfs, lfImage)
		return err
	})
	if err != nil {
		return err
	}
	c.work["vote_rate"] = voteRate(matrix)

	// Propagation graph: seeds, held-out dev nodes, then every image.
	gSchema := e.lib.Schema().Sets(append(append([]string{}, opts.LFSets...), resource.ImageSet)...)
	nSeeds, nDev := graphSplitSizes(opts, len(textVecs))
	var nodes []*feature.Vector
	_ = c.call(spReproject, root, true, float64(nSeeds+nDev+len(imageVecs)), func(int) error {
		nodes = append(reproject(textVecs[:nSeeds+nDev], gSchema), reproject(imageVecs, gSchema)...)
		return nil
	})
	var scales feature.Scales
	_ = c.call(spFitScales, root, true, float64(len(nodes)), func(int) error {
		scales = feature.FitScales(gSchema, nodes)
		return nil
	})
	graph, gcfg, err := graphStage(c, root, opts, gSchema, scales,
		nodes[:nSeeds], textLabels[:nSeeds], textLabels[nSeeds:nSeeds+nDev], len(imageVecs), len(imageVecs),
		matrix, devMatrix, seq(nSeeds, nSeeds+nDev),
		func(gcfg labelprop.GraphConfig) (g *labelprop.Graph, err error) {
			err = c.call(spBuildGraph, root, true, float64(len(nodes)), func(int) (err error) {
				g, err = labelprop.BuildGraph(ctxBG, gcfg, nodes, scales)
				return err
			})
			return g, err
		})
	if err != nil {
		return err
	}

	probs, covered, err := denoiseStage(c, root, opts, matrix, devMatrix, textLabels)
	if err != nil {
		return err
	}

	// Stage C: early fusion over the labeled text and the covered images.
	endSchema := e.pipe.EndSchema()
	image := fusion.Corpus{Name: "image"}
	for i, v := range imageVecs {
		if covered[i] {
			image.Vectors = append(image.Vectors, v)
			image.Targets = append(image.Targets, probs[i])
		}
	}
	if len(image.Vectors) == 0 {
		return fmt.Errorf("replay: weak supervision covered no image points")
	}
	corpora := []fusion.Corpus{{Name: "text", Vectors: textVecs, Targets: hardTargets(textLabels)}, image}
	mcfg := opts.Model
	mcfg.Workers = opts.Workers
	var em *fusion.EarlyModel
	err = c.call(spTrainEarly, root, true, 1, func(int) (err error) {
		em, err = fusion.TrainEarly(ctxBG, corpora, fusion.Config{Schema: endSchema, Model: mcfg, MaxVocab: opts.MaxVocab})
		return err
	})
	if err != nil {
		return err
	}
	err = c.call(spFeaturizeImage, root, true, float64(len(e.ds.TestImage)), func(int) (err error) {
		testVecs, err = e.lib.Featurize(ctxBG, mr, e.ds.TestImage)
		return err
	})
	if err != nil {
		return err
	}
	_ = c.call(spPredictBatch, root, true, float64(len(testVecs)), func(int) error {
		em.PredictBatch(testVecs)
		return nil
	})

	// Off the path from here on.
	extras := c.rec.begin("extras", -1, 0)
	defer c.rec.end(extras)
	lshCfg := gcfg
	lshCfg.LSH.Enable = true
	var lshGraph *labelprop.Graph
	err = c.call(spBuildLSH, extras, false, float64(len(nodes)), func(int) (err error) {
		lshGraph, err = labelprop.BuildGraph(ctxBG, lshCfg, nodes, scales)
		return err
	})
	if err != nil {
		return err
	}
	c.work["lsh_recall"] = labelprop.Recall(graph, lshGraph)

	kernel := feature.NewSimKernel(gSchema, scales, gcfg.Weights)
	pairs := min(200_000, len(nodes)-1)
	_ = c.call(spSimKernel, extras, false, float64(pairs), func(int) error {
		var sink float64
		for i := 0; i < pairs; i++ {
			for f := 0; f < gSchema.Len(); f++ {
				s, _ := kernel.Similarity(nodes[i], nodes[i+1], f)
				sink += s
			}
		}
		c.work["sink"] = sink // keeps the sweep from being optimized away
		return nil
	})

	trainVecs := append(append([]*feature.Vector{}, textVecs...), image.Vectors...)
	targets := append(hardTargets(textLabels), image.Targets...)
	vz := vectorizeBench(c, extras, endSchema, trainVecs, opts.MaxVocab)
	X := vz.TransformAllWorkers(trainVecs, opts.Workers)
	trainCfg := mcfg
	trainCfg.Epochs = 2
	err = c.call(spModelTrain, extras, false, float64(len(X)*trainCfg.Epochs), func(int) error {
		_, err := model.Train(ctxBG, X, targets, nil, trainCfg)
		return err
	})
	if err != nil {
		return err
	}
	return mapNoop(c, extras, mr)
}

func bookMining(c *layerClock, rep mining.Report, lfs int) {
	c.work["lfs_out"] = float64(lfs)
	if rep.CandidatesScanned > 0 {
		c.work["accept_ratio"] = float64(rep.PositiveLFs+rep.NegativeLFs+rep.NumericLFs) / float64(rep.CandidatesScanned)
	}
}

// vectorizeBench re-fits a vectorizer on the corpus the end model trains on
// (EarlyModel keeps its own private) and times TransformInto.
func vectorizeBench(c *layerClock, parent int, schema *feature.Schema, vecs []*feature.Vector, maxVocab int) *feature.Vectorizer {
	var vopts []feature.VectorizerOption
	if maxVocab > 0 {
		vopts = append(vopts, feature.WithMaxVocabulary(maxVocab))
	}
	vz := feature.FitVectorizer(schema, vecs, vopts...)
	row := make([]float64, vz.Width())
	n := min(len(vecs), 50_000)
	_ = c.call(spVectorize, parent, false, float64(n), func(int) error {
		for _, v := range vecs[:n] {
			vz.TransformInto(v, row)
		}
		return nil
	})
	return vz
}

// mapNoop times mapreduce.Map with a function that does nothing: what the
// fan-out costs per item under Featurize and Apply.
func mapNoop(c *layerClock, parent int, mr mapreduce.Config) error {
	items := make([]int, 1<<20)
	return c.call(spMapNoop, parent, false, float64(len(items)), func(int) error {
		_, err := mapreduce.Map(ctxBG, mr, items, func(i int) (int, error) { return i, nil })
		return err
	})
}

// ------------------------------------------------------------- curate_stream

const (
	streamChunk       = 8192
	streamGraphWindow = 2000
)

type curateStream struct {
	*base
	dsCfg synth.DatasetConfig
	opts  core.Options
	pipe  *core.Pipeline
}

func setupCurateStream(cfg runConfig) (*curateStream, map[string]int, error) {
	b, err := newBase()
	if err != nil {
		return nil, nil, err
	}
	// CurateStreamed calibrates the task's threshold when it starts its
	// stream; doing it here, with the same seed, makes it set-up.
	if err := b.task.Calibrate(b.world, 40000, corpusSeed^0x5ca1ab1e); err != nil {
		return nil, nil, err
	}
	// The BenchmarkScaleStream shape.
	opts := core.DefaultOptions()
	opts.Workers = cfg.workers()
	opts.MaxGraphSeeds, opts.GraphDevNodes = 600, 200
	opts.Mining.NumericQuantiles = 0
	pipe, err := core.NewPipeline(b.lib, opts)
	if err != nil {
		return nil, nil, err
	}
	dsCfg := synth.DatasetConfig{
		Seed: corpusSeed, NumText: cfg.size(180000), NumUnlabeledImage: cfg.size(120000),
		NumHandLabelPool: 500, NumTest: 500,
	}
	sizes := map[string]int{"text": dsCfg.NumText, "image": dsCfg.NumUnlabeledImage, "chunk": streamChunk, "graph_window": streamGraphWindow}
	return &curateStream{base: b, dsCfg: dsCfg, opts: pipe.Options(), pipe: pipe}, sizes, nil
}

func chunksFor(rows int) int { return (rows + streamChunk - 1) / streamChunk }

// rep is CurateStreamed into the fresh directory dir.
func (e *curateStream) rep(rec *recorder, req int, dir string) (curateOut, error) {
	var out curateOut
	var sc *core.StreamedCuration
	var err error
	d := rec.do("core.Pipeline.CurateStreamed", -1, req, func(int) {
		sc, err = e.pipe.CurateStreamed(ctxBG, e.world, e.task, e.dsCfg, core.StreamOptions{
			Dir: dir, ChunkSize: streamChunk, GraphWindow: streamGraphWindow,
		})
	})
	if err != nil {
		return out, err
	}
	defer sc.Close()
	out.curateS = d.Seconds()
	out.wsF1 = sc.Report.WSF1
	out.digest = digestLabels(sc.ProbLabels, sc.Covered)
	out.chunks = sc.Text.Chunks() + sc.Image.Chunks()
	out.wantChunks = chunksFor(e.dsCfg.NumText) + chunksFor(e.dsCfg.NumUnlabeledImage)
	out.quarantined = len(sc.Text.Quarantined()) + len(sc.Image.Quarantined())
	return out, nil
}

// storeCorpus adapts a disk store to mining.Corpus the way core does, with
// the scan and the reprojection spanned under the MineStream call.
type storeCorpus struct {
	c      *layerClock
	parent int
	store  *disk.Store
	schema *feature.Schema
}

func (s *storeCorpus) Schema() *feature.Schema { return s.schema }

func (s *storeCorpus) Scan(ctx context.Context, fn func([]*feature.Vector, []int8) error) error {
	return scanSpanned(s.c, s.parent, s.store, 0, func(scanID int, vecs []*feature.Vector, labels []int8) error {
		var proj []*feature.Vector
		_ = s.c.call(spReproject, scanID, true, float64(len(vecs)), func(int) error {
			proj = reproject(vecs, s.schema)
			return nil
		})
		return s.c.call(spMineStream, scanID, true, 0, func(int) error { return fn(proj, labels) })
	})
}

var errStopScan = fmt.Errorf("stop scan")

// scanSpanned runs ScanChunks as a span under parent; the callback gets the
// scan's span id so its own work nests under (and is subtracted from) the
// scan. limit > 0 stops after that many rows.
func scanSpanned(c *layerClock, parent int, store *disk.Store, limit int, fn func(scanID int, vecs []*feature.Vector, labels []int8) error) error {
	rows := 0
	return c.call(spScanChunks, parent, true, 0, func(scanID int) error {
		err := store.ScanChunks(ctxBG, func(_ int, _ []int, labels []int8, vecs []*feature.Vector) error {
			if limit > 0 && rows+len(vecs) > limit {
				vecs, labels = vecs[:limit-rows], labels[:limit-rows]
			}
			rows += len(vecs)
			c.work[spScanChunks] += float64(len(vecs))
			if err := fn(scanID, vecs, labels); err != nil {
				return err
			}
			if limit > 0 && rows >= limit {
				return errStopScan
			}
			return nil
		})
		if err == errStopScan {
			return nil
		}
		return err
	})
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// replay re-executes core.CurateStreamed stage by stage: generate, featurize
// and append chunk by chunk, then mine, apply, build the windowed graph by
// deltas, propagate and denoise, all over the stores it just wrote.
func (e *curateStream) replay(c *layerClock, dir string) error {
	opts := e.opts
	mr := mapreduce.Config{Workers: opts.Workers}
	root := c.rec.begin("replay", -1, 0)
	defer c.rec.end(root)

	stream, err := synth.NewStream(e.world, e.task, e.dsCfg)
	if err != nil {
		return err
	}
	schema := e.lib.Schema()
	textDir, imageDir := filepath.Join(dir, "text"), filepath.Join(dir, "image")
	text, err := disk.Open(textDir, schema, disk.Options{})
	if err != nil {
		return err
	}
	defer func() { text.Close() }()
	image, err := disk.Open(imageDir, schema, disk.Options{})
	if err != nil {
		return err
	}
	defer func() { image.Close() }()

	var textLabels, imageTruth []int8
	allocs := uint64(0)
	for {
		var ch *synth.Chunk
		_ = c.call(spStreamNext, root, true, 0, func(int) error {
			ch = stream.Next(streamChunk)
			return nil
		})
		if ch == nil {
			break
		}
		c.work[spStreamNext] += float64(len(ch.Points))
		store, span := text, spFeaturizeText
		switch ch.Corpus {
		case synth.TextCorpus:
			textLabels = append(textLabels, synth.Labels(ch.Points)...)
		case synth.ImageCorpus:
			store, span = image, spFeaturizeImage
			imageTruth = append(imageTruth, synth.Labels(ch.Points)...)
		default:
			continue // pool and test points stay in memory and are not featurized here
		}
		var vecs []*feature.Vector
		before := readMetric(allocsMetric)
		err := c.call(span, root, true, float64(len(ch.Points)), func(int) (err error) {
			vecs, err = e.lib.Featurize(ctxBG, mr, ch.Points)
			return err
		})
		if err != nil {
			return err
		}
		allocs += readMetric(allocsMetric) - before
		ids := make([]int, len(ch.Points))
		for i, pt := range ch.Points {
			ids[i] = pt.ID
		}
		err = c.call(spAppendChunk, root, true, float64(len(ids)), func(int) error {
			return store.AppendChunk(ctxBG, ids, synth.Labels(ch.Points), vecs)
		})
		if err != nil {
			return err
		}
	}
	c.work["featurize_bytes"] = float64(allocs)
	nText, nImages := text.Rows(), image.Rows()
	bytesOnDisk, err := dirBytes(dir)
	if err != nil {
		return err
	}
	c.work["disk_bytes"] = float64(bytesOnDisk)

	lfSchema := schema.Sets(opts.LFSets...)
	var lfs []*lf.LF
	var mrep mining.Report
	err = c.call(spMineStream, root, true, float64(nText), func(id int) (err error) {
		lfs, mrep, err = mining.MineStream(ctxBG, mr, opts.Mining, &storeCorpus{c: c, parent: id, store: text, schema: lfSchema})
		return err
	})
	if err != nil {
		return err
	}
	bookMining(c, mrep, len(lfs))

	applyAll := func(store *disk.Store) (*lf.Matrix, error) {
		var matrix *lf.Matrix
		err := scanSpanned(c, root, store, 0, func(scanID int, vecs []*feature.Vector, _ []int8) error {
			var proj []*feature.Vector
			_ = c.call(spReproject, scanID, true, float64(len(vecs)), func(int) error {
				proj = reproject(vecs, lfSchema)
				return nil
			})
			return c.call(spApply, scanID, true, float64(len(vecs)*len(lfs)), func(int) error {
				m, err := lf.Apply(ctxBG, mr, lfs, proj)
				if err != nil {
					return err
				}
				if matrix == nil {
					matrix = m
				} else {
					matrix.Votes = append(matrix.Votes, m.Votes...)
				}
				return nil
			})
		})
		return matrix, err
	}
	devMatrix, err := applyAll(text)
	if err != nil {
		return err
	}
	matrix, err := applyAll(image)
	if err != nil {
		return err
	}
	c.work["vote_rate"] = voteRate(matrix)

	// Windowed propagation graph: seeds and dev nodes fetched by ID, the
	// first GraphWindow image rows folded in one Builder delta per chunk.
	gSchema := schema.Sets(append(append([]string{}, opts.LFSets...), resource.ImageSet)...)
	nSeeds, nDev := graphSplitSizes(opts, nText)
	window := min(streamGraphWindow, nImages)
	var found map[int]*feature.Vector
	err = c.call(spDiskFind, root, true, float64(nSeeds+nDev), func(int) (err error) {
		found, err = text.Find(ctxBG, seq(0, nSeeds+nDev))
		return err
	})
	if err != nil {
		return err
	}
	textNodes := make([]*feature.Vector, nSeeds+nDev)
	for i := range textNodes {
		v, ok := found[i]
		if !ok {
			return fmt.Errorf("replay: text row %d missing from store", i)
		}
		textNodes[i] = v.Reproject(gSchema)
	}
	var windowNodes [][]*feature.Vector
	err = scanSpanned(c, root, image, window, func(scanID int, vecs []*feature.Vector, _ []int8) error {
		return c.call(spReproject, scanID, true, float64(len(vecs)), func(int) error {
			windowNodes = append(windowNodes, reproject(vecs, gSchema))
			return nil
		})
	})
	if err != nil {
		return err
	}
	var scales feature.Scales
	_ = c.call(spFitScales, root, true, float64(len(textNodes)+window), func(int) error {
		acc := feature.NewScalesAccum(gSchema)
		acc.AddMeans(textNodes)
		for _, w := range windowNodes {
			acc.AddMeans(w)
		}
		acc.FinishMeans()
		acc.AddDevs(textNodes)
		for _, w := range windowNodes {
			acc.AddDevs(w)
		}
		scales = acc.Scales()
		return nil
	})
	_, _, err = graphStage(c, root, opts, gSchema, scales,
		textNodes[:nSeeds], textLabels[:nSeeds], textLabels[nSeeds:nSeeds+nDev], nImages, window,
		matrix, devMatrix, seq(nSeeds, nSeeds+nDev),
		func(gcfg labelprop.GraphConfig) (*labelprop.Graph, error) {
			b, err := labelprop.NewBuilder(gSchema, gcfg, scales)
			if err != nil {
				return nil, err
			}
			for _, delta := range append([][]*feature.Vector{textNodes}, windowNodes...) {
				err := c.call(spDelta, root, true, float64(len(delta)), func(int) error { return b.ApplyDelta(ctxBG, delta) })
				if err != nil {
					return nil, err
				}
			}
			return b.Graph(), nil
		})
	if err != nil {
		return err
	}
	if _, _, err := denoiseStage(c, root, opts, matrix, devMatrix, textLabels); err != nil {
		return err
	}

	// Off the path: what reopening the committed store costs (CRC verify).
	extras := c.rec.begin("extras", -1, 0)
	defer c.rec.end(extras)
	text.Close()
	err = c.call(spDiskOpen, extras, false, 1, func(int) (err error) {
		text, err = disk.Open(textDir, schema, disk.Options{})
		return err
	})
	if err != nil {
		return err
	}
	if text.Rows() != nText {
		return fmt.Errorf("replay: reopened text store has %d rows, wrote %d", text.Rows(), nText)
	}
	return mapNoop(c, extras, mr)
}

// curationLayerMetrics turns the replay's spans and work counts into the
// curation layer metrics and returns the self time of the on-path layers.
func curationLayerMetrics(c *layerClock, res *result) time.Duration {
	self := selfByName(c.rec.snapshot())
	per := func(metric, spanName string) {
		if w := c.work[spanName]; w > 0 {
			res.set(metric, float64(self[spanName])/w, int(w))
		}
	}
	count := func(metric, key string) {
		if v, ok := c.work[key]; ok {
			res.set(metric, v, 0)
		}
	}
	per("synth.stream_ns_per_entity", spStreamNext)
	per("resource.featurize_ns_per_point.text", spFeaturizeText)
	per("resource.featurize_ns_per_point.image", spFeaturizeImage)
	if pts := c.work[spFeaturizeText] + c.work[spFeaturizeImage]; pts > 0 {
		res.set("resource.featurize_bytes_per_point", c.work["featurize_bytes"]/pts, int(pts))
	}
	per("feature.vectorize_ns_per_point", spVectorize)
	per("feature.simkernel_ns_per_pair", spSimKernel)
	per("featurestore.disk.append_ns_per_row", spAppendChunk)
	if rows := c.work[spAppendChunk]; rows > 0 {
		res.set("featurestore.disk.bytes_per_row", c.work["disk_bytes"]/rows, int(rows))
		res.set("featurestore.disk.append_mb_per_s", c.work["disk_bytes"]/(1<<20)/(float64(self[spAppendChunk])/1e9), int(rows))
	}
	per("featurestore.disk.scan_ns_per_row", spScanChunks)
	if c.work[spDiskOpen] > 0 {
		res.set("featurestore.disk.open_ms", float64(self[spDiskOpen])/1e6, 1)
	}
	per("mining.mine_ns_per_row", spMine)
	per("mining.stream_ns_per_row", spMineStream)
	count("mining.accept_ratio", "accept_ratio")
	count("mining.lfs_out", "lfs_out")
	per("lf.apply_ns_per_vote", spApply)
	count("lf.vote_rate", "vote_rate")
	per("labelprop.build_ns_per_vertex", spBuildGraph)
	per("labelprop.build_lsh_ns_per_vertex", spBuildLSH)
	count("labelprop.lsh_recall", "lsh_recall")
	per("labelprop.delta_ns_per_vertex", spDelta)
	per("labelprop.propagate_ns_per_edge_iter", spPropagate)
	count("labelprop.edges_per_vertex", "edges_per_vertex")
	count("labelprop.iters", "iters")
	per("labelmodel.fit_ns_per_row", spFitLM)
	per("labelmodel.predict_ns_per_row", spPredictLM)
	if c.work[spTrainEarly] > 0 {
		res.set("fusion.train_s", float64(self[spTrainEarly])/1e9, 1)
	}
	per("model.train_ns_per_sample_epoch", spModelTrain)
	per("mapreduce.map_overhead_ns_per_item", spMapNoop)

	var onPath, graphFusion int64
	for name := range c.isOnPath {
		onPath += self[name]
		switch name {
		case spFitWeights, spBuildGraph, spDelta, spPropagate, spChooseCuts, spTrainEarly, spPredictBatch:
			graphFusion += self[name]
		}
	}
	if onPath > 0 {
		res.note("replay: labelprop + fusion self time is %.3f of replayed time", float64(graphFusion)/float64(onPath))
	}
	return time.Duration(onPath)
}

// ------------------------------------------------------- serve_hot, serve_cold

// storeCapacity and the batcher settings are cmd/serve's defaults: the
// server `make serve-bench` starts.
const (
	storeCapacity = 65536
	canaryPoints  = 32
	serveSeed     = 17
)

// serveEnv is a running server: the f32-stamped early-fusion CT1 model
// bootstrapped at scale 0.05, loaded from its artifact, behind a loopback
// listener.
type serveEnv struct {
	*base
	seed      int64
	workers   int
	store     *featurestore.Store
	model     *fusion.EarlyModel
	modelPath string
	srv       *serve.Server
	hs        *http.Server
	url       string
}

// setupServe trains and saves the model and starts the server. wrap, when
// non-nil, wraps the server's handler (the traced run's span middleware).
func setupServe(cfg runConfig, dir string, wrap func(http.Handler) http.Handler) (*serveEnv, error) {
	b, err := newBase()
	if err != nil {
		return nil, err
	}
	// The model and the seed points derive from are `make serve-bench`'s
	// (cmd/serve -seed 17): the run's seed chooses the request IDs, not the
	// program's state.
	e := &serveEnv{base: b, seed: serveSeed, workers: cfg.workers(), modelPath: filepath.Join(dir, "model.xma")}
	if e.store, err = featurestore.New(b.lib, storeCapacity); err != nil {
		return nil, err
	}
	// cmd/serve's -train at -scale 0.05: supervised on the labeled text and
	// the hand-labeled image pool.
	dsCfg := synth.DefaultDatasetConfig()
	dsCfg.Seed = serveSeed
	dsCfg.NumText, dsCfg.NumUnlabeledImage = dsCfg.NumText/20, dsCfg.NumUnlabeledImage/20
	dsCfg.NumHandLabelPool, dsCfg.NumTest = dsCfg.NumHandLabelPool/20, dsCfg.NumTest/20
	ds, err := synth.BuildDataset(b.world, b.task, dsCfg)
	if err != nil {
		return nil, err
	}
	mr := mapreduce.Config{Workers: e.workers}
	var corpora []fusion.Corpus
	for _, part := range []struct {
		name string
		pts  []*synth.Point
	}{{"text", ds.LabeledText}, {"image", ds.HandLabelPool}} {
		vecs, err := e.store.Featurize(ctxBG, mr, part.pts)
		if err != nil {
			return nil, err
		}
		corpora = append(corpora, fusion.Corpus{Name: part.name, Vectors: vecs, Targets: hardTargets(synth.Labels(part.pts))})
	}
	e.model, err = fusion.TrainEarly(ctxBG, corpora, fusion.Config{
		Schema: b.lib.Schema().Servable(),
		Model:  model.Config{Hidden: []int{16}, Epochs: 4, Seed: serveSeed, LearningRate: 0.02, Workers: e.workers},
	})
	if err != nil {
		return nil, err
	}
	if err := e.model.SetServePrecision(model.Float32); err != nil {
		return nil, err
	}
	if err := fusion.SaveFile(e.modelPath, e.model); err != nil {
		return nil, err
	}

	canary := make([]*synth.Point, canaryPoints)
	for i := range canary {
		canary[i] = serve.DerivePoint(b.world, serveSeed, 1<<30+i, synth.Image, 0)
	}
	e.srv, err = serve.New(serve.Config{
		Store: e.store, World: b.world, Seed: serveSeed, Workers: e.workers, Timeout: 500 * time.Millisecond,
		Batcher: serve.BatcherConfig{MaxBatchSize: 64, MaxWait: 2 * time.Millisecond, QueueDepth: 1024},
	}, canary)
	if err != nil {
		return nil, err
	}
	if _, err := e.srv.Registry().LoadArtifact(e.modelPath); err != nil {
		e.srv.Close()
		return nil, err
	}
	h := e.srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	if e.hs, e.url, err = listen(h); err != nil {
		e.srv.Close()
		return nil, err
	}
	return e, nil
}

// listen serves h on a loopback port the kernel picks.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln) // returns when close() shuts the server down
	return hs, "http://" + ln.Addr().String(), nil
}

func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(ctxBG, 5*time.Second)
	defer cancel()
	e.hs.Shutdown(ctx)
	e.srv.Close()
}

// reference scores ids in process, on the float64 path, from freshly derived
// points: what the served scores are checked against.
func (e *serveEnv) reference(ids []int) ([]float64, error) {
	pts := make([]*synth.Point, len(ids))
	for i, id := range ids {
		pts[i] = serve.DerivePoint(e.world, e.seed, id, synth.Image, 0)
	}
	vecs, err := e.lib.Featurize(ctxBG, mapreduce.Config{Workers: e.workers}, pts)
	if err != nil {
		return nil, err
	}
	return e.model.PredictBatch(vecs), nil
}

// tolerance is the served precision's divergence bound against float64.
func (e *serveEnv) tolerance() float64 {
	tol, _ := e.srv.Registry().Current().Precision.Tolerance()
	return tol
}

// serveCounters snapshots the counters the closed-loop phase is bracketed
// with.
type serveCounters struct {
	hits, misses, evicted, coalesced int
	batches                          uint64
	batchPoints                      float64
	shed, errors                     uint64
}

func (e *serveEnv) counters() serveCounters {
	var c serveCounters
	c.hits, c.misses, c.evicted = e.store.Stats()
	c.coalesced = e.store.Coalesced()
	m := e.srv.Metrics()
	c.batches, c.batchPoints = m.BatchSize.Count(), m.BatchSize.Sum()
	c.shed = m.ShedQueue.Load() + m.ShedDeadline.Load() + m.ShedBreaker.Load()
	c.errors = m.Errors.Load()
	return c
}

// setCounterMetrics reports the store and server counters over one phase.
func setCounterMetrics(res *result, before, after serveCounters) {
	lookups := float64(after.hits - before.hits + after.misses - before.misses)
	if lookups > 0 {
		res.set("featurestore.hit_ratio", float64(after.hits-before.hits)/lookups, int(lookups))
	}
	res.set("featurestore.evictions", float64(after.evicted-before.evicted), 0)
	res.set("featurestore.coalesced", float64(after.coalesced-before.coalesced), 0)
	if n := after.batches - before.batches; n > 0 {
		res.set("serve.batch_size_mean", (after.batchPoints-before.batchPoints)/float64(n), int(n))
	}
	res.set("serve.shed", float64(after.shed-before.shed), 0)
	res.set("serve.errors", float64(after.errors-before.errors), 0)
}

// memWriter is the in-memory recorder behind serve.handler_us_per_req: a
// ResponseWriter with no socket under it.
type memWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *memWriter) Header() http.Header         { return w.header }
func (w *memWriter) WriteHeader(status int)      { w.status = status }
func (w *memWriter) Write(b []byte) (int, error) { return w.body.Write(b) }

const (
	spDerive       = "serve.DerivePoint"
	spBuildPoint   = "serve.Server.BuildPoint"
	spStoreHit     = "featurestore.Store.Featurize.hit"
	spStoreMiss    = "featurestore.Store.Featurize.miss"
	spScoreB8      = "fusion.EarlyModel.PredictBatchQInto.b8"
	spScoreB64     = "fusion.EarlyModel.PredictBatchQInto.b64"
	spGemmF64      = "model.MLP.PredictBatch"
	spGemmF32      = "model.MLP.PredictBatchQInto.f32"
	spGemmInt8     = "model.MLP.PredictBatchQInto.int8"
	spServeHTTP    = "serve.Handler.ServeHTTP"
	spBatcher      = "serve.Batcher.Submit"
	replayPoints   = 16384
	replayRequests = 2000
)

// replay drives the layers of the request path directly, one at a time:
// derive → store → score on the workload's own ID stream, the handler
// without a socket, and the batcher without a model. Store hits and misses
// use a second store filled to capacity, so the replay leaves the serving
// store as the closed loop left it.
func (e *serveEnv) replay(c *layerClock, nextID func() int, freshID func() int) error {
	root := c.rec.begin("replay", -1, 0)
	defer c.rec.end(root)
	mr := mapreduce.Config{Workers: e.workers}

	fresh := make([]*synth.Point, replayPoints)
	_ = c.call(spDerive, root, true, replayPoints, func(int) error {
		for i := range fresh {
			fresh[i] = serve.DerivePoint(e.world, e.seed, freshID(), synth.Image, 0)
		}
		return nil
	})
	hot := make([]int, replayPoints)
	for i := range hot {
		hot[i] = i % 2048 // fits the 4096-slot point cache
		e.srv.BuildPoint(hot[i], synth.Image, 0)
	}
	_ = c.call(spBuildPoint, root, true, replayPoints, func(int) error {
		for _, id := range hot {
			e.srv.BuildPoint(id, synth.Image, 0)
		}
		return nil
	})
	var vecs []*feature.Vector
	err := c.call(spFeaturizeImage, root, true, replayPoints, func(int) (err error) {
		vecs, err = e.lib.Featurize(ctxBG, mr, fresh)
		return err
	})
	if err != nil {
		return err
	}

	// A second store at capacity: resident IDs hit, fresh IDs insert and
	// evict. Requests arrive 8 points at a time, as on the wire.
	store, err := featurestore.New(e.lib, storeCapacity)
	if err != nil {
		return err
	}
	fill := make([]*synth.Point, storeCapacity)
	for i := range fill {
		fill[i] = serve.DerivePoint(e.world, e.seed, freshID(), synth.Image, 0)
	}
	if _, err := store.Featurize(ctxBG, mr, fill); err != nil {
		return err
	}
	resident := fill[len(fill)-replayPoints:]
	inEights := func(name string, pts []*synth.Point) error {
		return c.call(name, root, true, float64(len(pts)), func(int) error {
			for lo := 0; lo+pointsPerRequest <= len(pts); lo += pointsPerRequest {
				if _, err := store.Featurize(ctxBG, mr, pts[lo:lo+pointsPerRequest]); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err := inEights(spStoreHit, resident); err != nil {
		return err
	}
	missPts := make([]*synth.Point, replayPoints)
	for i := range missPts {
		missPts[i] = serve.DerivePoint(e.world, e.seed, freshID(), synth.Image, 0)
	}
	if err := inEights(spStoreMiss, missPts); err != nil {
		return err
	}
	_, _, evicted := store.Stats()
	if evicted < replayPoints {
		return fmt.Errorf("replay: store at capacity evicted %d of %d inserts", evicted, replayPoints)
	}

	for _, b := range []struct {
		name string
		size int
	}{{spScoreB8, 8}, {spScoreB64, 64}} {
		out := make([]float64, b.size)
		_ = c.call(b.name, root, true, float64(len(vecs)/b.size*b.size), func(int) error {
			for lo := 0; lo+b.size <= len(vecs); lo += b.size {
				e.model.PredictBatchQInto(vecs[lo:lo+b.size], out)
			}
			return nil
		})
	}

	// The model keeps its vectorizer and network private: re-fit a
	// vectorizer on the same vectors and build a same-shape network.
	vz := vectorizeBench(c, root, e.lib.Schema().Servable(), vecs, 0)
	mlp, err := model.New(vz.Width(), []int{16}, e.seed)
	if err != nil {
		return err
	}
	X := vz.TransformAllWorkers(vecs, e.workers)
	out := make([]float64, 64)
	gemm := func(name string, score func(rows [][]float64)) {
		_ = c.call(name, root, true, float64(len(X)/64*64), func(int) error {
			for lo := 0; lo+64 <= len(X); lo += 64 {
				score(X[lo : lo+64])
			}
			return nil
		})
	}
	gemm(spGemmF64, func(rows [][]float64) { mlp.PredictBatch(rows) })
	gemm(spGemmF32, func(rows [][]float64) { mlp.PredictBatchQInto(rows, model.Float32, out) })
	gemm(spGemmInt8, func(rows [][]float64) { mlp.PredictBatchQInto(rows, model.Int8, out) })

	// The handler with no socket under it, on the workload's ID stream.
	h := e.srv.Handler()
	var body []byte
	err = c.call(spServeHTTP, root, true, replayRequests, func(int) error {
		w := &memWriter{header: http.Header{}}
		ids := make([]int, pointsPerRequest)
		for i := 0; i < replayRequests; i++ {
			for k := range ids {
				ids[k] = nextID()
			}
			body = appendPredictBody(body, ids)
			req, err := http.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body))
			if err != nil {
				return err
			}
			w.status = http.StatusOK
			w.body.Reset()
			h.ServeHTTP(w, req)
			if w.status != http.StatusOK {
				return fmt.Errorf("handler answered %d: %s", w.status, bytes.TrimSpace(w.body.Bytes()))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// The batcher with nothing to execute: admission, dispatch and reply.
	bat := serve.NewBatcher(serve.BatcherConfig{MaxBatchSize: 64, MaxWait: 2 * time.Millisecond, QueueDepth: 1024},
		func(context.Context, []*synth.Point, []float64) (uint64, error) { return 1, nil }, serve.NewMetrics())
	defer bat.Close()
	return c.call(spBatcher, root, true, replayPoints, func(int) error {
		for _, pt := range fresh {
			if _, _, err := bat.Submit(ctxBG, pt, time.Time{}); err != nil {
				return err
			}
		}
		return nil
	})
}

// servingLayerMetrics turns the serving replay's spans into layer metrics.
func servingLayerMetrics(c *layerClock, res *result) {
	self := selfByName(c.rec.snapshot())
	per := func(metric, spanName string, unitNs float64) {
		if w := c.work[spanName]; w > 0 {
			res.set(metric, float64(self[spanName])/w/unitNs, int(w))
		}
	}
	per("synth.derive_ns_per_point", spDerive, 1)
	per("serve.buildpoint_hit_ns", spBuildPoint, 1)
	per("resource.featurize_ns_per_point.image", spFeaturizeImage, 1)
	per("featurestore.hit_ns_per_point", spStoreHit, 1)
	if w := c.work[spStoreMiss]; w > 0 {
		// Insert + evict: the miss path less the featurization it wraps.
		miss := float64(self[spStoreMiss])/w - float64(self[spFeaturizeImage])/c.work[spFeaturizeImage]
		res.set("featurestore.miss_ns_per_point", miss, int(w))
	}
	per("fusion.score_ns_per_point.b8", spScoreB8, 1)
	per("fusion.score_ns_per_point.b64", spScoreB64, 1)
	per("feature.vectorize_ns_per_point", spVectorize, 1)
	per("model.gemm_ns_per_point.f64", spGemmF64, 1)
	per("model.gemm_ns_per_point.f32", spGemmF32, 1)
	per("model.gemm_ns_per_point.int8", spGemmInt8, 1)
	per("serve.handler_us_per_req", spServeHTTP, 1000)
	per("serve.batcher_ns_per_submit", spBatcher, 1)
}

// ------------------------------------------------------------ lifecycle_drift

// The cmd/lifecycle episode at full scale: 12 windows of 4000 points, the
// shifted regime from window 4 on.
const (
	lcWindows = 12
	lcWindow  = 4000
	lcOnset   = 4
	lcShift   = 2.5
	lcDecay   = 0.35
	lcBatch   = 32 // lifecycle.Config's default points per /predict
)

type lifecycleEnv struct {
	*base
	seed      int64
	window    int
	traffic   *synth.Traffic
	pipe      *core.Pipeline
	dsCfg     synth.DatasetConfig
	incumbent fusion.Predictor
	bootPath  string
}

// setupLifecycle builds the drifting traffic and bootstraps the incumbent:
// a stream-mined curation and training at scale 1.0, saved with lineage.
func setupLifecycle(cfg runConfig, dir string) (*lifecycleEnv, map[string]int, error) {
	b, err := newBase()
	if err != nil {
		return nil, nil, err
	}
	e := &lifecycleEnv{base: b, seed: corpusSeed, window: cfg.size(lcWindow), bootPath: filepath.Join(dir, "bootstrap.xma")}
	sched := synth.DriftSchedule{Seed: e.seed, Epochs: []synth.Epoch{
		{N: lcOnset * e.window},
		{N: (lcWindows - lcOnset) * e.window, TopicShift: lcShift, URLShift: lcShift * 0.75, Decay: lcDecay},
	}}
	if e.traffic, err = synth.NewTraffic(b.world, b.task, sched); err != nil {
		return nil, nil, err
	}
	opts := core.DefaultOptions()
	opts.StreamMining = true
	opts.Workers = 1
	opts.Seed = e.seed
	opts.MaxGraphSeeds, opts.GraphDevNodes = 1200, 500
	opts.Graph.MaxCandidates = 120
	opts.Model = model.Config{Epochs: 5, LearningRate: 0.02, Seed: e.seed, Workers: 1}
	if e.pipe, err = core.NewPipeline(b.lib, opts); err != nil {
		return nil, nil, err
	}
	e.dsCfg = synth.DefaultDatasetConfig() // scale 1.0
	e.dsCfg.Seed = e.seed
	e.dsCfg.NumText, e.dsCfg.NumUnlabeledImage = cfg.size(e.dsCfg.NumText), cfg.size(e.dsCfg.NumUnlabeledImage)
	e.dsCfg.NumHandLabelPool, e.dsCfg.NumTest = cfg.size(e.dsCfg.NumHandLabelPool), cfg.size(e.dsCfg.NumTest)
	ds, err := e.traffic.FreshDataset(0, e.dsCfg)
	if err != nil {
		return nil, nil, err
	}
	cur, err := e.pipe.Curate(ctxBG, ds)
	if err != nil {
		return nil, nil, err
	}
	if e.incumbent, err = e.pipe.Train(ctxBG, cur, e.pipe.DefaultTrainSpec()); err != nil {
		return nil, nil, err
	}
	err = fusion.SaveFileLineage(e.bootPath, e.incumbent, &fusion.Lineage{Task: b.task.Name, Trigger: "bootstrap", Seed: e.seed})
	sizes := map[string]int{"windows": lcWindows, "window": e.window, "onset": lcOnset,
		"retrain_text": e.dsCfg.NumText, "retrain_image": e.dsCfg.NumUnlabeledImage}
	return e, sizes, err
}

// episodeOut is what one drift episode produced.
type episodeOut struct {
	wallS                                        float64
	detections, retrains, promotions, rejections int
	driftWindow                                  int // first drift event's window, -1 if none
	finalSeq, servedSeq                          uint64
}

// episode starts a fresh store and server, installs the bootstrap artifact
// and replays the whole schedule through lifecycle.Controller.Run. tap sees
// every request the controller makes; hook, when non-nil, is the
// controller's RetrainHook.
func (e *lifecycleEnv) episode(dir string, tap func(http.Handler) http.Handler, hook func(window, attempt int) error) (episodeOut, error) {
	out := episodeOut{driftWindow: -1}
	store, err := featurestore.New(e.lib, storeCapacity)
	if err != nil {
		return out, err
	}
	canary := make([]*synth.Point, 48)
	for i := range canary {
		canary[i] = e.traffic.Point(1<<30 + i)
	}
	srv, err := serve.New(serve.Config{
		Store: store, World: e.world, Seed: e.seed, Workers: 1, Timeout: 5 * time.Second,
		PointSource: func(id int, _ synth.Modality, _ int) *synth.Point { return e.traffic.Point(id) },
	}, canary)
	if err != nil {
		return out, err
	}
	defer srv.Close()
	if _, err := srv.Registry().LoadArtifact(e.bootPath); err != nil {
		return out, err
	}
	hs, url, err := listen(tap(srv.Handler()))
	if err != nil {
		return out, err
	}
	defer hs.Close()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	ctrl, err := lifecycle.New(lifecycle.Config{
		Traffic: e.traffic, Store: store, Pipe: e.pipe, BaseURL: url, Client: client,
		Incumbent: e.incumbent, IncumbentPath: e.bootPath,
		WindowSize: e.window, Retrain: e.dsCfg, ArtifactDir: dir, Seed: e.seed, RetrainHook: hook,
	})
	if err != nil {
		return out, err
	}
	start := time.Now()
	res, err := ctrl.Run(ctxBG)
	out.wallS = time.Since(start).Seconds()
	if err != nil {
		return out, err
	}
	out.detections, out.retrains, out.promotions, out.rejections = res.Detections, res.Retrains, res.Promotions, res.Rejections
	out.finalSeq = res.FinalSeq
	for _, ev := range res.Events {
		if ev.Type == lifecycle.EventDrift && out.driftWindow < 0 {
			out.driftWindow = ev.Window
		}
	}
	if cur := srv.Registry().Current(); cur != nil {
		out.servedSeq = cur.Seq
	}
	return out, nil
}

const (
	spSnapshot     = "monitor.Snapshot"
	spDetect       = "monitor.DetectDrift"
	spCompare      = "monitor.Compare"
	spArtifactSave = "fusion.SaveFileLineage"
	spArtifactLoad = "fusion.LoadFileLineage"
	spCurate       = "core.Pipeline.Curate"
	spTrain        = "core.Pipeline.Train"
)

// replay times, one call each, the layers the controller drives between
// windows: snapshots and detectors on a clean and a drifted window, the
// retrain's two halves on a fresh drifted dataset, artifact save and load,
// and the shadow comparison.
func (e *lifecycleEnv) replay(c *layerClock, dir string) error {
	root := c.rec.begin("replay", -1, 0)
	defer c.rec.end(root)
	mr := mapreduce.Config{Workers: 1}
	clean := e.traffic.Window(0, e.window)
	drifted := e.traffic.Window((lcOnset+1)*e.window, e.window)
	cleanVecs, err := e.lib.Featurize(ctxBG, mr, clean)
	if err != nil {
		return err
	}
	driftedVecs, err := e.lib.Featurize(ctxBG, mr, drifted)
	if err != nil {
		return err
	}
	var ref, cur monitor.Snapshot
	var refCat, curCat monitor.CatSnapshot
	_ = c.call(spSnapshot, root, true, float64(len(cleanVecs)+len(driftedVecs)), func(int) error {
		ref, refCat = monitor.NumericSnapshot(cleanVecs), monitor.CategoricalSnapshot(cleanVecs)
		cur, curCat = monitor.NumericSnapshot(driftedVecs), monitor.CategoricalSnapshot(driftedVecs)
		return nil
	})
	drifts := 0
	_ = c.call(spDetect, root, true, 1, func(int) error {
		for _, v := range append(monitor.DetectDrift(monitor.DriftConfig{}, ref, cur),
			monitor.DetectCategoricalDrift(monitor.DriftConfig{}, refCat, curCat)...) {
			if v.Drifted {
				drifts++
			}
		}
		return nil
	})
	if drifts == 0 {
		return fmt.Errorf("replay: detectors see no drift between window 0 and window %d", lcOnset+1)
	}

	dsCfg := e.dsCfg
	dsCfg.Seed = e.seed ^ 0x5eed
	ds, err := e.traffic.FreshDataset(1, dsCfg)
	if err != nil {
		return err
	}
	var curation *core.Curation
	err = c.call(spCurate, root, true, 1, func(int) (err error) {
		curation, err = e.pipe.Curate(ctxBG, ds)
		return err
	})
	if err != nil {
		return err
	}
	var cand fusion.Predictor
	err = c.call(spTrain, root, true, 1, func(int) (err error) {
		cand, err = e.pipe.Train(ctxBG, curation, e.pipe.DefaultTrainSpec())
		return err
	})
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "replay-candidate.xma")
	err = c.call(spArtifactSave, root, true, 1, func(int) error {
		return fusion.SaveFileLineage(path, cand, &fusion.Lineage{Task: e.task.Name, Trigger: "replay", Parent: e.bootPath})
	})
	if err != nil {
		return err
	}
	err = c.call(spArtifactLoad, root, true, 1, func(int) (err error) {
		cand, _, _, err = fusion.LoadFileLineage(path)
		return err
	})
	if err != nil {
		return err
	}
	return c.call(spCompare, root, true, 1, func(int) error {
		_, err := monitor.Compare("incumbent", e.incumbent, "candidate", cand, drifted, driftedVecs,
			func(p *synth.Point) int8 { return p.Label }, monitor.Config{Seed: e.seed})
		return err
	})
}

func lifecycleLayerMetrics(c *layerClock, res *result) {
	self := selfByName(c.rec.snapshot())
	res.set("monitor.snapshot_ns_per_vec", float64(self[spSnapshot])/c.work[spSnapshot], int(c.work[spSnapshot]))
	res.set("monitor.detect_ms", float64(self[spDetect])/1e6, 1)
	res.set("monitor.compare_ms", float64(self[spCompare])/1e6, 1)
	res.set("fusion.artifact_save_ms", float64(self[spArtifactSave])/1e6, 1)
	res.set("fusion.artifact_load_ms", float64(self[spArtifactLoad])/1e6, 1)
	res.set("core.curate_s", float64(self[spCurate])/1e9, 1)
	res.set("core.train_s", float64(self[spTrain])/1e9, 1)
}
