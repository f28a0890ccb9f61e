package main

import "encoding/json"

// metricDef is one row of BENCHMARK.json. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics have
// none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is BENCHMARK.json's end_to_end list. A bound has to hold the
// spread between ten runs on the box the benchmark was defined on (README.md,
// "Measured spreads and the bounds"): timings there, and curate_stream's
// peak heap, move by 4-21 % between runs of one program, so their bounds sit
// at the contract's maximum; quality and allocation repeat on the fixed
// corpus, so theirs are the issue's.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"wall_s", "s", lower, 0.25},
	{"peak_heap_mb", "MB", lower, 0.25},
	{"alloc_mb", "MB", lower, 0.05},
	{"ws_f1", "ratio", higher, 0.02},
	{"test_auprc", "ratio", higher, 0.02},
	{"capacity_pps", "points/s", higher, 0.25},
	{"p50_ms", "ms", lower, 0.25},
	{"p99_ms", "ms", lower, 0.25},
	{"adapt_s", "s", lower, 0.25},
	// The contract wants metrics that are never 0 (a spread is a share of
	// the median), so the file carries fail_ratio's complement. The table
	// prints fail_ratio too, and the JSON line's attempted/failed carry the
	// counts.
	{"ok_ratio", "ratio", higher, 0.001},
}

var (
	batchWorkloads   = []string{"curate_mem", "curate_stream", "lifecycle_drift"}
	servingWorkloads = []string{"serve_hot", "serve_cold"}
)

// definedOn scopes an end-to-end metric to the workloads that define it; a
// metric not listed here is defined on all of them. A run reports only the
// metrics its workload defines. The driver's JSON line must still carry
// every name on every workload: result.standIn fills the other cells.
var definedOn = map[string][]string{
	"wall_s":       batchWorkloads,
	"peak_heap_mb": batchWorkloads,
	"alloc_mb":     batchWorkloads,
	"ws_f1":        {"curate_mem", "curate_stream"},
	"test_auprc":   {"curate_mem"},
	"capacity_pps": servingWorkloads,
	"p50_ms":       servingWorkloads,
	"p99_ms":       servingWorkloads,
	"adapt_s":      {"lifecycle_drift"},
}

func (d metricDef) definedFor(workload string) bool {
	on, scoped := definedOn[d.Name]
	if !scoped {
		return true
	}
	for _, w := range on {
		if w == workload {
			return true
		}
	}
	return false
}

// tableOnly metrics are printed but are not in BENCHMARK.json.
var tableOnly = []metricDef{
	{"fail_ratio", "ratio", lower, 0},
}

// perLayer is BENCHMARK.json's per_layer list, in README.md's table order.
var perLayer = []metricDef{
	{"synth.stream_ns_per_entity", "ns", lower, 0},
	{"synth.derive_ns_per_point", "ns", lower, 0},
	{"resource.featurize_ns_per_point.text", "ns", lower, 0},
	{"resource.featurize_ns_per_point.image", "ns", lower, 0},
	{"resource.featurize_bytes_per_point", "B", lower, 0},
	{"feature.vectorize_ns_per_point", "ns", lower, 0},
	{"feature.simkernel_ns_per_pair", "ns", lower, 0},
	{"featurestore.hit_ns_per_point", "ns", lower, 0},
	{"featurestore.miss_ns_per_point", "ns", lower, 0},
	{"featurestore.hit_ratio", "ratio", higher, 0},
	{"featurestore.evictions", "count", lower, 0},
	{"featurestore.coalesced", "count", higher, 0},
	{"featurestore.disk.append_ns_per_row", "ns", lower, 0},
	{"featurestore.disk.append_mb_per_s", "MB/s", higher, 0},
	{"featurestore.disk.bytes_per_row", "B", lower, 0},
	{"featurestore.disk.scan_ns_per_row", "ns", lower, 0},
	{"featurestore.disk.open_ms", "ms", lower, 0},
	{"mining.mine_ns_per_row", "ns", lower, 0},
	{"mining.stream_ns_per_row", "ns", lower, 0},
	{"mining.accept_ratio", "ratio", higher, 0},
	{"mining.lfs_out", "count", higher, 0},
	{"lf.apply_ns_per_vote", "ns", lower, 0},
	{"lf.vote_rate", "ratio", higher, 0},
	{"labelprop.build_ns_per_vertex", "ns", lower, 0},
	{"labelprop.build_lsh_ns_per_vertex", "ns", lower, 0},
	{"labelprop.lsh_recall", "ratio", higher, 0},
	{"labelprop.delta_ns_per_vertex", "ns", lower, 0},
	{"labelprop.propagate_ns_per_edge_iter", "ns", lower, 0},
	{"labelprop.edges_per_vertex", "count", lower, 0},
	{"labelprop.iters", "count", lower, 0},
	{"labelmodel.fit_ns_per_row", "ns", lower, 0},
	{"labelmodel.predict_ns_per_row", "ns", lower, 0},
	{"fusion.train_s", "s", lower, 0},
	{"fusion.score_ns_per_point.b8", "ns", lower, 0},
	{"fusion.score_ns_per_point.b64", "ns", lower, 0},
	{"fusion.artifact_save_ms", "ms", lower, 0},
	{"fusion.artifact_load_ms", "ms", lower, 0},
	{"model.train_ns_per_sample_epoch", "ns", lower, 0},
	{"model.gemm_ns_per_point.f64", "ns", lower, 0},
	{"model.gemm_ns_per_point.f32", "ns", lower, 0},
	{"model.gemm_ns_per_point.int8", "ns", lower, 0},
	{"serve.handler_us_per_req", "us", lower, 0},
	{"serve.net_us_per_req", "us", lower, 0},
	{"serve.buildpoint_hit_ns", "ns", lower, 0},
	{"serve.batcher_ns_per_submit", "ns", lower, 0},
	{"serve.batch_size_mean", "count", higher, 0},
	{"serve.shed", "count", lower, 0},
	{"serve.errors", "count", lower, 0},
	{"serve.p999_ms", "ms", lower, 0},
	{"serve.open_p50_ms.r1", "ms", lower, 0},
	{"serve.open_p50_ms.r2", "ms", lower, 0},
	{"serve.open_p50_ms.r3", "ms", lower, 0},
	{"serve.open_p99_ms.r1", "ms", lower, 0},
	{"serve.open_p99_ms.r2", "ms", lower, 0},
	{"serve.open_p99_ms.r3", "ms", lower, 0},
	{"serve.open_lag_p99_ms", "ms", lower, 0},
	{"serve.slo_pps", "points/s", higher, 0},
	{"serve.reload_ms", "ms", lower, 0},
	{"monitor.snapshot_ns_per_vec", "ns", lower, 0},
	{"monitor.detect_ms", "ms", lower, 0},
	{"monitor.compare_ms", "ms", lower, 0},
	{"lifecycle.window_score_ms", "ms", lower, 0},
	{"lifecycle.window_gap_ms", "ms", lower, 0},
	{"lifecycle.retrain_s", "s", lower, 0},
	{"lifecycle.detect_windows", "count", lower, 0},
	{"lifecycle.detections", "count", lower, 0},
	{"lifecycle.retrains", "count", lower, 0},
	{"lifecycle.promotions", "count", higher, 0},
	{"lifecycle.rejections", "count", lower, 0},
	{"core.curate_s", "s", lower, 0},
	{"core.train_s", "s", lower, 0},
	{"core.unattributed_share", "ratio", lower, 0},
	{"mapreduce.map_overhead_ns_per_item", "ns", lower, 0},
	{"trace_overhead_share", "ratio", lower, 0},
}

var metricByName = func() map[string]metricDef {
	m := map[string]metricDef{}
	for _, list := range [][]metricDef{endToEnd, tableOnly, perLayer} {
		for _, d := range list {
			m[d.Name] = d
		}
	}
	return m
}()

// workloadDef is one row of BENCHMARK.json's workloads.
type workloadDef struct {
	Name string
	Why  string
	run  func(cfg runConfig, res *result) error
}

var workloads = []workloadDef{
	{"curate_mem", "in-memory curation + training: graph build, propagation and model training do the work, featurization is ~6%", runCurateMem},
	{"curate_stream", "streamed curation at 300k points: generation, featurization, disk append and LF apply dominate; the graph is ~4%", runCurateStream},
	{"serve_hot", "serving 2048 repeating IDs: every point is a cache hit, so featurization gains must show no change here", runServeHot},
	{"serve_cold", "serving IDs that never repeat: every point is derived, featurized, inserted and evicts another", runServeCold},
	{"lifecycle_drift", "drift episode: serving, detectors, streamed re-mining, retrain, shadow scoring and hot swap run together", runLifecycle},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runSeconds is BENCHMARK.json's run_seconds, and the default of -seconds.
const runSeconds = 10

// manifest renders BENCHMARK.json from the registry, so the file and the
// program cannot drift apart (TestManifestMatchesFile).
func manifest() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(raw, '\n')
}
