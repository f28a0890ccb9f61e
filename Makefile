GO ?= go

.PHONY: check test build bench bench-json bench-smoke race serve-bench chaos cover cover-check trace-smoke scale-smoke bench-scale lifecycle-smoke

## check: tier-1 gate — build everything, vet it, run every test.
check:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## bench: the perf-tracked benchmarks (training engine, batch prediction,
## Table 1 reproduction, full pipeline run). Record deltas in CHANGES.md.
bench:
	$(GO) test ./internal/model/ -run xxx -bench 'BenchmarkModelTrain|BenchmarkPredictBatch' -benchmem
	$(GO) test . -run xxx -bench 'BenchmarkTable1|BenchmarkPipelineRun' -benchmem -benchtime 3x

## bench-json: snapshot the curation-path benchmarks (similarity kernel,
## graph construction, propagation, full pipeline) as machine-readable JSON
## for cross-commit comparison.
bench-json:
	( $(GO) test ./internal/feature/ -run xxx -bench 'BenchmarkWeightedSimilarity|BenchmarkArenaWeighted|BenchmarkJaccard' -benchmem ; \
	  $(GO) test ./internal/labelprop/ -run xxx -bench 'BenchmarkBuildGraph|BenchmarkPropagate' -benchmem ; \
	  $(GO) test . -run xxx -bench 'BenchmarkPipelineRun' -benchmem -benchtime 3x ) \
	| $(GO) run ./cmd/benchjson -o BENCH_curation.json

## bench-smoke: the perf-contract gate — asserts the claims the fast paths
## are allowed to make: LSH recall >= 0.95 against exact blocked curation
## (and bit-identical graphs with Exact: true), quantized serving within its
## divergence bounds with identical decisions, and zero steady-state allocs
## per request in the batcher and quantized forward paths.
bench-smoke:
	$(GO) test -count=1 -run 'TestLSHRecallFloor|TestLSHExactKnob|TestRecallMetric' ./internal/labelprop/
	$(GO) test -count=1 -run 'TestPredictBatchQ' ./internal/model/
	$(GO) test -count=1 -run 'TestEarlyQuant|TestArtifactPreservesPrecision' ./internal/fusion/
	$(GO) test -count=1 -run 'TestQuantizedServingEndToEnd|TestRegistryRejectsDivergentQuantization|TestBatcherSubmitZeroAllocs' ./internal/serve/

## race: race-detector pass over every package (~4 min on a 2-CPU box).
race:
	$(GO) test -race ./...

## cover: per-package statement coverage for the whole module.
cover:
	$(GO) test -count=1 -cover ./...

## cover-check: the coverage regression gate — every internal/ package must
## stay at or above its floor in coverage_baseline.txt. A package missing
## from the test output (deleted or failing) also fails the gate.
cover-check:
	@$(GO) test -count=1 -cover ./internal/... > cover.out || { cat cover.out; rm -f cover.out; exit 1; }
	@awk 'NR==FNR { if ($$0 !~ /^#/ && NF >= 2) base[$$1]=$$2; next } \
	  /coverage:/ { pkg=$$2; cov=$$5; gsub(/%/,"",cov); seen[pkg]=1; \
	    if (pkg in base) { \
	      if (cov+0 < base[pkg]+0) { printf "FAIL  %s  %.1f%% < baseline %.1f%%\n", pkg, cov, base[pkg]; bad=1 } \
	      else { printf "ok    %s  %.1f%% (floor %.1f%%)\n", pkg, cov, base[pkg] } } \
	    else { printf "note  %s  %.1f%% (no baseline — add to coverage_baseline.txt)\n", pkg, cov } } \
	  END { for (pkg in base) if (!(pkg in seen)) { printf "FAIL  %s  in baseline but produced no coverage line\n", pkg; bad=1 } exit bad }' \
	  coverage_baseline.txt cover.out; status=$$?; rm -f cover.out; exit $$status

## scale-smoke: the scale/crash-safety gate — a 10^5-entity streamed
## curation under the race detector, driven to completion through
## deterministic injected commit crashes (internal/faulty schedule) with
## resume-from-last-committed-chunk recovery after every crash. Shrink with
## SCALE_N for quick local runs.
SCALE_N ?= 100000
scale-smoke:
	CROSSMODAL_SCALE_SMOKE=1 CROSSMODAL_SCALE_N=$(SCALE_N) \
		$(GO) test -race -count=1 -run TestScaleSmokeStreamed -v -timeout 30m ./internal/core/

## bench-scale: snapshot the streamed-curation scaling curve — entities vs
## wall-clock vs peak heap/RSS — as BENCH_scale.json. The claim archived
## here: peak-heap-MB stays flat as entities grow, because resident memory
## is bounded by ChunkSize and GraphWindow, not corpus size. Add a third
## size (e.g. "100000 1000000 10000000") for the full curve when you can
## spare the wall-clock.
SCALE_SET ?= 100000 1000000
bench-scale:
	CROSSMODAL_BENCH_SCALE="$(SCALE_SET)" \
		$(GO) test . -run xxx -bench BenchmarkScaleStream -benchtime 1x -timeout 120m \
	| tee /dev/stderr | $(GO) run ./cmd/benchjson -o BENCH_scale.json

## trace-smoke: run the traced pipeline under the race detector — the golden
## run must stay bit-identical with spans enabled — then produce a real
## Chrome trace from a small experiments run and sanity-check it is JSON.
trace-smoke:
	$(GO) test -race -count=1 -run 'TestGoldenPipelineTraced' .
	mkdir -p bin
	$(GO) run -race ./cmd/experiments -run rawvsfeat -tasks CT1 -scale 0.05 -trace bin/trace-smoke.json -trace-summary >/dev/null
	@grep -q '"traceEvents"' bin/trace-smoke.json || { echo "trace-smoke: not a Chrome trace"; exit 1; }
	@for stage in featurize mining labelprop labelmodel train eval; do \
		grep -q "\"name\": \"$$stage\"" bin/trace-smoke.json \
			|| { echo "trace-smoke: stage $$stage missing from trace"; exit 1; }; \
	done
	@echo "trace-smoke: bin/trace-smoke.json covers all pipeline stages"

## lifecycle-smoke: the closed-loop gate — the lifecycle controller suite
## under the race detector (detector properties, the golden drift episode,
## crash-mid-retrain and faulty-resource riders), then one seeded drift
## episode end to end through cmd/lifecycle. The event log must record a
## drift detection and a promotion, and the zero-drift control run must stay
## silent: clean traffic never triggers a retrain.
lifecycle-smoke:
	$(GO) test -race -count=1 ./internal/lifecycle/
	mkdir -p bin
	$(GO) run -race ./cmd/lifecycle -out bin/lifecycle-events.json >/dev/null
	@grep -q '"type": "drift"' bin/lifecycle-events.json || { echo "lifecycle-smoke: no drift event in the episode log"; exit 1; }
	@grep -q '"type": "promote"' bin/lifecycle-events.json || { echo "lifecycle-smoke: no promote event in the episode log"; exit 1; }
	$(GO) run -race ./cmd/lifecycle -simulate-drift=false -out bin/lifecycle-quiet.json >/dev/null
	@if grep -q '"type": "drift"' bin/lifecycle-quiet.json; then echo "lifecycle-smoke: zero-drift control run tripped the detector"; exit 1; fi
	@echo "lifecycle-smoke: drift detected, candidate promoted, quiet without drift"

## chaos: the failure-injection gate — seeded chaos suites across resource /
## featurestore / serve, the breaker property suite (1500 generated event
## sequences), the golden end-to-end determinism test, and a fuzz smoke over
## artifact loading. Everything runs under -race with fixed seeds, so a
## failure here reproduces exactly.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Breaker|Guard|Golden|Injection|Decide|Flap|Partial|Latency|Stale|Degraded' \
		./internal/resource/ ./internal/faulty/ ./internal/featurestore/ ./internal/serve/ .
	$(GO) test -run xxx -fuzz FuzzArtifactLoad -fuzztime 5s ./internal/fusion/
	$(GO) test -run xxx -fuzz FuzzEarlyModelGobDecode -fuzztime 5s ./internal/fusion/

## serve-bench: end-to-end serving benchmark — train a small artifact
## (stamped for f32 quantized serving by default), start the server, drive
## it closed-loop with loadgen (8-point batched requests over one pipelined
## connection — the latency-honest high-throughput shape), snapshot the
## stats to BENCH_serve.json. Uses a fixed high port; override with
## SERVE_ADDR.
SERVE_ADDR ?= 127.0.0.1:18099
serve-bench:
	mkdir -p bin
	$(GO) build -o bin/serve ./cmd/serve
	$(GO) build -o bin/loadgen ./cmd/loadgen
	$(GO) build -o bin/benchjson ./cmd/benchjson
	bin/serve -train bin/model.xma -train-only -scale 0.05
	bin/serve -model bin/model.xma -addr $(SERVE_ADDR) & echo $$! > bin/serve.pid
	bin/loadgen -url http://$(SERVE_ADDR) -mode closed -duration 5s -conns 1 -batch 8 \
		| tee /dev/stderr | bin/benchjson -o BENCH_serve.json; \
	status=$$?; kill `cat bin/serve.pid` 2>/dev/null; rm -f bin/serve.pid; exit $$status
