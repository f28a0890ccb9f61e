GO ?= go

.PHONY: check gate-fast gate-full cover-check

## gate-fast: the tier-1 gate — build everything, vet it (also for 32-bit
## 386, where an int holds no more than math.MaxInt32), run every test,
## hold every internal/ package at its coverage floor. `go test ./...` runs
## TestContract, which recomputes the behaviour contract in
## testdata/contract.json.
gate-fast:
	$(GO) build ./...
	$(GO) vet ./...
	GOARCH=386 $(GO) vet ./...
	$(GO) test ./...
	@$(MAKE) --no-print-directory cover-check

check: gate-fast

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

## gate-full: everything under the race detector (~4 min on a 2-CPU box),
## then the serving tests twenty more times under it (concurrent requests
## share the feature store and the scorer pool, so one pass sees few
## interleavings) and the streamed-ingest tests ten more times (its three
## stages hand chunks forward and recycled buffers back across goroutines),
## then the short tests natively for 32-bit 386 (every package but
## internal/core, whose expert-LF digest differs there: ROADMAP item 15b),
## then
## what `go test` alone does not reach — a fuzz smoke of every fuzzer in the
## module (TestGateFullRunsEveryFuzzer holds the list to the code; the
## /predict one bounds minimization: its oversize-body seed grows whitespace
## inputs that would take the whole budget to shrink); the
## 10^5-entity streamed curation driven through injected commit crashes with
## resume after each (shrink with SCALE_N); one seeded drift episode and its
## zero-drift control through cmd/lifecycle (the command itself fails unless
## the first promotes and the second never detects); and a real Chrome trace from
## cmd/experiments that names every pipeline stage. The bit-identity of the
## pipeline, the fusion artifacts and the cmd/ outputs is TestContract's, in
## both gates; `go test -run TestContract -update .` is the one command that
## moves a digest in testdata/contract.json.
SCALE_N ?= 100000
gate-full:
	$(GO) test -race ./...
	$(GO) test -race -count=20 -run 'Batcher|Predict|HotSwap|Submit|ScoreConcurrently|DeadlineShed|RefusesFIFO' ./internal/serve/
	$(GO) test -race -count=10 -run 'IngestOverlapFailures|CurateStreamedResume|CurateStreamedChunkInvariance|CurateStreamedMatchesCurate' ./internal/core/
	GOARCH=386 $(GO) test -short $$($(GO) list ./... | grep -v '^crossmodal/internal/core$$')
	$(GO) test -run xxx -fuzz FuzzArtifactLoad -fuzztime 5s ./internal/fusion/
	$(GO) test -run xxx -fuzz FuzzEarlyModelGobDecode -fuzztime 5s ./internal/fusion/
	$(GO) test -run xxx -fuzz FuzzShardHeader -fuzztime 5s ./internal/featurestore/disk/
	$(GO) test -run xxx -fuzz FuzzShardLoad -fuzztime 5s ./internal/featurestore/disk/
	$(GO) test -run xxx -fuzz FuzzColumnVotesMatchClosures -fuzztime 5s ./internal/lf/
	$(GO) test -run xxx -fuzz FuzzPackedWeighted -fuzztime 5s ./internal/feature/
	$(GO) test -run xxx -fuzz FuzzPackedVectorMatchesReference -fuzztime 5s ./internal/feature/
	$(GO) test -run xxx -fuzz FuzzSparseRowMatchesDense -fuzztime 5s ./internal/feature/
	$(GO) test -run xxx -fuzz FuzzShuffleIntsMatchesMathRand -fuzztime 5s ./internal/xrand/
	$(GO) test -run xxx -fuzz FuzzFeaturizeMatchesReference -fuzztime 5s ./internal/resource/
	$(GO) test -run xxx -fuzz FuzzHandlePredict -fuzztime 5s -fuzzminimizetime 10x ./internal/serve/
	CROSSMODAL_SCALE_SMOKE=1 CROSSMODAL_SCALE_N=$(SCALE_N) \
		$(GO) test -race -count=1 -run TestScaleSmokeStreamed -v -timeout 30m ./internal/core/
	mkdir -p bin
	$(GO) run -race ./cmd/lifecycle -out bin/lifecycle-events.json >/dev/null
	$(GO) run -race ./cmd/lifecycle -simulate-drift=false -out bin/lifecycle-quiet.json >/dev/null
	$(GO) run -race ./cmd/experiments -run rawvsfeat -tasks CT1 -scale 0.05 -trace bin/trace-smoke.json -trace-summary >/dev/null
	@grep -q '"traceEvents"' bin/trace-smoke.json || { echo "gate-full: not a Chrome trace"; exit 1; }
	@for stage in featurize mining labelprop labelmodel train eval; do \
		grep -q "\"name\": \"$$stage\"" bin/trace-smoke.json \
			|| { echo "gate-full: stage $$stage missing from trace"; exit 1; }; \
	done
