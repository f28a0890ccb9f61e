GO ?= go

.PHONY: check gate-fast gate-full cover-check

## gate-fast: the tier-1 gate — build everything, vet it (also for 32-bit
## 386, where an int holds no more than math.MaxInt32), run every test,
## hold every internal/ package at its coverage floor. `go test ./...` runs
## TestContract, which recomputes the behaviour contract in
## testdata/contract.json, and the root package's Example_* scenarios, whose
## printed output it checks.
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
## interleavings), the streamed-ingest tests ten more times (its three
## stages hand chunks forward and recycled buffers back across goroutines),
## the feature store's concurrency tests ten more times (each block of a
## miss shares one generator across its points) and the lifecycle
## controller's wire tests and golden episode ten more times (a window's
## /predict chunks ride two concurrent lanes), each under a 5-minute
## -timeout so a hang fails with a goroutine dump,
## then the short tests natively for 32-bit 386 (every package but
## internal/core, whose expert-LF digest differs there: ROADMAP item 15b),
## then the arm64 fused multiply-add census: each package that still has
## sites the compiler may fuse (which can move bits there: ROADMAP item 15c)
## fails once it has more than it has now, so the count only falls, then
## what `go test` alone does not reach — a 5 s fuzz smoke of every fuzzer
## `go test -list '^Fuzz'` finds in each package, printing how many ran and
## failing when fewer than 15 did (a package that no longer lists its
## fuzzers; lower the 15 when a fuzzer is deleted); minimization is bounded
## for all of them, since the /predict fuzzer's oversize-body seed grows
## whitespace inputs that would take the whole budget to shrink; the
## 10^5-entity streamed curation driven through injected commit crashes with
## resume after each (shrink with SCALE_N); one seeded drift episode and its
## zero-drift control through cmd/lifecycle (the command itself fails unless
## the first promotes and the second never detects); a real Chrome trace from
## cmd/experiments that names every pipeline stage; and EXPERIMENTS_RAW.md
## regenerated into bin/ with its documented command (the whole suite at
## scale 1, about 30-40 s) and compared byte for byte with the checked-in
## file. The bit-identity of the
## pipeline, the fusion artifacts and the cmd/ outputs is TestContract's, in
## both gates; `go test -run TestContract -update .` is the one command that
## moves a digest in testdata/contract.json.
SCALE_N ?= 100000
gate-full:
	$(GO) test -race ./...
	$(GO) test -race -timeout 5m -count=20 -run 'Batcher|Predict|HotSwap|Submit|ScoreConcurrently|DeadlineShed|RefusesFIFO' ./internal/serve/
	$(GO) test -race -timeout 5m -count=10 -run 'IngestOverlapFailures|CurateStreamedResume|CurateStreamedChunkInvariance|CurateStreamedMatchesCurate|CurateStreamedWindowed' ./internal/core/
	$(GO) test -race -timeout 5m -count=10 -run 'Concurrent|Canceled|Coalesces' ./internal/featurestore/
	$(GO) test -race -timeout 5m -count=10 -run 'ScoreWindow|PredictBody|LifecycleGolden' ./internal/lifecycle/
	GOARCH=386 $(GO) test -short $$($(GO) list ./... | grep -v '^crossmodal/internal/core$$')
	@for bound in model:15 feature:12 synth:8 resource:0 labelmodel:0 labelprop:0; do \
		pkg=$${bound%:*}; max=$${bound#*:}; \
		n=$$(GOARCH=arm64 $(GO) build -gcflags=-S ./internal/$$pkg 2>&1 | grep -cE '\sFN?M(ADD|SUB)[SD]\s'); \
		[ "$$n" -le "$$max" ] || { echo "gate-full: internal/$$pkg has $$n arm64 fused multiply-adds, at most $$max allowed"; exit 1; }; \
	done
	@n=0; for pkg in $$($(GO) list ./...); do \
		fuzzers=$$($(GO) test -list '^Fuzz' $$pkg) || { echo "$$fuzzers"; exit 1; }; \
		for f in $$(echo "$$fuzzers" | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$f"; \
			$(GO) test -run xxx -fuzz "^$$f$$" -fuzztime 5s -fuzzminimizetime 10x $$pkg || exit 1; \
			n=$$((n+1)); \
		done; \
	done; \
	echo "gate-full: fuzzed $$n fuzzers"; \
	[ "$$n" -ge 15 ] || { echo "gate-full: found $$n fuzzers, want at least 15"; exit 1; }
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
	$(GO) run ./cmd/experiments -run all -o bin/EXPERIMENTS_RAW.md
	@cmp bin/EXPERIMENTS_RAW.md EXPERIMENTS_RAW.md \
		|| { echo "gate-full: EXPERIMENTS_RAW.md is stale; rerun go run ./cmd/experiments -run all -o EXPERIMENTS_RAW.md"; exit 1; }
