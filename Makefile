GO ?= go

# Per-package coverage floors (percent) enforced by `make cover` on the
# serving-critical packages, as pkg:floor pairs. The serve package carries
# the production HTTP surface (pool, swap, cache, lanes) and is held to a
# higher floor than the rest; the pipeline package, small and fully
# exercised by its executor tests, to a higher one still. The design flow's
# packages (bundle, backbone, modelspec, core) sit a few points under what
# -short measures.
COVER_FLOOR ?= 60
COVER_PKGS  ?= ./internal/serve:70 ./internal/analysis:75 ./internal/pso:70 ./internal/nn:85 ./internal/pipeline:90 ./internal/detect:$(COVER_FLOOR) ./internal/quant:80 ./internal/track:85 ./internal/fpga:95 ./internal/bundle:90 ./internal/backbone:93 ./internal/modelspec:92 ./internal/core:94

.PHONY: all build binaries vet lint loc test short race purego arm64 bench bench-smoke bench-quant cover experiments-check check ci

all: ci

build:
	$(GO) build ./...

# binaries compiles every command and example entry point so a refactor
# cannot silently break a main package that `go build ./...` would still
# cover but a bad flag default or unused import would not surface until run.
# Each cmd/* binary is then run with -h: a panic while it registers its flags
# (a duplicate or half-removed flag.Int) fails here, and so does a -flag that
# README.md or a cmd/*/main.go package doc (its Usage: block) names after the
# command's name, up to the end of that line, but its usage text does not
# list. skynet-sim then runs with its defaults and with its documented
# -device pynq -w 8 -fm 8: it prices full-size SkyNet C on the FPGA schedule,
# with no forward, in well under a second. A bad flag (-w 0) must end in its
# error and exit 1; a panic exits 2. So must a skynet-search the flow cannot
# run (-train 1 leaves no validation sample), before it trains anything. The
# examples parse no flags and would run in full, so they are only compiled.
binaries:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	{ cat README.md; for m in cmd/*/main.go; do sed '/^package /q' "$$m"; done; } >"$$tmp/docs"; \
	for d in examples/*; do \
		echo "build $$d"; \
		$(GO) build -o /dev/null ./$$d || exit 1; \
	done; \
	for d in cmd/*; do \
		n=$${d#cmd/}; \
		echo "build $$d, $$n -h"; \
		$(GO) build -o "$$tmp/$$n" ./$$d || exit 1; \
		"$$tmp/$$n" -h >"$$tmp/usage" 2>&1 || { cat "$$tmp/usage"; echo "$$n -h failed"; exit 1; }; \
		for f in $$(awk -v cmd="$$n" '{ s = $$0; \
			while ((i = index(s, cmd)) > 0) { \
				s = substr(s, i + length(cmd)); t = s; \
				if ((j = index(t, "skynet-")) > 0) t = substr(t, 1, j - 1); \
				while (match(t, /(^|[ `(])-[a-z][a-z0-9-]*/)) { \
					f = substr(t, RSTART, RLENGTH); sub(/^[ `(]/, "", f); print f; \
					t = substr(t, RSTART + RLENGTH) } } }' "$$tmp/docs" | sort -u); do \
			grep -qE -- "^  $$f( |$$)" "$$tmp/usage" || { echo "README.md or a command doc names $$n $$f, which $$n -h does not list"; exit 1; }; \
		done; \
	done; \
	echo "run skynet-sim"; \
	"$$tmp/skynet-sim" >"$$tmp/sim" 2>&1 || { cat "$$tmp/sim"; echo "skynet-sim failed"; exit 1; }; \
	"$$tmp/skynet-sim" -device pynq -w 8 -fm 8 >"$$tmp/sim" 2>&1 || { cat "$$tmp/sim"; echo "skynet-sim -device pynq -w 8 -fm 8 failed"; exit 1; }; \
	"$$tmp/skynet-sim" -w 0 >"$$tmp/sim" 2>&1; st=$$?; \
	[ $$st -eq 1 ] || { cat "$$tmp/sim"; echo "skynet-sim -w 0 exited $$st, want 1"; exit 1; }; \
	echo "run skynet-search -train 1"; \
	"$$tmp/skynet-search" -train 1 >"$$tmp/search" 2>&1; st=$$?; \
	[ $$st -eq 1 ] || { cat "$$tmp/search"; echo "skynet-search -train 1 exited $$st, want 1"; exit 1; }

# vet also fails on any tracked .go file outside testdata/ that gofmt
# would rewrite, so formatting drift is caught here and not in review.
vet:
	$(GO) vet ./...
	@unformatted=$$(git ls-files '*.go' | grep -v '/testdata/' | xargs gofmt -l); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

# lint runs the repo's own static-analysis pass (cmd/skynet-lint): the
# determinism, float-hygiene, error-discipline checkers plus the
# interprocedural hotcall/lockheld/ctxflow set over every package. Zero
# unwaived findings is a CI gate. The wall time is printed so a call-graph
# performance regression shows up in `make ci` output, not just in lost
# inner-loop seconds.
lint:
	@start=$$(date +%s); \
	$(GO) run ./cmd/skynet-lint ./... ; status=$$?; \
	end=$$(date +%s); \
	echo "lint wall time: $$((end-start))s"; \
	exit $$status

# loc prints the size numbers ROADMAP aim 2 tracks: non-test Go lines per
# internal package and for the whole tree outside bench/, and the
# //skynet:nolint waiver count (the directive followed by a checker name) —
# the count TestWaiverCountWithinCeiling (internal/analysis) pins, by the
# same rule.
loc:
	@for d in internal/*/; do \
		printf '%-24s %6d\n' "$$d" "$$(find $$d -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | wc -l)"; \
	done
	@printf '%-24s %6d\n' "non-test Go outside bench/" "$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' | xargs cat | wc -l)"
	@printf '%-24s %6d\n' "nolint waivers" "$$(grep -rnE '//skynet:nolint [a-z]' --include='*.go' internal cmd examples *.go | grep -v testdata | grep -v internal/analysis/ | wc -l)"

# -shuffle=on randomizes test (and subtest-sibling) execution order each
# run, so inter-test state dependencies surface in CI instead of in prod.
test:
	$(GO) test -shuffle=on ./...

# short is the fast inner-loop gate: every package, training budgets
# shrunk, the whole suite in well under a minute.
short:
	$(GO) test -short ./...

# race runs the concurrency-bearing packages under the race detector: the
# parallel GEMM/conv kernels, the streaming pipeline executor (plus its
# detect-stage adapters), the batching HTTP server, the stateful tracking
# service with its session table, the analysis framework (whose lazy
# Module state is shared across checker passes), the PSO search (its
# bounded evaluation worker pool, cached engine evaluator, and job
# service), and the int8 engine (its lanes and plane loops run on the GEMM
# worker pool). The tests force multi-worker execution even on one CPU; the
# lane tests of both engines run again at GOMAXPROCS 1, 2 and 4 (-short: the
# generated batch-invariance property at its reduced grid), because with
# nn.MaxParallelism and tensor.MaxParallelism at 0 the lane count is
# GOMAXPROCS and any test that leaves one of them unpinned sees all three.
# The Bundle-step, Concat-alias and layout tests ride along: what a lane
# writes where is theirs to hold. So do the stale-weights and whole-band
# depth-wise tests: every band worker reads the convolutions' packed panels,
# which a forward writes before its lanes start. So do the calibration tests: the band
# workers of a split Bundle step feed the same running maxima at once, and how
# many there are depends on the worker count. The serving lane and pool tests
# get the same three runs: N inference workers share one queue, and how they
# interleave on it — through a drain, a close and a swap, whose queued
# requests run on the new model — depends on how many run at once. So do the tracking service's session tests: every session's
# steps take turns on the service's one worker, and how sessions interleave
# there depends on how many callers run at once.
# The stream executor's tests, and detect's over it, get the three runs too:
# each stage is one goroutine, and how their queues fill and drain — through a
# batch, a failure and a cancellation — depends on how many run at once, as
# does how concurrent runs of one executor take turns at its model, and how
# the prediction buffers InferBatch lends go back and out again between the
# inference and post-process goroutines (the InferBatch tests, and the
# stream's lone-frame allocation gate, match the pattern). The
# lane's deadline, record and allocation tests, and the non-finite answers of
# both doors, ride along with the lane tests.
# The int8 plan-cache test alternates sample shapes on one model and counts
# its allocations on each worker count, and the pinned observer order is the
# observed run's on one worker: both ride along with the lane tests. So do
# the tests that run forwards side by side on one graph or int8 model, each
# on an executor of its own, and the pool's, whose workers share one model;
# so does the one that deals a model with float fallback units to lanes,
# whose fallback steps run the float plan's step side by side.
# tensor's packing panels (16-column float and int8 panels alike, the int8 A
# panels as int16 pairs) are taken per chunk in flight: how many a free list
# builds, and whether a warm call still allocates nothing, depends on how
# many chunks overlap, so that test, the zero-allocation ones and the int8
# leaf calls from lanes get the three runs, as does the test of a chunk that
# panics on a pool worker and reaches the caller once every chunk has ended.
# The layer walk's convolutions deal their batch to lanes the same way, so
# their parallel tests and the tracker-training determinism test (whose
# backward runs through them) get the three runs too, as does the test that
# runs tracking steps side by side on one tracker, each on a workspace of its
# own. So does the one that runs inference forwards on the plan's lanes
# between a training forward and its Backward: the graph's tape, which
# Backward takes its inputs from, must come through them untouched.
# core rides along at its -short budget: the design flow's Stage 2 drives the
# same mutex-guarded caching evaluator from the PSO worker pool. The search
# service's one-job-at-a-time queue gets the three runs: how concurrent
# submits and the queue's runner interleave depends on how many run at once.
LANE_TESTS = Lanes|BatchInvariance|ArenaLiveness|ArenaBounded|ObservedRun|SteadyStateAllocs|PlanMatchesLayerWalk|PlanBaselines|Deterministic|BundleStep|LayoutPacks|Calibration|StaleWeights|DWBand|PlanCache|ObservedRunOrderPinned|RewritingObserver|EmulatedBatch|ConcurrentForwards|FallbackUnitsRunOnLanes
SERVE_LANE_TESTS = Lane|PoolIdleWorker|PoolSheds|PoolSwapUnderLiveLoad|GoroutineCensus|Track.*Session|NonFinite|OneModelPerGeneration|PoolSwapLeaves|CountersSurviveASwap
STREAM_TESTS = Executor|Stream|InferBatch|Preprocess|Postprocess
LAYER_WALK_TESTS = ParallelMatchesSerial|ParallelBackward|GradientsParallel|TrainingDeterministicAcrossWorkers|ConcurrentStepsOnOneTracker|BackwardAfterInference
race:
	$(GO) test -race ./internal/nn/... ./internal/tensor/... ./internal/pipeline/... ./internal/detect/... ./internal/serve/... ./internal/track/... ./internal/analysis/... ./internal/pso/... ./internal/quant/...
	$(GO) test -race -short -cpu 1,2,4 -run '$(LANE_TESTS)' ./internal/nn ./internal/quant
	$(GO) test -race -short -cpu 1,2,4 -run '$(SERVE_LANE_TESTS)' ./internal/serve
	$(GO) test -race -cpu 1,2,4 -run '$(STREAM_TESTS)' ./internal/pipeline ./internal/detect
	$(GO) test -race -cpu 1,2,4 -run '$(LAYER_WALK_TESTS)' ./internal/nn ./internal/track
	$(GO) test -race -cpu 1,2,4 -run 'PackScratchFollowsChunksInFlight|SteadyStateAllocs|Int8LeafCallsMatchDispatched|PoolWorkerPanic' ./internal/tensor
	$(GO) test -race -short ./internal/core
	$(GO) test -race -cpu 1,2,4 -run 'OneJobAtATime' ./internal/pso

# purego runs the kernel-bearing packages with the assembly kernels — the
# GEMM micro-kernels and the row kernels — compiled out, so the portable Go
# loops (and the dispatch seam) cannot rot. The same tests run again with
# SKYNET_KERNEL=purego on a normal build to cover the runtime-selection path,
# and with SKYNET_KERNEL=avx2: where auto picks the AVX-512 float tile and the
# AVX-512 VNNI int8 tile, that run is what keeps the AVX2 float tile and the
# AVX2 int8 tile on the 4×16 layout under every test of these packages (on a
# host without AVX2 it falls back to auto and repeats the plain run).
# nn and backbone ride along: the inference plan must equal the layer walk
# under either kernel set (the small-problem crossover, hence which GEMM store
# fuses, differs), quant because the int8 engine sits on the purego ≡ avx2
# contract of the int8 kernels, and track and detect so that the tracker's
# backbone and the stream stages run on the portable rows as well.
# -count=1: the test cache does not key on the environment variable.
PUREGO_PKGS = ./internal/tensor ./internal/cpufeat ./internal/nn ./internal/backbone ./internal/quant ./internal/track ./internal/detect
purego:
	$(GO) test -tags purego $(PUREGO_PKGS)
	SKYNET_KERNEL=purego $(GO) test -count=1 $(PUREGO_PKGS)
	SKYNET_KERNEL=avx2 $(GO) test -count=1 $(PUREGO_PKGS)

# arm64 cross-compiles the whole tree for the other deployment
# architecture: the build tags on the amd64 assembly must keep every
# package buildable without it.
arm64:
	GOARCH=arm64 $(GO) build ./...

# bench-smoke vets and tests the nested bench/ module (toy-size run of all
# four workloads plus its own lint). `go build ./...` never sees that
# module, and it compiles against a frozen slice of the tensor/nn/quant/
# track API, so this is where a break of that API shows up in `make ci`
# instead of in the benchmark pipeline.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

bench:
	$(GO) test -run xxx -bench 'BenchmarkMatMul|BenchmarkConvForwardSteadyState|BenchmarkGraphInference|BenchmarkInt8Forward|BenchmarkExport|BenchmarkTable2Backbones' -benchtime 10x .

# bench-quant compares the int8 GEMM kernels against float32 at SkyNet
# layer shapes; both report GOPS and operand bytes/op (the int8 path moves
# 4x fewer bytes), and -benchmem surfaces the zero-allocation contract.
bench-quant:
	$(GO) test -run xxx -bench 'BenchmarkInt8GEMMShapes|BenchmarkFloatGEMMShapes' -benchmem ./internal/tensor

# cover measures statement coverage on the serving-critical packages and
# fails if any of them drops below its per-package floor.
cover:
	@fail=0; \
	for entry in $(COVER_PKGS); do \
		pkg=$${entry%:*}; floor=$${entry##*:}; \
		out=$$($(GO) test -short -cover $$pkg | tail -1); \
		echo "$$out (floor $$floor%)"; \
		pct=$$(echo "$$out" | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "$$pkg: no coverage reported"; fail=1; continue; fi; \
		ok=$$(awk "BEGIN{print ($$pct >= $$floor) ? 1 : 0}"); \
		if [ "$$ok" != "1" ]; then echo "$$pkg: coverage $$pct% below floor $$floor%"; fail=1; fi; \
	done; \
	exit $$fail

# experiments-check holds the paper's record to the code: it reruns every
# registered table and figure at the record's options (seed 1, quick mode)
# and compares each with its block of experiments_output.txt and its section
# of EXPERIMENTS.md, naming the first table and line that differ. Only the
# cells of the columns a table marks as wall-clock (Table.WallClock: FPS (Go)
# in Tables 8 and 9) are masked, on both sides. Regenerate the record with
#   go run ./cmd/skynet-experiments -exp all -quiet -md tables.md > experiments_output.txt
# and paste the tables of tables.md into EXPERIMENTS.md. The run takes about
# nine minutes on two vCPUs, near go test's ten-minute default, so the
# timeout is explicit.
experiments-check:
	$(GO) test -tags experimentscheck -run TestRecordMatchesCode -count=1 -timeout 30m ./internal/experiments

# ci is the single verification entry point: everything must pass before a
# commit lands. cover enforces the per-package floors above; bench-smoke
# keeps the benchmark module building and passing against this tree;
# experiments-check, the longest step, keeps the paper's record current.
ci: vet lint test race purego arm64 build binaries cover bench-smoke experiments-check

# check is kept as an alias for ci (the historical name).
check: ci
