# Developer entry points. `make check` is the local CI gate: vet, the
# custom lint suite, gofmt drift, build, the full test suite under the
# race detector, and a one-iteration benchmark smoke run so the benchmark
# harness itself cannot rot. CI (.github/workflows/check.yml) runs the
# same targets split into parallel jobs; keep the two in sync.

GO ?= go

.PHONY: all check vet lint lint-sarif lint-fix fmt-check build test race bench-smoke bench bench-json bench-compare bench-profile obs-check servbench-test fuzz-smoke serve server-soak crash-soak

all: check

check: vet lint fmt-check build race obs-check servbench-test bench-smoke

vet:
	$(GO) vet ./...

# Domain-specific invariants go vet cannot see: pooled-buffer escapes,
# raw obs handle access, unit-family arithmetic, float equality, and
# nondeterministic randomness in simulation packages. See DESIGN.md
# "Static analysis" for the rules and the suppression syntax.
lint:
	$(GO) run ./cmd/hyperearvet ./...

# Same findings as SARIF 2.1.0 on stdout (and nothing else — the
# recipe is silenced so `make lint-sarif > lint.sarif` yields a valid
# document), for CI annotation upload: the check workflow's lint job
# feeds the file to github/codeql-action/upload-sarif.
lint-sarif:
	@$(GO) run ./cmd/hyperearvet -sarif ./...

# Worklist of mechanically fixable findings as file:line lines — stale
# //hyperearvet:allow suppressions to delete, guarded-by annotations
# naming a nonexistent mutex, and advisory lines for structs with a
# mutex but no guarded fields. Always exits 0: pipe it to an editor
# jump list, don't gate on it.
lint-fix:
	$(GO) run ./cmd/hyperearvet -fixable ./...

# Formatting gate: list every tracked Go file gofmt would rewrite and
# fail if there are any. (gofmt -l alone exits 0 even with findings.)
fmt-check:
	@drift="$$(gofmt -l $$(git ls-files '*.go'))"; \
	if [ -n "$$drift" ]; then \
		echo "gofmt drift in:"; echo "$$drift"; exit 1; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full-tree race gate. The race detector is a ~10× slowdown and the
# experiment suite renders minutes of audio; the default 10m per-package
# timeout is not enough on small machines, so this target allows 45m.
# CI budget: the test-race job's timeout-minutes is 55 — the 45m go-test
# ceiling plus module download/build headroom; if you raise one, raise
# the other (.github/workflows/check.yml documents the same pairing).
# A few allocation-count assertions skip themselves under the detector
# via the raceEnabled //go:build race/!race constant pairs (internal/dsp,
# internal/chirp): the detector makes sync.Pool drop Puts at random, so
# pool-reuse accounting is only meaningful in non-race builds. Those
# skips are narrow and annotated at each site; everything else runs here.
race:
	$(GO) test -race -timeout 45m ./...

# One iteration of every benchmark: catches compile errors, panics, and
# setup regressions in the benchmark harness without paying for a real
# measurement run.
bench-smoke:
	$(GO) test -run NONE -bench . -benchtime 1x ./...

# Focused observability gate: the concurrent counter/span tests under
# the race detector, plus the disabled-path overhead proof (a no-op obs
# hook must add 0 B/op — including SpanCtx with a trace-laden context).
# BenchmarkPipelineLocate2DObserved fails the run if an instrumented
# pipeline stops emitting spans or slide tallies, so this (and
# bench-smoke, which runs every benchmark) catches plumbing rot.
obs-check:
	$(GO) test -race -run 'Obs|Trace|Concurrent' ./internal/obs/ ./
	$(GO) test -run NONE -bench 'Disabled|Locate2DObserved' -benchtime 1x -benchmem ./internal/obs/ ./

# The service benchmark (servbench/, BENCHMARK.json) is its own module,
# so the root `go test ./...` never compiles it: vet and test it here so
# an internal/ change that breaks the benchmark or its bit-identity
# oracle fails the gate (~3 s).
servbench-test:
	cd servbench && $(GO) vet ./... && $(GO) test ./...

# Short native-fuzz budget, 60 s in total: the stream detector's chunk
# invariance (Push over any chunking == Detect over the final blocks,
# bit for bit), then the upload
# decoders POST /v1/locate feeds untrusted bytes: WAV (never panics,
# output fits the input), meta.json (never panics, round-trips), the IMU
# CSV (never panics, finite samples, write/read fixed point) and the
# multipart bundle around them (never panics, consistent bundle), then
# store replay (arbitrary bytes as two session logs, or as a legacy
# session.wal/snapshot.wal pair to import, never panic and recover what
# the Memory oracle holds, again on a second open). Each replay input
# costs two store opens, so that target minimizes new inputs for at most
# 1 s. A
# failing input lands in
# internal/{chirp,sessionio,sessionstore}/testdata/fuzz/<target>/;
# commit it as a regression input. CI's bench-smoke job runs this.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzStreamChunking$$' -fuzztime 15s ./internal/chirp
	$(GO) test -run '^$$' -fuzz '^FuzzReadWAV$$' -fuzztime 9s ./internal/sessionio
	$(GO) test -run '^$$' -fuzz '^FuzzParseMeta$$' -fuzztime 9s ./internal/sessionio
	$(GO) test -run '^$$' -fuzz '^FuzzReadIMU$$' -fuzztime 9s ./internal/sessionio
	$(GO) test -run '^$$' -fuzz '^FuzzReadBundleMultipart$$' -fuzztime 9s ./internal/sessionio
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime 9s -fuzzminimizetime 1s ./internal/sessionstore

# Run the localization service locally (README "Service quick start").
serve:
	$(GO) run ./cmd/hyperearservd -addr :8787 -debug-addr :6060

# Service load/fault gate: the ≥32-client soak plus the full server and
# daemon test suites under the race detector. CI runs this as its own
# parallel job; locally it is also covered by `make race`.
server-soak:
	$(GO) test -race -timeout 15m -run 'Soak|Drain|Pool|Session|SIGTERM' ./internal/server/ ./cmd/hyperearservd/

# Durability gate: the session-log property suite (recovered state must
# match the in-memory oracle for random event sequences, torn tails,
# corrupt CRCs, failed fsyncs, legacy imports) plus the SIGKILL crash
# soak — the daemon killed between acknowledged session writes,
# restarted on the same -data-dir, and required to localize
# bit-identically to an uninterrupted run. Set HYPEREAR_CRASH_DIR to keep
# the session logs around after a failure (CI uploads them as an
# artifact).
crash-soak:
	$(GO) test -race -timeout 15m -count=1 ./internal/sessionstore/
	$(GO) test -race -timeout 15m -count=1 -run 'CrashRecovery|Recover' -v ./internal/server/ ./cmd/hyperearservd/

# Real measurement run of the performance-critical benchmarks (see
# DESIGN.md "Performance architecture"). FFTReal times the packed-real
# forward + inverse round trip at the 2^13-2^15 block sizes production
# runs; MatchedFilter the segmented band-limited envelope kernel over a
# session; Detect/Stream cover the batch and block-final stream detection
# hot paths; ASP is the per-locate detection stage (both channels) on the
# 5-slide bench session, and MSP, PDE and TTL the stages after it on the
# same session (internal/core); PipelineLocate2D tracks end-to-end
# latency; ServerThroughput measures locates/sec through the full HTTP
# service, ReadBundleMultipart its multipart WAV+CSV+meta decode alone,
# DecodeWAV the WAV inside it alone, and EncodeResponse the JSON answer
# of the 5-slide session's locate;
# SessionIngest streams a session's audio chunk by chunk with and without
# the session store underneath, SessionLocate times a streamed session's
# locate alone, and WALAppend pins the raw durable append to a session
# log under both fsync policies; DisabledSpan/EnabledSpan pin the per-hook
# observability overhead (the disabled path must stay 0 B/op) and
# PromExposition the /metrics scrape-render cost.
BENCH_RE := FFTReal|MatchedFilter|Detect|DetectSegmented|Stream|ASP|MSP|PDE|TTL|PipelineLocate2D|ServerThroughput|ReadBundleMultipart|DecodeWAV|EncodeResponse|SessionIngest|SessionLocate|WALAppend|DisabledSpan|EnabledSpan|PromExposition
BENCH_PKGS := ./ ./internal/dsp/ ./internal/chirp/ ./internal/core/ ./internal/obs/ ./internal/server/ ./internal/sessionio/ ./internal/sessionstore/

bench:
	$(GO) test -run NONE -bench '$(BENCH_RE)' -benchmem $(BENCH_PKGS)

# Same measurement run, archived as a dated JSON snapshot (name, ns/op,
# B/op, allocs/op per benchmark, plus the machine's core count) for
# cross-commit comparison. A second pass re-runs the benchmarks that
# fan out — a locate's two channels, and the service's concurrent
# locates — at GOMAXPROCS=1 and 2, the cores a 2-core box actually has,
# so the snapshot records the single-core vs multi-core separation side
# by side (the unsuffixed and -2 entries; benchjson -compare strips the
# suffix and never fails on entries present in only one report).
SCALING_RE := PipelineLocate2D$$|ServerThroughput
SCALING_PKGS := ./ ./internal/server/

bench-json:
	{ $(GO) test -run NONE -bench '$(BENCH_RE)' -benchmem $(BENCH_PKGS); \
	  $(GO) test -run NONE -bench '$(SCALING_RE)' -benchmem -cpu 1,2 $(SCALING_PKGS); } \
		| $(GO) run ./cmd/benchjson -out BENCH_$$(date +%Y-%m-%d).json

# CPU and heap profiles of the end-to-end pipeline benchmark, for
# finding where a locate actually spends its time. Profiles and the
# test binary to read them with land in bench-profile/ (CI's bench-smoke
# job uploads the directory as an artifact):
#
#	go tool pprof bench-profile/pipeline.test bench-profile/cpu.pprof
bench-profile:
	mkdir -p bench-profile
	$(GO) test -run NONE -bench 'PipelineLocate2D$$' -benchtime 5x -benchmem \
		-cpuprofile bench-profile/cpu.pprof -memprofile bench-profile/mem.pprof \
		-o bench-profile/pipeline.test .

# Regression guard: fresh measurement vs the latest committed BENCH_*.json
# snapshot, failing on >30% ns/op slowdowns or >10%+2 allocs/op growth
# (see cmd/benchjson -compare). The tight alloc gate is what keeps the
# zero-alloc scratch pipeline zero-alloc: a reintroduced per-call buffer
# shows up as an exact, machine-independent count. CI's bench-regression
# job runs exactly this.
bench-compare:
	@baseline="$$(ls BENCH_*.json 2>/dev/null | sort | tail -1)"; \
	if [ -z "$$baseline" ]; then echo "no committed BENCH_*.json baseline; run make bench-json first"; exit 1; fi; \
	echo "baseline: $$baseline"; \
	$(GO) test -run NONE -bench '$(BENCH_RE)' -benchmem $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchjson -out /tmp/bench-fresh.json; \
	$(GO) run ./cmd/benchjson -compare "$$baseline" -new /tmp/bench-fresh.json -tolerance 0.30 -alloc-tolerance 0.10
