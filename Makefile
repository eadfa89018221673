GO ?= go

# Coverage floor for the telemetry layer (percent of statements).
TELEMETRY_COVER_FLOOR ?= 80
# Coverage floor for the fault-injection substrate: it underpins the chaos
# suite's determinism claims, so nearly every branch must be exercised.
FAULTINJECT_COVER_FLOOR ?= 90

.PHONY: build vet test race flake-gate bench-smoke bench-check alloc-gate noasm-check check cover fmt-check fuzz-smoke cli-smoke soak soak-smoke deadcode

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 30m ./...

# Flake gate: the two packages whose tests drive executors, five times over,
# with one busy-loop process per CPU competing for the host beside them — the
# load under which a test that compares a measured wall duration goes red,
# and one that asserts masks, pending slots and budget equalities does not.
# The recipe starts the loops and reaps them on any exit; its status is go
# test's. Run it at GOMAXPROCS 1, 2 and 4 (CI's matrix does). The second
# line reruns the virtual-clock tests (the frame clock, fleet admission, the
# tail study and its golden) and the tail scheduler's control-law tests at
# -cpu 1,2,4 in one go: they assert exact latencies, shed/readmit histories
# and decision sequences, which must not move with the worker count any
# more than with host load.
flake-gate:
	@pids=""; trap 'kill $$pids 2>/dev/null; wait' EXIT; \
	for i in $$(seq $$(getconf _NPROCESSORS_ONLN)); do \
		sh -c 'while :; do :; done' & pids="$$pids $$!"; \
	done; \
	$(GO) test -count=5 -timeout 30m ./internal/pipeline ./internal/experiment && \
	$(GO) test -count=3 -cpu 1,2,4 -timeout 30m -run 'TestVirtualFrameClock|TestAdmission|TestTailStudy|TestGolden|TestTailControllerLaw|TestTailForgetsOneSpike' ./internal/pipeline ./internal/experiment

# One-iteration sweep over every `go test -bench` micro/regression
# benchmark: catches bit-rotted benchmarks without the cost of real
# measurement. Performance numbers come from `bash bench/run.sh` only.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x ./...

# The repository benchmark (BENCHMARK.json, `bash bench/run.sh`) is its own
# module importing adsim/internal/..., so the root module's build and tests
# never compile it: vet it and run its -quick smoke (~8 s) here.
bench-check:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# Zero-allocation gates on the warm inference hot path: the conv/FC
# kernels, the DNN forward pass and DET, run once (the kernels run on
# their caller, so there is no kernel worker count to sweep), the
# tensor.Each fan-out across a GC, plus LOC's gate (a steady-state frame
# allocates only the slices it retains, with its matcher at 1, 2 and 4
# workers), DET's proposal pass, the radius-1 blur's, the bilinear
# resize's, the conformal planner's (a fixed count at any horizon), the
# full rolling window's, the constraint monitor's and the telemetry
# collector's warm span fold (testing.AllocsPerRun is unreliable under
# -race, so these run without it; `make race` still executes the same
# tests for correctness). TRA's and LOC's gates, whose fan-outs start
# goroutines, also run at GOMAXPROCS 1, 2 and 4. No output filter: the
# target's status must be go test's.
alloc-gate:
	$(GO) test -run 'TestAlloc' -count=1 ./internal/tensor ./internal/dnn ./internal/detect ./internal/img ./internal/plan ./internal/stats ./internal/constraint ./internal/telemetry
	$(GO) test -run 'TestAlloc' -count=1 -cpu 1,2,4 ./internal/slam ./internal/track

# The pure-Go kernels every non-amd64 host runs (gemm_other.go, the GEMM
# tile; leaf_other.go, the pool, FC and activation leaves; sad_other.go, the
# template-match window; blur_other.go, the 3×3 blur's three-row rows): the
# kernel packages' tests, and DET's (its SWAR proposal scan), as 386
# binaries, which run on an amd64 host and do float math in SSE2 too, so the
# bitwise tests hold; the pipeline's
# golden-trace and parity contract on the same fallbacks; plus arm64 vet,
# and a scan of internal/tensor's, internal/dnn's, internal/track's,
# internal/img's, internal/detect's, internal/pipeline's, internal/fusion's
# and internal/mission's arm64 code for fused multiply-adds, which the Go
# spec lets the compiler form from x*y + z and which round once where amd64
# rounds twice (wrap the product in float32() or float64()).
noasm-check:
	GOARCH=386 $(GO) test -count=1 ./internal/tensor ./internal/dnn ./internal/track ./internal/img ./internal/detect
	GOARCH=386 $(GO) test -count=1 -run 'Golden|Parity|Identical|TestFleetMatchesSoloRunners' ./internal/pipeline
	GOARCH=arm64 $(GO) vet ./internal/tensor
	GOARCH=arm64 $(GO) vet ./internal/dnn
	GOARCH=arm64 $(GO) vet ./internal/track
	GOARCH=arm64 $(GO) vet ./internal/img
	GOARCH=arm64 $(GO) vet ./internal/detect
	GOARCH=arm64 $(GO) vet ./internal/pipeline
	GOARCH=arm64 $(GO) vet ./internal/fusion
	GOARCH=arm64 $(GO) vet ./internal/mission
	@for pkg in ./internal/tensor ./internal/dnn ./internal/track ./internal/img ./internal/detect ./internal/pipeline ./internal/fusion ./internal/mission; do \
		asm="$$(GOARCH=arm64 $(GO) build -gcflags=-S $$pkg 2>&1)" || { echo "$$asm"; exit 1; }; \
		if echo "$$asm" | grep -E 'FN?M(ADD|SUB)[SD]'; then \
			echo "$$pkg: fused multiply-add in the arm64 code"; exit 1; \
		fi; \
	done

# Short fuzz smoke over the ADM1 prior-map decoder, the descriptor matcher,
# the tracker's template match, the radius-1 blur, DET's proposal scan, the
# GEMM's register tile and the DNN leaves (each against its plain reference
# loop or Go form) and the unified scenario program parser (go test -fuzz
# takes one target in one package at a time; -run '^$' skips the unit tests
# it already ran).
fuzz-smoke:
	$(GO) test -fuzz=FuzzReadPriorMap -fuzztime=10s -run='^$$' ./internal/slam
	$(GO) test -fuzz=FuzzMatchDescriptors -fuzztime=10s -run='^$$' ./internal/slam
	$(GO) test -fuzz=FuzzMatchTemplate -fuzztime=10s -run='^$$' ./internal/track
	$(GO) test -fuzz=FuzzBoxBlur3 -fuzztime=10s -run='^$$' ./internal/img
	$(GO) test -fuzz=FuzzProposeOutlineBoxes -fuzztime=10s -run='^$$' ./internal/detect
	$(GO) test -fuzz=FuzzGemmRange -fuzztime=10s -run='^$$' ./internal/tensor
	$(GO) test -fuzz=FuzzDNNLeaves -fuzztime=10s -run='^$$' ./internal/tensor
	$(GO) test -fuzz=FuzzParseScenarioProgram -fuzztime=10s -run='^$$' ./internal/scenario

# CLI smoke: build adpipe and admap once each and drive every path end to
# end. adpipe's two paths: a seeded chaos run with deadline enforcement (a
# Runner), which must list a DET budget miss tallied from the delivered
# frames' degraded masks, a faulted three-vehicle fleet on shared engines
# and one shared map, a stall-injected run under the tail scheduler with anytime DET, a
# library scenario program, which must print the Monitor's performance
# verdict line, and a fleet with
# one assigned program. admap's map-provider path: survey a small map into
# 16 m shards, inspect them, and localize a replay through a two-tile
# cache budget (it exits 1 when fewer than half the frames localize).
# Then the negatives, each of which must exit 2 rather than be silently
# ignored: a fault rule naming no pipeline stage (the retired IO kind),
# -fault-vehicle without -fault, -remove-vehicle without -remove-at,
# -ladder without -tail, -base with a built-in world, and admap with no
# mode. The packages behind these runs are tested under the race detector
# by `make race`.
cli-smoke:
	@set -e; dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/adpipe" ./cmd/adpipe; \
	$(GO) build -o "$$dir/admap" ./cmd/admap; \
	run() { echo "+ $$*"; bin="$$1"; shift; "$$dir/$$bin" "$$@"; }; \
	reject() { echo "+ $$* (must exit 2)"; bin="$$1"; shift; st=0; "$$dir/$$bin" "$$@" || st=$$?; \
		[ "$$st" -eq 2 ] || { echo "cli-smoke: exit $$st, want 2"; exit 1; }; }; \
	run adpipe -frames 30 -dnn=false -width 384 -height 192 -survey 20 \
		-deadline 100ms -fault 'DET:delay=60ms:every=5,LOC:delay=120ms:frames=10-12,SRC:drop:every=17' \
		>"$$dir/chaos.out"; \
	cat "$$dir/chaos.out"; \
	grep -Eq '^ +DET +[1-9][0-9]*$$' "$$dir/chaos.out" || { echo "cli-smoke: chaos run listed no DET budget miss"; exit 1; }; \
	run adpipe -vehicles 3 -frames 20 -dnn=false -width 384 -height 192 -survey 20 -inflight 3 \
		-deadline 100ms -fault 'DET:delay=60ms:every=5' -fault-vehicle 1; \
	run adpipe -frames 40 -dnn=false -width 384 -height 192 -survey 20 \
		-inflight 4 -deadline 100ms -anytime -tail 40ms -fault 'DET:delay=32ms:every=7:burst=3'; \
	run adpipe -scenario mixed-stress -frames 40 -dnn=false -width 384 -height 192 -survey 20 -deadline 100ms \
		>"$$dir/program.out"; \
	cat "$$dir/program.out"; \
	grep -q '^performance ' "$$dir/program.out" || { echo "cli-smoke: program run printed no performance verdict"; exit 1; }; \
	run adpipe -vehicles 2 -frames 20 -dnn=false -width 384 -height 192 -survey 20 -inflight 3 -assign '1=cut-in'; \
	run admap -shard "$$dir/map" -frames 40 -width 384 -height 192 -tile 16; \
	run admap -shardinfo "$$dir/map"; \
	run admap -verify "$$dir/map" -frames 40 -width 384 -height 192 -cache-budget 100000; \
	reject adpipe -frames 1 -dnn=false -survey 0 -fault 'IO:err:p=0.2'; \
	reject adpipe -vehicles 2 -frames 1 -dnn=false -survey 0 -fault-vehicle 1; \
	reject adpipe -vehicles 2 -frames 1 -dnn=false -survey 0 -remove-vehicle 1; \
	reject adpipe -frames 1 -dnn=false -survey 0 -ladder 64,48; \
	reject adpipe -frames 1 -dnn=false -survey 0 -scenario highway -base urban; \
	reject admap

# Long-haul soak: thousands of virtual-deadline frames through a churning,
# admission-controlled fleet under the mixed-stress scenario, with the
# structural audits (goroutine leaks, heap growth, monitor invariants,
# churn bitwise parity) under the race detector. Takes about a minute.
soak:
	$(GO) test -race -run 'TestFleetSoak|TestFleetChurnBitwiseParity' -count=1 -timeout 20m -v ./internal/pipeline

# The -short scaling of the same harness: a few hundred frames, same
# churn script and audits. Wired into check and CI.
soak-smoke:
	$(GO) test -race -short -run 'TestFleetSoak|TestFleetChurnBitwiseParity' -count=1 ./internal/pipeline

# The tier the concurrency work is held to: check formatting, compile
# everything, vet, run the full test suite under the race detector (which
# includes the chaos, fleet, tail and scenario suites), run every go test
# benchmark once, compile and smoke the bench/ module against the APIs it
# imports, test the non-amd64 kernel, run the fuzz smoke, drive the chaos,
# fleet, tail and scenario runs end to end through the one CLI, then the
# soak smoke.
check: fmt-check build vet race bench-smoke bench-check alloc-gate noasm-check fuzz-smoke cli-smoke soak-smoke

fmt-check:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# Coverage over the observability and chaos layers (telemetry, its stats
# backing, the constraint monitor and the fault injector), with enforced
# floors on internal/telemetry and internal/faultinject.
cover:
	$(GO) test -coverprofile=cover.out -coverpkg=./internal/telemetry/...,./internal/stats/...,./internal/constraint/...,./internal/faultinject/...,./internal/scenario/... \
		./internal/telemetry/... ./internal/stats/... ./internal/constraint/... ./internal/faultinject/... ./internal/scenario/... ./internal/pipeline/...
	$(GO) tool cover -func=cover.out | tail -1
	@total="$$($(GO) tool cover -func=cover.out | grep 'internal/telemetry/' | \
		awk '{ sub(/%/, "", $$3); sum += $$3; n++ } END { if (n) printf "%.1f", sum / n; else print 0 }')"; \
	echo "internal/telemetry mean statement coverage: $$total% (floor $(TELEMETRY_COVER_FLOOR)%)"; \
	awk "BEGIN { exit !($$total >= $(TELEMETRY_COVER_FLOOR)) }" || \
		{ echo "coverage below floor"; exit 1; }
	@total="$$($(GO) tool cover -func=cover.out | grep 'internal/faultinject/' | \
		awk '{ sub(/%/, "", $$3); sum += $$3; n++ } END { if (n) printf "%.1f", sum / n; else print 0 }')"; \
	echo "internal/faultinject mean statement coverage: $$total% (floor $(FAULTINJECT_COVER_FLOOR)%)"; \
	awk "BEGIN { exit !($$total >= $(FAULTINJECT_COVER_FLOOR)) }" || \
		{ echo "coverage below floor"; exit 1; }

# Link-time census: build every main of this module and of bench/ with
# inlining off (so an inlined call still leaves its callee in the symbol
# table), read the binaries' symbols with go tool nm, and print each
# function or method declared in a non-test internal/ file (for this
# GOARCH) that no binary links, as file:line and name. It reports and
# never fails on what it finds; test oracles and helpers, the pure-Go
# kernels another GOARCH links, interface methods and format readers show
# up too, on purpose.
deadcode:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	for p in $$($(GO) list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do \
		$(GO) build -gcflags=all=-l -o "$$tmp/bin.$${p##*/}" "$$p" || exit 1; \
	done; \
	$(GO) build -C bench -gcflags=all=-l -o "$$tmp/bin.bench" . || exit 1; \
	for b in "$$tmp"/bin.*; do $(GO) tool nm "$$b"; done | \
		awk '{ print $$NF }' | sed -e 's/\.abi0$$//' -e 's/\[[^]]*\]//g' | sort -u > "$$tmp/linked"; \
	$(GO) list -f '{{$$d := .Dir}}{{$$p := .ImportPath}}{{range .GoFiles}}{{$$p}} {{$$d}}/{{.}}{{"\n"}}{{end}}' ./internal/... | \
	while read -r pkg file; do \
		grep -n '^func ' "$$file" | sed -E \
			-e 's/^([0-9]+):func \(([A-Za-z_][A-Za-z0-9_]* )?\*([A-Za-z0-9_]+)(\[[^]]*\])?\) ([A-Za-z0-9_]+).*/\1 (*\3).\5/' \
			-e 's/^([0-9]+):func \(([A-Za-z_][A-Za-z0-9_]* )?([A-Za-z0-9_]+)(\[[^]]*\])?\) ([A-Za-z0-9_]+).*/\1 \3.\5/' \
			-e 's/^([0-9]+):func ([A-Za-z0-9_]+).*/\1 \2/' | \
		while read -r line name; do echo "$$pkg $$name $${file#$$PWD/}:$$line"; done; \
	done | awk -v linked="$$tmp/linked" ' \
		BEGIN { while ((getline s < linked) > 0) have[s] = 1 } \
		$$2 == "init" || $$2 == "_" { next } \
		{ ptr = $$2; if (sub(/\./, ").", ptr) && ptr !~ /^\(/) ptr = "(*" ptr; else ptr = "" } \
		!(($$1 "." $$2) in have) && !(ptr != "" && ($$1 "." ptr) in have) { print $$3 "\t" $$2; n++ } \
		END { print n + 0 " unlinked functions" }'
