GO ?= go
FUZZTIME ?= 5s
PROF_OUT ?= imcprof-smoke.json
CHAOS_OUT ?= chaos-smoke.json
LINT_OUT ?= imclint-report.json

.PHONY: check fmt build vet lint lint-vet test race hostbench-test solver-bench bench results microbench fuzz prof-smoke chaos-smoke tidy

# check is the CI gate: check formatting, compile everything, vet, lint
# the determinism invariants (in both driver modes), run the full test
# suite under the race detector, vet and test the nested hostbench
# module, run the solver benchmarks once, give the fuzzers a short
# shake, prove the self-profiling pipeline end to end, and run the tiny
# chaos campaign (report written, re-read and parsed).
check: fmt build vet lint lint-vet race hostbench-test solver-bench fuzz prof-smoke chaos-smoke

# fmt fails, listing the files, when any Go file in the tree (the
# nested hostbench module and lint fixtures included) is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# lint runs the imclint determinism suite (eventorder, maprange,
# metricsnil, nondetflow, profnil, sharedmut, stalewaiver — see README
# "Static analysis") over the whole tree and writes the
# machine-readable report ($(LINT_OUT), a sorted JSON array, [] when
# clean) that CI uploads as an artifact; findings also print to stdout
# and make the target exit non-zero.
lint:
	$(GO) run ./cmd/imclint -json -o $(LINT_OUT) ./...

# lint-vet runs the identical suite through cmd/go's unitchecker
# protocol (`go vet -vettool`), exercising the vetx facts files that
# carry nondetflow's cross-package taint between package units. CI runs
# both modes; TestLaunderingFailsBothModes asserts they agree on a
# known-dirty module, and a tree clean in one mode must be clean in the
# other.
lint-vet:
	$(GO) build -o imclint.vettool ./cmd/imclint
	$(GO) vet -vettool=./imclint.vettool ./...
	rm -f imclint.vettool

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# hostbench-test vets and tests the nested hostbench module (its own
# go.mod, so `./...` above never reaches it): its drivers import the
# simulator's APIs, and its self-tests check runs against refs.json.
hostbench-test:
	cd hostbench && $(GO) vet ./... && $(GO) test ./...

# prof-smoke is the self-profiling end-to-end check: profile a small
# run with imcreport, then parse and summarize the journal with imcprof.
# CI uploads $(PROF_OUT) as a workflow artifact so every run leaves an
# inspectable profile behind.
prof-smoke:
	$(GO) run ./cmd/imcreport -workload synthetic -sim 64 -ana 32 -steps 2 -json '' -trace '' -profile $(PROF_OUT)
	$(GO) run ./cmd/imcprof report -top 10 $(PROF_OUT)

# chaos-smoke is the chaos-campaign end-to-end check: run the tiny CI
# sweep (2 methods x 2 faults x 2 intensities x 2 mitigations x 2
# trials + a 3-step survival-boundary bisection), write $(CHAOS_OUT),
# then re-read and parse it for the printed summary. The campaign's
# digest is golden-gated in internal/chaos; CI uploads $(CHAOS_OUT) as
# a workflow artifact.
chaos-smoke:
	$(GO) run ./cmd/imcbench chaos -smoke -out $(CHAOS_OUT)

# solver-bench runs the fair-share solver's benchmarks (one fill and
# one flush of the ds-matched-shaped network, the 1k-10k sender fan-in)
# for one iteration each. They reach into the solver's internals, and
# nothing else in check runs benchmarks, so this keeps them compiling
# and running; the timings it prints are not a record.
solver-bench:
	$(GO) test -run '^$$' -bench 'Fill|Flush|FanIn' -benchtime 1x ./internal/sim

# bench is the scale digest gate: it runs the 1k/4k/10k-rank matrix
# with fixed configurations and the profiler off, and fails if any
# modelled virtual time or metrics digest drifts from the committed
# BENCH_PR7.json. All nine cells fit in 8 GB (the NIC tracks hold only
# change points). It never writes the file; IMC_SCALE_BENCH=update
# regenerates the golden after an intended model change. `make test` runs the 1k row of the same gate; CI runs the
# whole matrix; host performance is hostbench's.
bench:
	IMC_SCALE_BENCH=$${IMC_SCALE_BENCH:-1} $(GO) test -run TestScaleBench -count=1 -timeout 60m -v .

# results is the gate for results_full.txt, the committed full-study
# output that README and EXPERIMENTS quote: it reruns `imcbench all`
# (5-12 minutes) and fails on any difference, after stripping the
# `-- <name> generated in` wall-time lines from both sides. After an
# intended model change, regenerate the file with
# `go run ./cmd/imcbench all > results_full.txt`.
results:
	@set -e; got=$$(mktemp); want=$$(mktemp); trap 'rm -f "$$got" "$$got.all" "$$want"' EXIT; \
	$(GO) run ./cmd/imcbench all > "$$got.all"; \
	grep -v '^-- .* generated in' "$$got.all" > "$$got"; \
	grep -v '^-- .* generated in' results_full.txt > "$$want"; \
	diff -u "$$want" "$$got" && echo "results_full.txt reproduced"

# microbench runs the per-figure testing.B benchmarks in quick mode,
# one N-to-1 DataSpaces put/commit/get step (64 writers, 32 readers,
# 4 servers), the DIMES Get benchmark at 339 and 6810 writers, staging
# Store.Query over a 340-block version in two layouts, the telemetry
# encoders (metrics JSON/CSV and Perfetto trace JSON) on one fixed run,
# and the fair-share solver: one fill of a fixed ds-matched-shaped
# network and the 1k-10k sender fan-in.
microbench:
	$(GO) test -bench . -benchtime 2x -run '^$$' . ./internal/dataspaces ./internal/dimes ./internal/sim ./internal/staging ./internal/workflow

# fuzz discovers every native fuzzer in the tree (`go test -list`) and
# gives each FUZZTIME of shaking; saved crashers in testdata/fuzz replay
# as regular regression tests under `make test`. Discovery means a new
# FuzzXxx is picked up without editing this file.
fuzz:
	@set -e; \
	$(GO) test -run '^$$' -list '^Fuzz' ./... | \
	awk '$$1 ~ /^Fuzz/ { names[n++] = $$1 } $$1 == "ok" { for (i = 0; i < n; i++) print $$2, names[i]; n = 0 }' | \
	while read pkg fz; do \
		echo "-- fuzz $$fz ($$pkg, $(FUZZTIME)) --"; \
		$(GO) test $$pkg -run '^$$' -fuzz "^$$fz$$" -fuzztime $(FUZZTIME); \
	done

tidy:
	$(GO) mod tidy
