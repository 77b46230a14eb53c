# Kube-Knots reproduction — common developer entry points.
#
# The bench target regenerates BENCH_baseline.json: every benchmark runs one
# iteration (-benchtime 1x) five times (-count 5) and cmd/benchjson folds the
# text output into sorted JSON holding the median ns/op, B/op, allocs/op and
# per-figure headline metrics of each benchmark. Commit the refreshed file
# when a change is expected to move a baseline.

GO ?= go

.PHONY: all build test race vet bench determinism

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -count 5 -benchmem . ./internal/api/ | $(GO) run ./cmd/benchjson > BENCH_baseline.json
	@echo wrote BENCH_baseline.json

# Byte-identical experiment output with observability enabled vs disabled
# and across pool widths: the determinism guarantees, checkable locally
# before CI. Every scratch output lands in one mktemp -d directory that is
# removed on exit, so concurrent runs do not collide.
determinism:
	set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) test ./internal/experiments/ -run 'TestTracingDeterminism|TestTracedExportsStable' -count=1; \
	$(GO) test ./cmd/kubeknots/ -run 'TestE2EGolden' -count=1; \
	$(GO) test ./cmd/knotsctl/ -run 'TestTrace' -count=1; \
	$(GO) run ./cmd/kubeknots -horizon 30s -parallel 1 \
		-spans-out $$tmp/spans-p1.jsonl fig9 > $$tmp/plain.txt; \
	$(GO) run ./cmd/kubeknots -horizon 30s -parallel 8 \
		-trace-out $$tmp/decisions.jsonl -timeline-out $$tmp/timeline.json \
		-spans-out $$tmp/spans-p8.jsonl fig9 > $$tmp/traced.txt; \
	diff $$tmp/plain.txt $$tmp/traced.txt; \
	diff $$tmp/spans-p1.jsonl $$tmp/spans-p8.jsonl; \
	$(GO) test ./internal/experiments/ -run TestHarvestDisabledByteIdentical -count=1; \
	$(GO) run ./cmd/kubeknots -horizon 30s -parallel 1 \
		-harvest=false -watermark 0.5 -checkpoint-cost 1s fig9 > $$tmp/harvest-off.txt; \
	diff $$tmp/plain.txt $$tmp/harvest-off.txt; \
	$(GO) run ./cmd/kubeknots -horizon 30s -parallel 1 fig-harvest > $$tmp/fh1.txt; \
	$(GO) run ./cmd/kubeknots -horizon 30s -parallel 8 fig-harvest > $$tmp/fh8.txt; \
	diff $$tmp/fh1.txt $$tmp/fh8.txt; \
	$(GO) test ./internal/experiments/ -run 'TestCrashRecovery|TestCrashSnapshot' -count=1; \
	$(GO) test ./cmd/kubeknots/ -run TestE2ECrashRecovery -count=1; \
	$(GO) run ./cmd/kubeknots -horizon 30s -parallel 1 \
		-state-dir $$tmp/state -crash-at 10s fig9 > /dev/null 2>$$tmp/crash-err.txt || true; \
	grep -q 'injected crash' $$tmp/crash-err.txt; \
	$(GO) run ./cmd/kubeknots -horizon 30s -parallel 1 \
		-state-dir $$tmp/state fig9 > $$tmp/recovered.txt; \
	diff $$tmp/plain.txt $$tmp/recovered.txt
	@echo determinism: tables and span JSONL identical with tracing on/off, -parallel 1 vs 8, harvest flags inert when disabled, crash-restart byte-identical
