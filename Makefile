# Kube-Knots reproduction — common developer entry points.
#
# The bench target regenerates BENCH_baseline.json: every benchmark runs one
# iteration (-benchtime 1x) five times (-count 5) and cmd/benchjson folds the
# text output into sorted JSON holding the median ns/op, B/op, allocs/op and
# per-figure headline metrics of each benchmark. Commit the refreshed file
# when a change is expected to move a baseline.

GO ?= go

.PHONY: all build test race vet bench determinism clean

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
# before CI.
determinism:
	$(GO) test ./internal/experiments/ -run 'TestTracingDeterminism|TestTracedExportsStable' -count=1
	$(GO) test ./cmd/kubeknots/ -run 'TestE2EGolden' -count=1
	$(GO) test ./cmd/knotsctl/ -run 'TestTrace' -count=1
	$(GO) run ./cmd/kubeknots -horizon 30s -parallel 1 \
		-spans-out /tmp/kk-spans-p1.jsonl fig9 > /tmp/kk-plain.txt
	$(GO) run ./cmd/kubeknots -horizon 30s -parallel 8 \
		-trace-out /tmp/kk-decisions.jsonl -timeline-out /tmp/kk-timeline.json \
		-spans-out /tmp/kk-spans-p8.jsonl fig9 > /tmp/kk-traced.txt
	diff /tmp/kk-plain.txt /tmp/kk-traced.txt
	diff /tmp/kk-spans-p1.jsonl /tmp/kk-spans-p8.jsonl
	$(GO) test ./internal/experiments/ -run TestHarvestDisabledByteIdentical -count=1
	$(GO) run ./cmd/kubeknots -horizon 30s -parallel 1 \
		-harvest=false -watermark 0.5 -checkpoint-cost 1s fig9 > /tmp/kk-harvest-off.txt
	diff /tmp/kk-plain.txt /tmp/kk-harvest-off.txt
	$(GO) run ./cmd/kubeknots -horizon 30s -parallel 1 fig-harvest > /tmp/kk-fh1.txt
	$(GO) run ./cmd/kubeknots -horizon 30s -parallel 8 fig-harvest > /tmp/kk-fh8.txt
	diff /tmp/kk-fh1.txt /tmp/kk-fh8.txt
	$(GO) test ./internal/experiments/ -run 'TestCrashRecovery|TestCrashSnapshot' -count=1
	$(GO) test ./cmd/kubeknots/ -run TestE2ECrashRecovery -count=1
	rm -rf /tmp/kk-state
	$(GO) run ./cmd/kubeknots -horizon 30s -parallel 1 \
		-state-dir /tmp/kk-state -crash-at 10s fig9 > /dev/null 2>/tmp/kk-crash-err.txt || true
	grep -q 'injected crash' /tmp/kk-crash-err.txt
	$(GO) run ./cmd/kubeknots -horizon 30s -parallel 1 \
		-state-dir /tmp/kk-state fig9 > /tmp/kk-recovered.txt
	diff /tmp/kk-plain.txt /tmp/kk-recovered.txt
	@echo determinism: tables and span JSONL identical with tracing on/off, -parallel 1 vs 8, harvest flags inert when disabled, crash-restart byte-identical

clean:
	rm -f /tmp/kk-plain.txt /tmp/kk-traced.txt /tmp/kk-decisions.jsonl /tmp/kk-timeline.json \
		/tmp/kk-spans-p1.jsonl /tmp/kk-spans-p8.jsonl \
		/tmp/kk-fh1.txt /tmp/kk-fh8.txt /tmp/kk-harvest-off.txt /tmp/kk-crash-err.txt /tmp/kk-recovered.txt
	rm -rf /tmp/kk-state
