# Developer entry points. The rebaseline targets mirror the CI jobs
# byte for byte — refresh a committed baseline with them whenever an
# intentional change moves the gated metrics, and commit the result.

GO ?= go

.PHONY: test check bench-check rebaseline-virt rebaseline-bench serve

test:
	$(GO) build ./... && $(GO) test ./...

# check mirrors the CI test job's gates, including the example-spec
# runs (every assertion must hold) and the trace smoke.
check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -short ./...
	for spec in examples/scenarios/*.json; do \
		echo "== $$spec"; $(GO) run ./cmd/ibcbench run -scenario "$$spec" || exit 1; \
	done
	out=$$($(GO) run ./cmd/ibcbench trace -out trace_ci.json -summary -topology hub:3 -rate 3 -windows 2) || exit 1; \
	echo "$$out"; \
	echo "$$out" | grep -q 'span tree'
	$(GO) run ./cmd/ibcbench trace -validate trace_ci.json

# The benchmark's own checks, mirroring the two perfbench CI steps: the
# nested module's vet and tests, then a short votes-v32 run whose last
# JSON line must report a correct verdict.
bench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	out=$$(bash perfbench/run.sh --workload votes-v32 --seed 1 --seconds 5 --trace 0); \
	echo "$$out"; \
	echo "$$out" | tail -n 1 | grep -q '"correct":true'

# Refresh VIRT_baseline.json — the armed 0.1% virtual-metric gate.
# Must match the "Virtual-metric regression gate" CI step exactly:
# virtual-clock results are deterministic per seed, so the fresh file
# should differ from the committed one only when simulation behavior
# intentionally moved.
rebaseline-virt:
	$(GO) run ./cmd/ibcbench sweep -experiment topo -topology hub:3 -rate 5 -seeds 2 -windows 3 -out VIRT_baseline.json

# Refresh BENCH_baseline.json — the warn-only 30% wall-clock trajectory.
# Mirrors the CI bench job's "Hot-path benchmarks" step; run on a quiet
# machine.
rebaseline-bench:
	set -o pipefail; \
	$(GO) test -run '^$$' -bench 'BenchmarkVoteFanout|BenchmarkStateCommit|BenchmarkEventDecode|BenchmarkTracerOverhead|BenchmarkRelayerHubScan|BenchmarkMeshSerialVsParallel' -benchtime=3x -count=3 . | tee bench_raw.txt; \
	$(GO) test -run '^$$' -bench 'BenchmarkNetemSend' -benchtime=3x -count=3 ./internal/netem | tee -a bench_raw.txt; \
	$(GO) test -run '^$$' -bench 'BenchmarkQuorumTally' -benchtime=100x -count=3 ./internal/tendermint/consensus | tee -a bench_raw.txt
	$(GO) run ./cmd/ibcbench bench2json bench_raw.txt -out BENCH_baseline.json
	rm -f bench_raw.txt

# Local experiment service over the default store directory.
serve:
	$(GO) run ./cmd/ibcbench serve -store ibcbench-store -addr 127.0.0.1:8321
