#!/usr/bin/env sh
# bench.sh — run the engine benchmarks and emit a BENCH_<label>.json artifact.
#
#   scripts/bench.sh             # writes BENCH_1.json (5 runs of the engine bench)
#   scripts/bench.sh mybranch    # writes BENCH_mybranch.json
#   scripts/bench.sh shard-sweep # writes BENCH_3.json (parallel-engine scaling)
#
# Compare against the committed pre-refactor baseline BENCH_0.json, or with
# benchstat on the raw text kept next to the JSON.
set -eu
cd "$(dirname "$0")/.."

label="${1:-1}"
txt="BENCH_${label}.txt"
json="BENCH_${label}.json"

# Shard-scaling sweep (BENCH_3): the k=16 fat-tree permutation workload
# at increasing shard counts. Mevents/simsec must not move across shard
# counts — sharded runs are byte-identical to sequential, so it doubles
# as a determinism canary. Mevents/wallsec is the scaling figure and is
# only meaningful on a host with at least as many cores as shards;
# single-core runs measure the epoch-barrier overhead instead.
if [ "$label" = "shard-sweep" ]; then
	txt="BENCH_3.txt"
	json="BENCH_3.json"
	go test -run '^$' -bench '^BenchmarkShardedFatTree$' -count=3 -timeout 60m . | tee "$txt"
	go run ./cmd/benchjson -label shard-sweep -o "$json" "$txt"
	echo "wrote $json"
	exit 0
fi

# The headline benchmarks (telemetry-off, telemetry-on, and
# observatory-on engine paths), repeated for a distribution benchstat
# can consume. The Telemetry delta is the telemetry layer's budget, and
# the Obs delta (spans on every flow, watchdogs armed, flight ring live)
# is the observatory's.
go test -run '^$' -bench '^BenchmarkEngineThroughput(Telemetry|Obs)?$' -count=5 . | tee "$txt"

# The hot-path microbenchmarks, one pass each.
go test -run '^$' -bench '^Benchmark(TimerChurn|TimerChurnStop|EventTarget|HeapDepth)' ./internal/sim/ | tee -a "$txt"
go test -run '^$' -bench '^Benchmark(SaturatedPort|IncastBurst|ComputeRoutes|RouteLookup)$' ./internal/netsim/ | tee -a "$txt"
go test -run '^$' -bench '^BenchmarkRecorderPush$' ./internal/telemetry/ | tee -a "$txt"

# Diff against the most recent committed BENCH_*.json (other than the one
# being written). The alloc budgets are not gated here: they are plain
# tests (TestEngineThroughputAllocs, TestEngineThroughputObsAllocs,
# TestRouteLookupAllocs, TestRecorderPushAllocs) that `go test ./...` runs.
prev=""
for f in $(git ls-files 'BENCH_*.json' | sort -V); do
	[ "$f" = "$json" ] && continue
	prev="$f"
done
prevargs=""
[ -n "$prev" ] && prevargs="-prev $prev"

go run ./cmd/benchjson -label "$label" -o "$json" $prevargs "$txt"
echo "wrote $json"
