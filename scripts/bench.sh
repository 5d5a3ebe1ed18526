#!/usr/bin/env sh
# bench.sh — refresh the repository's performance trajectory.
#
# Runs the kernel micro-benchmarks and the full experiment-suite
# benchmarks with -benchmem, parses the output through cmd/benchjson,
# and writes:
#
#   BENCH_kernel.json       internal/sim micro-benchmarks
#   BENCH_experiments.json  paper-experiment benchmarks + RunAll wall
#                           times (serial vs -parallel 8)
#   BENCH_analysis.json     streaming analysis pipeline: streamed vs
#                           materialized digest (B/op, flows/sec) and
#                           the GOMEMLIMIT-bounded peak heap of a
#                           Fig13-scale streamed digest
#   BENCH_storefault.json   storage seam overhead: journal-line and
#                           flowstore-block writes raw vs through the
#                           passthrough FS seam, plus the measured
#                           seam/raw ratios (gated within noise in
#                           -smoke)
#
# Each file keeps the best of -count runs per benchmark. Commit the
# refreshed files alongside any change that moves them.
#
#   scripts/bench.sh            full measurement (minutes)
#   scripts/bench.sh -smoke     one iteration per benchmark, output to a
#                               temp dir — a CI gate that bench code and
#                               the JSON pipeline still work; committed
#                               BENCH_*.json are left untouched.
set -eu
cd "$(dirname "$0")/.."

smoke=0
if [ "${1:-}" = "-smoke" ]; then
    smoke=1
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

if [ "$smoke" -eq 1 ]; then
    benchtime=1x
    count=1
    kernel_out="$tmp/BENCH_kernel.json"
    experiments_out="$tmp/BENCH_experiments.json"
    analysis_out="$tmp/BENCH_analysis.json"
    storefault_out="$tmp/BENCH_storefault.json"
else
    benchtime=
    count=3
    kernel_out=BENCH_kernel.json
    experiments_out=BENCH_experiments.json
    analysis_out=BENCH_analysis.json
    storefault_out=BENCH_storefault.json
fi

go build -o "$tmp/benchjson" ./cmd/benchjson

echo "== kernel micro-benchmarks (internal/sim) =="
go test -run '^$' -bench . -benchmem ${benchtime:+-benchtime $benchtime} \
    -count "$count" ./internal/sim | tee "$tmp/kernel.txt"

"$tmp/benchjson" < "$tmp/kernel.txt" > "$kernel_out"

echo "== experiment benchmarks (repro root) =="
# The figure/table benchmarks regenerate full paper artifacts per
# iteration (seconds each), so one iteration per count is the
# measurement; the per-frame micro-benchmarks need real iteration
# counts, so they run with the default benchtime.
micro='^Benchmark(WireFastPath|CaptureEngine|HostWritev)$'
go test -run '^$' -bench . -benchmem -benchtime 1x \
    -count "$count" . \
    | grep -Ev '^Benchmark(WireFastPath|CaptureEngine|HostWritev)\b' \
    | tee "$tmp/experiments.txt"
go test -run '^$' -bench "$micro" -benchmem ${benchtime:+-benchtime $benchtime} \
    -count "$count" . | tee -a "$tmp/experiments.txt"

echo "== streaming analysis: streamed vs materialized digest =="
# The figure corpus is regenerated per iteration, so one iteration per
# count is the measurement (same reasoning as the experiment suite).
go test -run '^$' -bench '^Benchmark(Streamed|Materialized)FlowDigest$' \
    -benchmem -benchtime 1x -count "$count" . | tee "$tmp/analysis.txt"

# Bounded-memory gate: a Fig13-scale streamed digest runs with the Go
# heap pinned to 64 MiB; the test fails if peak HeapAlloc exceeds the
# budget (the materialized pipeline needs several hundred MB for the
# same corpus). The measured peak lands in BENCH_analysis.json.
GOMEMLIMIT=64MiB PW_STREAM_HEAP_BUDGET_MB=64 \
    go test -run '^TestStreamedDigestHeapBudget$' -v . | tee "$tmp/heap.txt"
peak_heap=$(awk '/peak_heap_mb/ { print $NF }' "$tmp/heap.txt")
"$tmp/benchjson" \
    -add "StreamedDigestPeakHeap64MiBLimit:MB:${peak_heap:-0}" \
    < "$tmp/analysis.txt" > "$analysis_out"
echo "streamed digest peak heap under GOMEMLIMIT=64MiB: ${peak_heap:-?} MB"

echo "== storage seam overhead: raw vs passthrough FS =="
# The fault-injection seam routes every journal and flowstore write
# through an interface; the gate proves the passthrough costs ~0. The
# gate test runs in every mode (smoke included) and FAILS if the seam
# exceeds 2x + 2µs of the raw write on either hot-path shape; the
# benchmarks record the trajectory.
go test -run '^$' -bench '^BenchmarkSeam' -benchmem ${benchtime:+-benchtime $benchtime} \
    -count "$count" ./internal/storefault | tee "$tmp/storefault.txt"
PW_SEAM_GATE=1 go test -run '^TestSeamOverheadGate$' -count=1 -v \
    ./internal/storefault | tee "$tmp/seamgate.txt"
seam_ratio() {
    awk -v k="$1" '$1 == "seam_overhead" && $2 == k { sub(/ratio=/, "", $NF); print $NF; exit }' \
        "$tmp/seamgate.txt"
}
journal_ratio=$(seam_ratio journal-line)
block_ratio=$(seam_ratio flowstore-block)
"$tmp/benchjson" \
    -add "SeamOverheadJournalLine:x:${journal_ratio:-0}" \
    -add "SeamOverheadFlowstoreBlock:x:${block_ratio:-0}" \
    < "$tmp/storefault.txt" > "$storefault_out"
echo "storage seam overhead: journal-line ${journal_ratio:-?}x, flowstore-block ${block_ratio:-?}x raw"

if [ "$smoke" -eq 1 ]; then
    "$tmp/benchjson" < "$tmp/experiments.txt" > "$experiments_out"
    echo "smoke ok: $(ls "$tmp"/BENCH_*.json | wc -l) reports generated (discarded)"
    exit 0
fi
echo "wrote $analysis_out"

echo "wrote $storefault_out"

echo "== RunAll wall time: serial vs parallel =="
go build -o "$tmp/pwexperiments" ./cmd/pwexperiments
wall_ms() {
    start=$(date +%s%N)
    "$tmp/pwexperiments" -all -parallel "$1" > /dev/null
    end=$(date +%s%N)
    echo $(( (end - start) / 1000000 ))
}
serial_ms=$(wall_ms 1)
parallel_ms=$(wall_ms 8)
echo "RunAll serial: ${serial_ms} ms, -parallel 8: ${parallel_ms} ms"

"$tmp/benchjson" \
    -add "RunAllWallSerial:ms:$serial_ms" \
    -add "RunAllWallParallel8:ms:$parallel_ms" \
    < "$tmp/experiments.txt" > "$experiments_out"

echo "wrote $kernel_out and $experiments_out"
