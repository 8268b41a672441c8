#!/usr/bin/env sh
# Correctness smoke over the perfbench workloads: runs each one briefly
# and fails unless its result line reports a correct run with no failed
# operations, and its seed-1 counts and modelled cycles equal the pinned
# values below. No timing gate — the wall-clock numbers are ignored.
#
#   scripts/perfbench_smoke.sh [WORKLOAD...]
#
# Defaults to every workload in BENCHMARK.json. perfbench/run.py prints
# build output and diagnostics on stderr and one JSON object as the last
# line of stdout.
set -eu

[ $# -gt 0 ] || set -- vecadd_stream affine_gather svc_kv

# Seed-1 `--trace 1` values every change must keep: bus_ops chunk_jobs
# buffer_hits buffer_misses writebacks dram_bytes model_cycles.
pinned() {
    case "$1" in
        affine_gather) echo "6853 3473 5492 1169 2304 646480 112486" ;;
        vecadd_stream) echo "192 1536 0 1024 512 1622016 92768" ;;
        svc_kv) echo "256 244 24 116 128 2056000 140024" ;;
        *) echo "" ;;
    esac
}

status=0
for workload in "$@"; do
    out=$(python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 1) || {
        echo "perfbench_smoke: $workload: run.py exited non-zero" >&2
        status=1
        continue
    }
    last=$(printf '%s\n' "$out" | tail -n 1)
    if printf '%s\n' "$last" | PINNED=$(pinned "$workload") python3 -c '
import json, os, sys
r = json.loads(sys.stdin.read())
ok = r.get("correct") is True and r.get("failed") == 0
print("correct=%s attempted=%s failed=%s" % (r.get("correct"), r.get("attempted"), r.get("failed")))
names = ["bus_ops", "chunk_jobs", "buffer_hits", "buffer_misses", "writebacks", "dram_bytes", "model_cycles"]
pinned = os.environ["PINNED"].split()
if not pinned:
    print("no pinned counts for this workload")
    ok = False
metrics = r.get("metrics", {})
for name, want in zip(names, pinned):
    got = metrics.get(name, {}).get("value")
    if got != int(want):
        print("%s=%s, pinned %s" % (name, got, want))
        ok = False
sys.exit(0 if ok else 1)
'; then
        echo "perfbench_smoke: $workload ok"
    else
        echo "perfbench_smoke: $workload FAILED: $last" >&2
        status=1
    fi
done
exit "$status"
