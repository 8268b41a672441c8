#!/usr/bin/env sh
# Correctness smoke over the perfbench workloads: runs each one briefly
# and fails unless its result line reports a correct run with no failed
# operations. No timing gate — the wall-clock numbers are ignored.
#
#   scripts/perfbench_smoke.sh [WORKLOAD...]
#
# Defaults to every workload in BENCHMARK.json. perfbench/run.py prints
# build output and diagnostics on stderr and one JSON object as the last
# line of stdout.
set -eu

[ $# -gt 0 ] || set -- vecadd_stream affine_gather svc_kv

status=0
for workload in "$@"; do
    out=$(python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 1) || {
        echo "perfbench_smoke: $workload: run.py exited non-zero" >&2
        status=1
        continue
    }
    last=$(printf '%s\n' "$out" | tail -n 1)
    if printf '%s\n' "$last" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
ok = r.get("correct") is True and r.get("failed") == 0
print("correct=%s attempted=%s failed=%s" % (r.get("correct"), r.get("attempted"), r.get("failed")))
sys.exit(0 if ok else 1)
'; then
        echo "perfbench_smoke: $workload ok"
    else
        echo "perfbench_smoke: $workload FAILED: $last" >&2
        status=1
    fi
done
exit "$status"
