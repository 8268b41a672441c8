#!/usr/bin/env sh
# Paper-output golden gate: builds the ten table/figure regenerators in
# release mode, runs each one, and diffs its stdout against the pinned
# copy in bench/paper/<bin>.txt. Every regenerator is deterministic, so
# any diff is a change to a paper number and must land with a
# regenerated golden file.
#
#   scripts/paper_goldens.sh
#
# Each run's stdout is kept in PAPER_<bin>.txt. Exits 1 if any output
# differs from its golden file (every binary is still checked).
set -eu

cargo build --release --locked -p shef-bench --bins

status=0
for bin in table1 table2 table3 fig5 fig6 boot_time ablations \
           integrity_ablation dnnweaver_latency matmul_micro; do
    echo "== $bin"
    "target/release/$bin" > "PAPER_$bin.txt"
    diff -u "bench/paper/$bin.txt" "PAPER_$bin.txt" || status=1
done
exit "$status"
