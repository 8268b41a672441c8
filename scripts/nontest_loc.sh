#!/usr/bin/env sh
# Prints the workspace's non-test Rust line count: for every .rs file
# under crates/*/src and src, the lines before its first `#[cfg(test)]`.
# This is the size figure ROADMAP.md and CHANGES.md quote.
#
# Usage: scripts/nontest_loc.sh
set -eu
cd "$(dirname "$0")/.."
find crates/*/src src -name '*.rs' -exec awk '
    FNR == 1 { skip = 0 }
    /#\[cfg\(test\)\]/ { skip = 1 }
    !skip { n++ }
    END { print n + 0 }
' {} + | awk '{ total += $1 } END { print total + 0 }'
