#!/bin/sh
# Non-test lines of each crate's `src`: every line of every `.rs` file up to
# the file's first `#[cfg(test)]` at column 0 (the whole file when it has
# none). Prints one line per crate and the total; with crate names as
# arguments (e.g. `core transport`), only those crates and their sum.
#
#   scripts/nontest_lines.sh               # every crate under crates/
#   scripts/nontest_lines.sh core transport
set -eu
cd "$(dirname "$0")/.."
if [ "$#" -eq 0 ]; then
    set -- $(ls crates)
fi
total=0
for crate in "$@"; do
    dir="crates/$crate/src"
    if [ ! -d "$dir" ]; then
        echo "no such crate: $crate" >&2
        exit 1
    fi
    lines=$(find "$dir" -name '*.rs' | sort | xargs awk '
        FNR == 1 { counting = 1 }
        /^#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }')
    printf '%-12s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-12s %6d\n' total "$total"
