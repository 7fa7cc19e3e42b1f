#!/usr/bin/env bash
# Lines of Rust per crate, counted over the files git tracks plus the
# untracked ones it does not ignore, so a new file counts before it is
# added.
#
#   scripts/loc.sh
#
# Two counts per row:
#   all       every line of every counted .rs file;
#   non-test  lines of files under a src/ directory, each counted up to
#             its first top-level `#[cfg(test)]` (tests/ and examples/
#             count as test lines).
# The `arpshield` row is the root package (src/, tests/, examples/);
# the `workspace` row covers everything except perfbench/.
set -euo pipefail

cd "$(dirname "$0")/.."

# Reads .rs paths on stdin and prints "all non-test" for them.
count() {
    awk '{
        file = $0
        src = file ~ /(^|\/)src\//
        in_test = 0
        while ((getline line < file) > 0) {
            all++
            if (line ~ /^#\[cfg\(test\)\]/) in_test = 1
            if (src && !in_test) non_test++
        }
        close(file)
    }
    END { printf "%9d %9d\n", all, non_test }'
}

row() {
    local name=$1
    shift
    printf '%-10s %s\n' "$name" "$(git ls-files --cached --others --exclude-standard -- "$@" | count)"
}

printf '%-10s %9s %9s\n' crate all non-test
row arpshield '*.rs' ':!crates' ':!perfbench'
for dir in crates/*/; do
    row "$(basename "$dir")" "$dir*.rs"
done
row workspace '*.rs' ':!perfbench'
