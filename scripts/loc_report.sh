#!/usr/bin/env bash
# Lines of code per workspace member, so the size trend ROADMAP aim 2
# tracks is a number. Physical lines (comments and blanks included),
# split two ways per crate:
#   src    src/**/*.rs up to the file's `#[cfg(test)] mod ...` tail
#   test   that tail (unit tests and proptests living beside the code)
# plus the workspace-level tests/ and examples/ (crate-local examples/
# directories included) and the workspace-member count. `benchmark/` is
# its own package outside the workspace and is not counted.
#
# Usage:
#   scripts/loc_report.sh                  # table
#   scripts/loc_report.sh --json           # one JSON object
#   scripts/loc_report.sh --files <path>…  # src (non-test) lines of each
#                                          # named file, and their sum

set -euo pipefail
cd "$(dirname "$0")/.."

# Workspace member paths, from the root manifest's `members` array.
mapfile -t MEMBERS < <(sed -n '/^members = \[/,/^\]/p' Cargo.toml | grep -o '"[^"]*"' | tr -d '"')

# lines <files...>: total physical lines (0 for no files).
lines() {
    [ "$#" -eq 0 ] && { echo 0; return; }
    cat "$@" | wc -l
}

# split_src <files...>: prints "<src> <test>" — each file is cut at its
# first column-0 `#[cfg(test)]` that is followed by a `mod` item.
split_src() {
    [ "$#" -eq 0 ] && { echo "0 0"; return; }
    awk '
        FNR == 1 { src += held; in_test = 0; held = 0 }
        in_test { test++; next }
        held { held = 0; if ($0 ~ /^mod /) { in_test = 1; test += 2; next } src++ }
        /^#\[cfg\(test\)\]$/ { held = 1; next }
        { src++ }
        END { printf "%d %d\n", src + held, test }
    ' "$@"
}

if [ "${1:-}" = "--files" ]; then
    shift
    total=0
    for f in "$@"; do
        [ -f "$f" ] || { echo "loc_report.sh: no such file: $f" >&2; exit 2; }
        read -r src _ <<< "$(split_src "$f")"
        printf '%-40s %6d\n' "$f" "$src"
        total=$((total + src))
    done
    printf '%-40s %6d\n' "total" "$total"
    exit
fi

ROWS=""
for member in "${MEMBERS[@]}"; do
    mapfile -t src_files < <(find "$member/src" -name '*.rs' 2>/dev/null | sort)
    read -r src test <<< "$(split_src "${src_files[@]}")"
    ROWS+="${member#crates/} $src $test"$'\n'
done
mapfile -t test_files < <(find tests -name '*.rs' | sort)
mapfile -t example_files < <(find examples crates/*/examples -name '*.rs' 2>/dev/null | sort)
TESTS="$(lines "${test_files[@]}")"
EXAMPLES="$(lines "${example_files[@]}")"

printf '%s' "$ROWS" | awk -v json="${1:-}" -v members="${#MEMBERS[@]}" -v tests="$TESTS" -v examples="$EXAMPLES" '
    { name[NR] = $1; src[NR] = $2; test[NR] = $3
      tsrc += $2; ttest += $3 }
    END {
        if (json == "--json") {
            printf "{\"workspace_members\":%d,\"crates\":{", members
            for (i = 1; i <= NR; i++)
                printf "%s\"%s\":{\"src\":%d,\"test\":%d}", (i > 1 ? "," : ""), name[i], src[i], test[i]
            printf "},\"crates_src\":%d,\"crates_test\":%d,\"crates_non_test\":%d,\"tests\":%d,\"examples\":%d}\n", tsrc, ttest, tsrc, tests, examples
            exit
        }
        printf "%-18s %8s %8s\n", "crate", "src", "test"
        for (i = 1; i <= NR; i++)
            printf "%-18s %8d %8d\n", name[i], src[i], test[i]
        printf "%-18s %8d %8d\n", "crates total", tsrc, ttest
        printf "non-test lines under crates/: %d\n", tsrc
        printf "tests/: %d   examples/: %d   workspace members: %d\n", tests, examples, members
    }
'
