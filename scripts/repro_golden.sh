#!/usr/bin/env bash
# Golden check of the reproduction: runs `repro all --days 2 --seed 7`
# into a temporary directory and compares its stdout and every CSV it
# writes, byte for byte, with tests/golden/repro_all_d2_s7/. Stderr is
# not compared: it carries the wall time and the output paths.
#
# The golden pins the engine-hosted study end to end (cloud model,
# SpotLight policy, store, analyses, case studies). Regenerate it only
# in a change that says why the numbers moved.
#
# Usage:
#   scripts/repro_golden.sh           # ~1 s after a release build
#   scripts/repro_golden.sh --write   # regenerate the golden

set -euo pipefail
cd "$(dirname "$0")/.."

GOLDEN=tests/golden/repro_all_d2_s7
write=0
case "${1:-}" in
    "") ;;
    --write) write=1 ;;
    *) echo "usage: scripts/repro_golden.sh [--write]" >&2; exit 2 ;;
esac

cargo build --release -q --bin repro
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/out"
if ! cargo run --release -q --bin repro -- all --days 2 --seed 7 --out "$tmp/out" \
        > "$tmp/out/stdout.txt" 2> "$tmp/stderr.txt"; then
    cat "$tmp/stderr.txt" >&2
    echo "repro_golden: repro failed" >&2
    exit 1
fi

if [ "$write" = 1 ]; then
    rm -rf "$GOLDEN"
    mkdir -p "$GOLDEN"
    cp "$tmp"/out/* "$GOLDEN"/
    echo "repro_golden: wrote $GOLDEN ($(cat "$GOLDEN"/* | wc -c) bytes)"
    exit
fi

if ! diff -r "$GOLDEN" "$tmp/out"; then
    echo "repro_golden: output differs from $GOLDEN" >&2
    exit 1
fi
echo "repro_golden: OK ($(ls "$GOLDEN" | wc -l) files match)"
