#!/usr/bin/env bash
# A/A check: two sets of runs of the same tree must agree within the
# bounds of BENCHMARK.json. See aa_check.py for what is compared.
#   benchmark/aa_check.sh [--runs N] [--seconds S] [--out FILE] [--from FILE]
set -euo pipefail
exec python3 benchmark/aa_check.py "$@"
