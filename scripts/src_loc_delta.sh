#!/usr/bin/env bash
# Prints how many lines a change adds to and removes from src/, and the net,
# from `git diff --numstat` between a base commit and the working tree.
#
#   scripts/src_loc_delta.sh [base]     # base defaults to HEAD~1
#
# New files count once they are tracked (`git add`); binary files are skipped.
set -eu
cd "$(dirname "$0")/.."
base="${1:-HEAD~1}"
git diff --numstat "$base" -- src | awk -v base="$base" '
  $1 != "-" { added += $1; removed += $2 }
  END { printf "src/ LoC vs %s: +%d -%d (net %+d)\n", base, added, removed, added - removed }'
