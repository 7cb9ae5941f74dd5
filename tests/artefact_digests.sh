#!/usr/bin/env bash
# Artefact byte-identity check: render every paper artefact with one
# `reproduce --out` run, sha256sum each NAME.txt, and compare the list
# against the committed bench/golden/artefact_digests.txt. Then render
# one cheap artefact to stdout and require the same bytes as its
# --out file, so both output paths stay covered. Any mismatch (or a
# failing run) exits non-zero with a diff.
#
# Stderr is not digested: it carries warnings and the timing-dependent
# counts (e.g. tab_fault_resilience's "points cancelled"). No stdout
# cell depends on the machine: tab_fault_resilience's interrupt table
# runs at a fixed job set, {1, 4}, on every host.
#
# Usage: tests/artefact_digests.sh [BUILD_DIR] [--update]
#   --update rewrites the golden file from this build instead of
#   comparing (only when an output change is intended).

set -euo pipefail

BUILD_DIR="$(cd "${1:-build}" && pwd)"
MODE="${2:-check}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
GOLDEN="$ROOT/bench/golden/artefact_digests.txt"
REPRODUCE="$BUILD_DIR/bench/reproduce"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail() { echo "artefact_digests: FAIL: $*" >&2; exit 1; }

[[ -x "$REPRODUCE" ]] || fail "build $REPRODUCE first"

# Run from a scratch directory: tab_fault_resilience leaves a
# checkpoint file in the working directory while it runs.
cd "$WORK"
"$REPRODUCE" --out "$WORK/out" 2>"$WORK/reproduce.err" ||
    fail "reproduce exited non-zero; stderr tail:
$(tail -5 "$WORK/reproduce.err")"

count=0
for file in "$WORK"/out/*.txt; do
    digest="$(sha256sum "$file" | cut -d' ' -f1)"
    echo "$digest  $(basename "$file" .txt)" | tee -a "$WORK/digests.txt"
    count=$((count + 1))
done

if [[ "$MODE" == "--update" ]]; then
    mkdir -p "$(dirname "$GOLDEN")"
    cp "$WORK/digests.txt" "$GOLDEN"
    echo "artefact_digests: wrote $GOLDEN"
    exit 0
fi

[[ -f "$GOLDEN" ]] || fail "no golden file at $GOLDEN"
# Compare by name: the golden file's row order carries no meaning.
diff -u <(sort -k2 "$GOLDEN") <(sort -k2 "$WORK/digests.txt") ||
    fail "stdout digests differ from $GOLDEN"

"$REPRODUCE" fig5_pmc_correlation >"$WORK/fig5.stdout" 2>/dev/null ||
    fail "reproduce fig5_pmc_correlation exited non-zero"
cmp "$WORK/fig5.stdout" "$WORK/out/fig5_pmc_correlation.txt" ||
    fail "reproduce's stdout differs from its --out file"
echo "artefact_digests: PASS ($count artefacts byte-identical;" \
     "stdout matches --out)"
