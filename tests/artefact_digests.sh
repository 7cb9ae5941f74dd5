#!/usr/bin/env bash
# Artefact byte-identity check: run the 13 paper fig/tab binaries plus
# tab_fault_resilience, sha256sum each one's stdout, and compare the
# list against the committed bench/golden/artefact_digests.txt. Any
# mismatch (or a binary that fails) exits non-zero with a diff.
#
# Stderr is not digested: it carries warnings and the timing-dependent
# counts (e.g. tab_fault_resilience's "points cancelled"). One stdout
# cell is machine-dependent: tab_fault_resilience's interrupt table
# prints its pool size, max(4, cores), so the golden file holds the
# value for machines with at most 4 cores (the CI runners).
#
# Usage: tests/artefact_digests.sh [BUILD_DIR] [--update]
#   --update rewrites the golden file from this build instead of
#   comparing (only when an output change is intended).

set -euo pipefail

BUILD_DIR="$(cd "${1:-build}" && pwd)"
MODE="${2:-check}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
GOLDEN="$ROOT/bench/golden/artefact_digests.txt"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

ARTEFACTS=(fig3_mpe_clusters fig4_mem_latency fig5_pmc_correlation
           fig6_event_comparison fig7_power_energy fig8_dvfs_scaling
           fig_exec_error fig_g5_event_correlation tab_ablation
           tab_bp_fix tab_event_quality tab_power_model tab_regression
           tab_fault_resilience)

fail() { echo "artefact_digests: FAIL: $*" >&2; exit 1; }

# Run from a scratch directory: some binaries leave checkpoint files
# in the working directory while they run.
cd "$WORK"
for name in "${ARTEFACTS[@]}"; do
    bin="$BUILD_DIR/bench/$name"
    [[ -x "$bin" ]] || fail "build $bin first"
    "$bin" >"$WORK/$name.out" 2>"$WORK/$name.err" ||
        fail "$name exited non-zero; stderr tail:
$(tail -5 "$WORK/$name.err")"
    digest="$(sha256sum "$WORK/$name.out" | cut -d' ' -f1)"
    echo "$digest  $name" | tee -a "$WORK/digests.txt"
done

if [[ "$MODE" == "--update" ]]; then
    mkdir -p "$(dirname "$GOLDEN")"
    cp "$WORK/digests.txt" "$GOLDEN"
    echo "artefact_digests: wrote $GOLDEN"
    exit 0
fi

[[ -f "$GOLDEN" ]] || fail "no golden file at $GOLDEN"
diff -u "$GOLDEN" "$WORK/digests.txt" ||
    fail "stdout digests differ from $GOLDEN"
echo "artefact_digests: PASS (${#ARTEFACTS[@]} artefacts byte-identical)"
