#!/usr/bin/env bash
# End-to-end smoke test of the campaign service daemon, as CI runs it:
# boot gemstoned, serve >=4 concurrent client campaigns, byte-compare
# each against the one-shot CLI, prove the repeated request came from
# the shared store, then SIGTERM and require a graceful drain (exit 0,
# no orphaned socket).
#
# Usage: tests/serve_smoke.sh [BUILD_DIR]   (default: build)

set -euo pipefail

BUILD_DIR="${1:-build}"
TOOL="$BUILD_DIR/examples/gemstone_tool"
DAEMON="$BUILD_DIR/examples/gemstoned"
WORK="$(mktemp -d)"
SOCK="$WORK/gemstoned.sock"

SPEC_COMMON=(--cluster a7 --freq 1000 --repeats 2 --quorum 1
             --max-points 6 --quiet)

fail() { echo "serve_smoke: FAIL: $*" >&2; exit 1; }

cleanup() {
    [[ -n "${DAEMON_PID:-}" ]] && kill -9 "$DAEMON_PID" 2>/dev/null
    rm -rf "$WORK"
    return 0
}
trap cleanup EXIT

[[ -x "$TOOL" && -x "$DAEMON" ]] || fail "build $TOOL and $DAEMON first"

# Reference bytes: the one-shot CLI, one run per seed.
for seed in 1 2 3 4; do
    "$TOOL" campaign "${SPEC_COMMON[@]}" --seed "$seed" \
        --out "$WORK/ref_$seed.csv"
done

# With --cache and no --out, stdout is the dataset alone: the store
# statistics go to stderr. Once on an empty tier file (every result
# published to it), once on the warm file (every result read back).
for tier in cold warm; do
    "$TOOL" campaign "${SPEC_COMMON[@]}" --seed 1 \
        --cache "$WORK/tier.csv" >"$WORK/cached_$tier.csv" \
        2>"$WORK/cached_$tier.err"
    cmp "$WORK/ref_1.csv" "$WORK/cached_$tier.csv" ||
        fail "--cache stdout on the $tier tier differs from --out"
done
grep -q " 0 misses" "$WORK/cached_warm.err" ||
    fail "the warm tier did not serve every result"
echo "serve_smoke: --cache stdout byte-identical on a cold and a warm tier"

"$DAEMON" --socket "$SOCK" --max-active 4 >"$WORK/daemon.log" 2>&1 &
DAEMON_PID=$!
for _ in $(seq 50); do [[ -S "$SOCK" ]] && break; sleep 0.1; done
[[ -S "$SOCK" ]] || fail "daemon never bound $SOCK"

# >=4 concurrent clients, one campaign each.
declare -a CLIENT_PIDS=()
for seed in 1 2 3 4; do
    "$TOOL" ctl --socket "$SOCK" submit "${SPEC_COMMON[@]}" \
        --seed "$seed" --out "$WORK/served_$seed.csv" &
    CLIENT_PIDS+=($!)
done
for pid in "${CLIENT_PIDS[@]}"; do
    wait "$pid" || fail "a concurrent submit failed"
done
for seed in 1 2 3 4; do
    cmp "$WORK/ref_$seed.csv" "$WORK/served_$seed.csv" ||
        fail "daemon-served seed=$seed differs from one-shot CLI"
done
echo "serve_smoke: 4 concurrent campaigns byte-identical to one-shot"

# Repeat a request: the shared store must serve it without any new
# insertions, and the bytes must not change. The counters are read
# from the "store:" line only; the "predecode:" line counts hits too.
insertions_before=$("$TOOL" ctl --socket "$SOCK" --timeout 10 stats |
    sed -n 's/^store: .* \([0-9]*\) insertions.*/\1/p')
"$TOOL" ctl --socket "$SOCK" submit "${SPEC_COMMON[@]}" --seed 1 \
    --out "$WORK/served_repeat.csv"
cmp "$WORK/ref_1.csv" "$WORK/served_repeat.csv" ||
    fail "repeated request changed bytes"
stats_after=$("$TOOL" ctl --socket "$SOCK" --timeout 10 stats)
insertions_after=$(sed -n 's/^store: .* \([0-9]*\) insertions.*/\1/p' \
    <<<"$stats_after")
hits_after=$(sed -n 's/^store: .* \([0-9]*\) hits.*/\1/p' \
    <<<"$stats_after")
[[ "$insertions_after" == "$insertions_before" ]] ||
    fail "repeat inserted new entries ($insertions_before -> $insertions_after)"
[[ "$hits_after" -gt 0 ]] || fail "repeat produced no store hits"
echo "serve_smoke: repeat served from shared store" \
     "($hits_after hits, no new insertions)"

# Graceful drain: SIGTERM -> exit 0, socket inode unlinked.
kill -TERM "$DAEMON_PID"
drain_rc=0
wait "$DAEMON_PID" || drain_rc=$?
[[ "$drain_rc" -eq 0 ]] ||
    { cat "$WORK/daemon.log" >&2; fail "drain exit code $drain_rc"; }
[[ ! -e "$SOCK" ]] || fail "orphaned socket left behind: $SOCK"
DAEMON_PID=""
echo "serve_smoke: SIGTERM drained gracefully, no orphaned socket"
echo "serve_smoke: PASS"
