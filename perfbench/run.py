#!/usr/bin/env python3
"""GemStone repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload cold_reproduce --seed 1 \
        --seconds 10 --trace 0

Builds perfbench/ (the GemStone libraries plus the gs_perfbench
program) into .bench_build/perfbench on first use, generates a plan
from the seed, runs it and prints the result as one JSON line last on
stdout. --trace 1 reports the per-layer metrics instead of the
end-to-end ones and writes the spans as Chrome trace-event JSON under
.bench_build/traces/. --write-digests regenerates perfbench/digests.txt
after an intended output change. See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import random
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "gs_perfbench")
RUN_TIMEOUT_S = 170

# The five distinct campaigns behind the 13 paper artefacts, in a
# fixed order: the order decides which campaign pays each shared base
# run, so it is part of the work, not of the seeded variation.
CAMPAIGNS = ["val-a15-v1", "val-a7-v1", "val-a15-v2", "pow-a15", "pow-a7"]

# Specs the daemon serves from its store after set-up ("repeat" and
# "durable" requests): cluster, g5 version, seed, maxPoints, freqs.
PREWARM = [
    ("a7", 1, 0x0D401D, 0, "all"),     # full A7 validation, 180 points
    ("a15", 1, 0x0D401D, 0, "1000"),   # A15 @1 GHz, 45 points
    ("a15", 2, 0x0D401D, 0, "1000"),   # A15 g5 v2 @1 GHz, 45 points
]
FREQS = {"a7": [200, 600, 1000, 1400], "a15": [600, 1000, 1400, 1800]}

# Every run measures all three phases, because every run reports every
# end-to-end metric; the workload's own phase gets most of the run.
# Per workload: (cold passes, warm passes, requests per client) per
# second of --seconds. A phase the workload does not name runs at its
# floor: the fewest passes or requests whose median still repeats
# within the metric's bound from run to run.
RATES = {
    "cold_reproduce": (0.3, 0.0, 0.0),
    "warm_iterate": (0.0, 15.0, 0.0),
    "serve_mix": (0.0, 0.0, 15.0),
}
FLOORS = (1, 20, 50)
SETUPS = 2

# Serve mix composition, per client: shares of each request class. No
# record of real gemstoned traffic exists, so the classes get equal
# shares, an assumption: each of the three uses of the daemon's store
# (read, simulate and insert, read plus journal) weighs the same.
# Repeat and durable requests cycle through all three prewarm specs,
# the 180-point one included, so the journal cost that grows with a
# request's size is in the mix. Fresh specs are capped at 3-6 points
# at one frequency, also an assumption: a fresh request then costs
# about what a repeat does, and no class decides serve_p50_ms alone.
MIX = (("repeat", 1), ("fresh", 1), ("durable", 1))


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no GemStone sources next to perfbench/ (run from a checkout)")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", str(jobs())])
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:])
                fail("build failed: " + " ".join(step))


def jobs():
    return len(os.sched_getaffinity(0))


def query(flag):
    done = subprocess.run([BINARY, flag], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, check=True)
    return done.stdout.split()


def client_requests(rng, count, fresh_seeds):
    """One client's closed-loop request list.

    The class shares, the prewarm specs repeated and the fresh specs'
    sizes are balanced so every seed offers the same mix; the seed
    picks the order, the fresh seeds, clusters and frequencies.
    """
    weight = sum(w for _, w in MIX)
    kinds = []
    for kind, w in MIX:
        kinds += [kind] * round(count * w / weight)
    kinds = (kinds + ["repeat"] * count)[:count]
    rng.shuffle(kinds)
    lines = []
    seen = {kind: 0 for kind, _ in MIX}
    for kind in kinds:
        i = seen[kind]
        seen[kind] += 1
        if kind == "repeat":
            lines.append("request repeat %d" % (i % len(PREWARM)))
            continue
        if kind == "durable":
            lines.append("request durable %d" % (i % len(PREWARM)))
            continue
        cluster = ("a7", "a15")[i % 2]
        version = rng.choice([1, 2]) if cluster == "a15" else 1
        seed = rng.getrandbits(48)
        while seed in fresh_seeds or seed == PREWARM[0][2]:
            seed = rng.getrandbits(48)
        fresh_seeds.add(seed)
        lines.append("request fresh %s %d 0x%x %d %d" % (
            cluster, version, seed, 3 + i % 4, rng.choice(FREQS[cluster])))
    return lines


def make_plan(args, run_dir):
    names = query("--list-workloads")
    rng = random.Random("%s/%d" % (args.workload, args.seed))
    n = jobs()
    # Closed loop: each client has one request in flight. The daemon
    # rejects a submit beyond its default admission limit, and one
    # client's next submit can arrive before the daemon has retired the
    # request it just answered, so one admission slot stays free.
    clients = max(1, min(n - 1, int(query("--admission-limit")[0]) - 1))
    cold, warm, per_client = (max(floor, round(rate * args.seconds))
                              for rate, floor in zip(RATES[args.workload],
                                                     FLOORS))
    setups = SETUPS
    if args.trace:
        # A traced run reports no set-up time and needs the warm passes
        # only for their spans: set up once, keep the warm floor.
        setups, warm = 1, FLOORS[1]

    lines = [
        "jobs %d" % n,
        "trace %d" % args.trace,
        "setups %d" % setups,
        "cold_passes %d" % cold,
        "warm_passes %d" % warm,
        "cold_order " + " ".join(CAMPAIGNS),
        "warm_order " + " ".join(CAMPAIGNS),
    ]
    lines += ["prewarm %s %d 0x%x %d %s" % p for p in PREWARM]
    fresh_seeds = set()
    for _ in range(clients):
        lines.append("client")
        lines += client_requests(rng, per_client, fresh_seeds)
    lines.append("stage_workloads " + " ".join(rng.sample(names, len(names))))
    lines.append("digests " + os.path.relpath(
        os.path.join(HERE, "digests.txt"), ROOT))
    lines.append("temp_dir " + os.path.relpath(
        os.path.join(run_dir, "tmp"), ROOT))
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        lines.append("trace_out " + os.path.relpath(os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed)), ROOT))
    lines.append("write_digests %d" % int(args.write_digests))
    path = os.path.join(run_dir, "plan.txt")
    with open(path, "w") as out:
        out.write("\n".join(lines) + "\n")
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(RATES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args()

    build()
    run_dir = os.path.join(ROOT, ".bench_build", "runs",
                           "%s-%d-%d" % (args.workload, args.seed,
                                         os.getpid()))
    os.makedirs(run_dir)
    try:
        plan = make_plan(args, run_dir)
        with open(os.path.join(run_dir, "stderr.log"), "w+") as log:
            proc = subprocess.Popen(
                [BINARY, "--plan", os.path.relpath(plan, ROOT)], cwd=ROOT,
                stdout=subprocess.PIPE, stderr=log, text=True)
            try:
                out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                fail("run exceeded %d s" % RUN_TIMEOUT_S)
            log.seek(0)
            errors = log.read()
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            sys.stderr.write(errors[-4000:])
            fail("no result line (exit code %d)" % proc.returncode)
        if proc.returncode != 0:
            sys.stderr.write(errors[-4000:])
        for line in lines[:-1]:
            print(line)
        print(json.dumps(result))
        return proc.returncode
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
