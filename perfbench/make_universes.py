#!/usr/bin/env python3
"""Rebuild perfbench/universes.json, the universe seeds the benchmark
seeds map to.

The paper-scale generator's corpus size depends on its seed: over seeds
0..999 the DDL bytes that reach mining range from 18.1 MB to 43.4 MB,
and a study's peak memory follows the largest histories, not the total.
Timing universes of different sizes would measure the seed, not the
program. So the benchmark only runs universes that match the paper
corpus (seed 2019) in both: mined DDL bytes within BYTES_WINDOW, and the
peak RSS of `schevo study --workers 1` within RSS_WINDOW. The same holds
for the 20 appendix projects append-resume adds: their size swings from
batch to batch with the largest project, so each universe gets the
batch (of its first BATCHES) closest to the paper corpus's batch 0 in
total and in largest-project DDL bytes, and a universe with none within
APPENDIX_WINDOW is dropped.

    export CARGO_TARGET_DIR=.bench_build
    cargo build --release --offline --bin schevo
    cargo build --release --offline --manifest-path perfbench/harness/Cargo.toml
    .bench_build/release/perfbench-harness corpus-size --from 0 --to 3000 > sizes.json
    python3 perfbench/make_universes.py .bench_build/release/schevo \
        .bench_build/release/perfbench-harness sizes.json

Rebuild it whenever the corpus generator changes.
"""

import json
import os
import subprocess
import sys
import tempfile

BYTES_WINDOW = 0.01
RSS_WINDOW = 0.03
APPENDIX_WINDOW = 0.05
BATCHES = 128
PAPER_SEED = 2019


def peak_rss(schevo, seed):
    """Max RSS in bytes of one `schevo study --workers 1` of `seed`."""
    with tempfile.TemporaryDirectory() as out:
        argv = [schevo, "study", "--seed", str(seed), "--workers", "1", "--out", out]
        quiet = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
        pid = os.posix_spawn(schevo, argv, os.environ, file_actions=quiet)
        _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit("schevo study --seed %d failed" % seed)
    return usage.ru_maxrss * 1024


def appendix_sizes(harness, seed, batches):
    out = subprocess.run([harness, "appendix-size", "--seed", str(seed), "--batches", str(batches)],
                         check=True, stdout=subprocess.PIPE).stdout
    return json.loads(out)


def closest_appendix(candidates, target):
    """The appendix batch nearest `target` in total and largest-project
    bytes, with its relative distance."""
    def distance(a):
        return max(abs(a["ddl_bytes"] / target["ddl_bytes"] - 1),
                   abs(a["largest_project_bytes"] / target["largest_project_bytes"] - 1))
    best = min(candidates, key=distance)
    return best, distance(best)


def select(rows, rss_of, appendix_of):
    target = next(r for r in rows if r["seed"] == PAPER_SEED)
    target["peak_rss_bytes"] = rss_of(PAPER_SEED)
    paper_appendix = appendix_of(PAPER_SEED, 1)[0]
    keep = []
    for r in sorted(rows, key=lambda r: r["seed"]):
        if abs(r["ddl_bytes"] / target["ddl_bytes"] - 1) > BYTES_WINDOW:
            continue
        r["peak_rss_bytes"] = target["peak_rss_bytes"] if r is target else rss_of(r["seed"])
        if abs(r["peak_rss_bytes"] / target["peak_rss_bytes"] - 1) > RSS_WINDOW:
            continue
        appendix, distance = closest_appendix(
            [paper_appendix] if r is target else appendix_of(r["seed"], BATCHES), paper_appendix)
        if distance <= APPENDIX_WINDOW:
            r["appendix_batch"] = appendix["batch"]
            r["appendix"] = appendix
            keep.append(r)
    return {"target": target, "bytes_window": BYTES_WINDOW, "rss_window": RSS_WINDOW,
            "appendix_window": APPENDIX_WINDOW, "scanned": len(rows), "universes": keep}


def main(argv):
    if len(argv) < 3:
        raise SystemExit(__doc__)
    schevo, harness, paths = argv[0], argv[1], argv[2:]
    rows = {}
    for path in paths:
        with open(path) as f:
            rows.update((r["seed"], r) for r in json.load(f))
    table = select(list(rows.values()), lambda seed: peak_rss(schevo, seed),
                   lambda seed, batches: appendix_sizes(harness, seed, batches))
    out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "universes.json")
    with open(out, "w") as f:
        json.dump(table, f, indent=1)
        f.write("\n")
    print("%d of %d seeds match seed %d's corpus" % (len(table["universes"]), len(rows), PAPER_SEED))


if __name__ == "__main__":
    main(sys.argv[1:])
