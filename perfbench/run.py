#!/usr/bin/env python3
"""Paper-scale benchmark of schevo.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. It builds the release `schevo` binary and
the harness in perfbench/harness (into $CARGO_TARGET_DIR, default
.bench_build), sets the workload up SETUPS times, measures it for
--seconds, checks the output of every op, and prints one JSON object as
the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 the same loop runs and is followed by one traced op,
which yields the per-layer metrics. Every run also writes a stamped
record (revision, host, build profile, seed, workload parameters, every
sample, every check) to .bench_work/results/.

Workloads (why each exists: perfbench/README.md):
  study-cold     one fresh `schevo study --scale 1 --workers 1` process per op
  append-resume  append 20 projects to the store, then resume the study
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchstats as bs  # noqa: E402

WORKLOADS = ("study-cold", "append-resume")
# Set-ups per run; setup_s is their median.
SETUPS = 3
WORK = ".bench_work"
PAPER_SEED = 2019
COMMITTED_STUDY = "study_results.json"
# Paper-scale universes whose corpus is the paper corpus's size (see
# make_universes.py): the benchmark seed picks one, so inputs vary with
# the seed while the amount of work does not.
UNIVERSES = os.path.join(HERE, "universes.json")
# A single subprocess (set-up step or measured loop) never legitimately
# takes this long; a hung one is killed so the run still ends.
STEP_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def sha1(data):
    return hashlib.sha1(data).hexdigest()


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def taxa_counts(study_bytes):
    return [t["count"] for t in json.loads(study_bytes)["taxa"]]


# ---------------------------------------------------------------- build


def build(env):
    """Build `schevo` and the harness; return their paths."""
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "schevo"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "harness", "Cargo.toml")],
    ):
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return (os.path.join(target, "release", "schevo"),
            os.path.join(target, "release", "perfbench-harness"))


class Ctx:
    def __init__(self, args, schevo, harness, env):
        self.args = args
        self.schevo = schevo
        self.harness_bin = harness
        self.env = env
        self.dir = os.path.join(WORK, args.workload)
        self.logs = os.path.join(self.dir, "logs")
        self.checks = []  # (name, passed) of every set-up check run
        self.universe = pick_universe(args.seed)
        self.seed = self.universe["seed"]
        self.batch = self.universe["appendix_batch"]

    def check(self, name, passed):
        self.checks.append({"check": name, "passed": bool(passed)})
        if not passed:
            log("check failed: " + name)

    def harness(self, *argv):
        """Run one harness command; return its JSON report."""
        err = open(os.path.join(self.logs, "harness-%s.err" % argv[0]), "ab")
        try:
            r = subprocess.run([self.harness_bin] + [str(a) for a in argv], env=self.env,
                               stdout=subprocess.PIPE, stderr=err, timeout=STEP_TIMEOUT_S)
        finally:
            err.close()
        if r.returncode != 0:
            raise BenchError("harness %s failed (exit %d); see %s" % (argv[0], r.returncode, self.logs))
        return json.loads(r.stdout.decode().strip().splitlines()[-1])

    def expected_taxa(self):
        return self.harness("expected", "--seed", self.seed)["taxa"]

    def check_reference(self, body, expected_taxa):
        """Set-up checks of a reference study: at the paper's seed it must
        equal the committed study; at any seed its taxa must be the
        planned ones."""
        if self.seed == PAPER_SEED:
            self.check("reference equals committed %s" % COMMITTED_STUDY,
                       os.path.isfile(COMMITTED_STUDY) and body == read_bytes(COMMITTED_STUDY))
        self.check("reference taxa equal Universe.expected.taxa", taxa_counts(body) == expected_taxa)


def spawn_wait(argv, env, stdout_path, stderr_path):
    """Run argv to completion; return (exit code, wall s, max RSS bytes)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss * 1024


# ----------------------------------------------------------- study-cold


def study_cold(ctx):
    seed, seconds = ctx.seed, ctx.args.seconds
    expected = ctx.expected_taxa()
    # Set-up is the in-process reference study, the same study each op
    # runs, so on this workload setup_s moves with op_ms by design.
    setup_s, ref = [], None
    for i in range(SETUPS):
        t0 = time.perf_counter()
        path = os.path.join(ctx.dir, "reference-%d.json" % i)
        ctx.harness("reference", "--seed", seed, "--out", path)
        body = read_bytes(path)
        setup_s.append(time.perf_counter() - t0)
        if ref is None:
            ref = body
        else:
            ctx.check("set-up %d reproduces set-up 0" % i, body == ref)
    ctx.check_reference(ref, expected)

    out_dir = os.path.join(ctx.dir, "op")
    argv = [ctx.schevo, "study", "--scale", "1", "--seed", str(seed), "--workers", "1", "--out", out_dir]
    ops, rss = [], []
    start = time.perf_counter()
    deadline = start + seconds
    while not ops or time.perf_counter() < deadline:
        shutil.rmtree(out_dir, ignore_errors=True)
        code, wall, maxrss = spawn_wait(argv, ctx.env, os.devnull, os.path.join(ctx.logs, "study.err"))
        result = os.path.join(out_dir, COMMITTED_STUDY)
        body = read_bytes(result) if code == 0 and os.path.isfile(result) else None
        ops.append({
            "op": "study",
            "ms": wall * 1e3,
            "status": "ok" if code == 0 else "exit %d" % code,
            "sha1": sha1(body) if body is not None else None,
            "taxa_ok": body is not None and taxa_counts(body) == expected,
        })
        rss.append(maxrss)
    return {
        "setup_s": setup_s,
        "ops": ops,
        "loop_s": time.perf_counter() - start,
        "reference_sha1": sha1(ref),
        "peak_rss_bytes": bs.median(rss),
        "params": {"scale": 1, "workers": 1, "setups": SETUPS},
    }


# -------------------------------------------------------- append-resume


def append_resume(ctx):
    setup_s, setup = [], None
    for i in range(SETUPS):
        d = os.path.join(ctx.dir, "setup-%d" % i)
        t0 = time.perf_counter()
        out = ctx.harness("append-setup", "--seed", ctx.seed, "--batch", ctx.batch, "--work", d)
        setup_s.append(time.perf_counter() - t0)
        if setup is None:
            first = out
        else:
            ctx.check("set-up %d reproduces set-up 0" % i, out == first)
            shutil.rmtree(setup, ignore_errors=True)
        setup = d
    r = ctx.harness("append-run", "--seed", ctx.seed, "--batch", ctx.batch,
                    "--seconds", ctx.args.seconds, "--work", setup)
    ops = r["ops"]
    for o in ops:
        # The resume must replay the primed journal and mine only the appendix.
        if o["status"] == "ok" and (o["replayed"], o["mined_fresh"]) != (
                first["primed_records"], r["appended_records"]):
            o["status"] = "resume replayed %s, mined %s" % (o["replayed"], o["mined_fresh"])
    return {
        "setup_s": setup_s,
        "ops": ops,
        "loop_s": r["loop_s"],
        "reference_sha1": first["reference_sha1"],
        "peak_rss_bytes": r["peak_rss_bytes"],
        "params": {"scale": 1, "workers": 1, "appendix": r["appended_records"],
                   "appendix_batch": ctx.batch, "setups": SETUPS,
                   "peak_rss_of_ops_only": r["peak_rss_of_ops_only"]},
    }


# ---------------------------------------------------------------- trace


def traced(ctx, untraced_op_s, reference_sha1):
    """One traced op: per-layer metrics plus the report table."""
    t = ctx.harness("trace", "--workload", ctx.args.workload, "--seed", ctx.seed, "--batch", ctx.batch,
                    "--work", os.path.join(ctx.dir, "trace"))
    rows, wall, unattributed = bs.layer_breakdown(t["spans"])
    values = {row["layer"] + "_s": row["seconds"] for row in rows}
    values.update(t["counts"])
    values["trace.unattributed_ratio"] = unattributed
    values["trace.overhead_ratio"] = wall / untraced_op_s - 1.0
    ctx.check("traced run's fixture study bytes equal the reference", t["fixture_study_sha1"] == reference_sha1)
    ctx.check("traced op's mining reproduces the fixture study's profiles", t["profiles_match"])
    return values, rows, wall


# Counts reported beside each layer in the trace report.
LAYER_COUNTS = {
    "corpus.store_read": ("corpus.store_bytes_read", "corpus.store_records"),
    "corpus.store_append": ("corpus.store_bytes_written",),
    "vcs.walk": ("vcs.walks", "vcs.versions"),
    "pipeline.mine": ("pipeline.mine_tasks", "pipeline.cache_hit_ratio"),
    "pipeline.journal_replay": ("pipeline.journal_records",),
    "pipeline.journal_append": ("pipeline.journal_commits",),
    "ddl.parse": ("ddl.parses", "ddl.bytes", "ddl.parse_errors"),
    "core.diff": ("core.diffs",),
    "report.json": ("report.json_bytes",),
    "serve.wire": ("serve.wire_bytes",),
}


def report_table(workload, rows, values, wall, untraced_op_s):
    lines = [
        "### %s" % workload,
        "",
        "Traced op wall %.4f s; untraced op median %.4f s; trace.overhead_ratio %.4f; "
        "trace.unattributed_ratio %.4f." % (wall, untraced_op_s, values["trace.overhead_ratio"],
                                            values["trace.unattributed_ratio"]),
        "",
        "| layer | span | seconds | share of op | replay s | counts |",
        "|---|---|---:|---:|---:|---|",
    ]
    for row in rows:
        counts = ", ".join("%s=%s" % (k, values[k]) for k in LAYER_COUNTS.get(row["layer"], ()))
        if row["kind"] == "replay":
            kind = "replay, inside %s" % row["inside"]
        elif row["kind"] == "op":
            kind = "op, self"
        else:
            kind = row["kind"]
        share = "%.1f%%" % (100 * row["share"]) if row["share"] is not None else ""
        replay = "%.4f" % row["replay_seconds"] if row["replay_seconds"] is not None else ""
        lines.append("| %s | %s | %.4f | %s | %s | %s |" % (row["layer"], kind, row["seconds"], share, replay, counts))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- main


def git_revision():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, timeout=10)
        return r.stdout.decode().strip() if r.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    """SHA-1 over the program's sources, which identifies the revision
    measured when the checkout is not a git repository."""
    h = hashlib.sha1()
    files = ["Cargo.toml", "Cargo.lock"]
    for top in ("src", "crates", "vendor"):
        for root, dirs, names in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "target")
            files += [os.path.join(root, n) for n in sorted(names)]
    for path in files:
        if os.path.isfile(path):
            h.update(path.encode() + b"\0" + read_bytes(path) + b"\0")
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def pick_universe(seed):
    """The universe of benchmark seed `seed`: itself when it is in the
    table, else the table entry at `seed` modulo the table size."""
    table = json.loads(read_bytes(UNIVERSES))
    rows = table["universes"]
    for row in rows:
        if row["seed"] == seed:
            return row
    return rows[seed % len(rows)]


def stamp(args, universe, params):
    return {
        "revision": git_revision(),
        "source_sha1": source_digest(),
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "build_profile": "release",
        "seed": args.seed,
        "universe": universe,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": params,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=PAPER_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(args):
    spec = json.loads(read_bytes("BENCHMARK.json"))
    env = dict(os.environ)
    schevo, harness = build(env)
    ctx = Ctx(args, schevo, harness, env)
    shutil.rmtree(ctx.dir, ignore_errors=True)
    os.makedirs(ctx.logs)
    try:
        m = {"study-cold": study_cold, "append-resume": append_resume}[args.workload](ctx)
        attempted, failed = bs.account(m["ops"], m["reference_sha1"])
        primary = "resume" if args.workload == "append-resume" else "study"
        good_ms = bs.ok_ms(m["ops"], m["reference_sha1"], primary)
        if not good_ms:
            raise BenchError("no op succeeded")
        op_ms = bs.median(good_ms)
        # ops_per_s is kept in the record only: in a closed loop it mirrors
        # op_ms, so it would gate the same thing twice.
        values = {
            "setup_s": bs.median(m["setup_s"]),
            "op_ms": op_ms,
            "ops_per_s": len(good_ms) / m["loop_s"],
            "peak_rss_mb": m["peak_rss_bytes"] / 1e6,
        }
        record = {
            "stamp": stamp(args, ctx.universe, m["params"]),
            "end_to_end": values,
            "failed_ratio": bs.failed_ratio(attempted, failed),
            "setup_samples_s": m["setup_s"],
            "op_samples_ms": [o["ms"] for o in m["ops"]],
            "failures": [o for o in m["ops"] if bs.op_failed(o, m["reference_sha1"])],
            "checks": ctx.checks,
        }
        if args.trace:
            values, rows, wall = traced(ctx, op_ms / 1e3, m["reference_sha1"])
            table = report_table(args.workload, rows, values, wall, op_ms / 1e3)
            record["trace_rows"] = rows
            record["trace_report"] = table
            print(table, file=sys.stderr)
        kind = "per_layer" if args.trace else "end_to_end"
        metrics = {}
        for metric in spec[kind]:
            if metric["name"] not in values:
                raise BenchError("metric %s was not measured" % metric["name"])
            metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
        correct = failed == 0 and all(c["passed"] for c in ctx.checks)
        result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        record["result"] = result
        results = os.path.join(WORK, "results")
        os.makedirs(results, exist_ok=True)
        path = os.path.join(results, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
        with open(path, "w") as f:
            json.dump(record, f, indent=1)
        log("wrote " + path)
        return result
    finally:
        # Keep the logs and the stamped record; drop stores and journals.
        for name in os.listdir(ctx.dir):
            if name != "logs":
                p = os.path.join(ctx.dir, name)
                shutil.rmtree(p, ignore_errors=True) if os.path.isdir(p) else os.remove(p)


def main(argv):
    # A terminated run still removes its stores.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates") and os.path.isfile("BENCHMARK.json")):
        log("run from the root of a schevo checkout (Cargo.toml, crates/ and BENCHMARK.json)")
        return 2
    try:
        result = run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        log("error: %s" % e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
