#!/usr/bin/env bash
# CI gate: build, the test suite of every workspace crate, lint wall, a
# black-box differential check that the work-stealing executor's output is
# bit-identical for every worker count, the chaos suite
# (fault injection + graceful degradation), the scale tier (sharded store
# byte-identity plus a 20x streaming run under a fixed peak-RSS ceiling),
# a paper-scale differential of incremental parsing, lexing and diffing,
# an append gate (an appended store mines the same at any worker count
# and scrubs clean; an append to a damaged store is refused),
# a same-host paired speed fence against the base revision whose runs
# also hold the paper-scale study to its committed bytes and an RSS
# ceiling, a serving-mode observability gate (request-log schema,
# request-id echo, `schevo top`, and an instrumented-vs-bare overhead
# fence), and a panic-site budget over the mining-path crates. Timings
# beyond these fences come from `python3 perfbench/run.py --workload W`.
set -euo pipefail
cd "$(dirname "$0")/.."

# Peak RSS in MB from a `--metrics-out` JSON export (empty if absent).
peak_rss_mb() {
  awk '/"process.peak_rss_bytes"/ { getline; gsub(/[ ,]/, ""); print int($0 / 1000000); exit }' "$1"
}

echo "==> build (release)"
cargo build --release --workspace

echo "==> tests (every workspace crate)"
cargo test -q --release --workspace

echo "==> clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> differential: study output across worker counts"
# The study report on stdout (exec stats go to stderr) must not depend on
# scheduling. Small scale keeps this gate quick; the in-tree differential
# harness (crates/pipeline/tests/differential_parallel.rs) covers the same
# invariant at the StudyResult level.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
baseline="$tmp/w1.txt"
cargo run -q --release --bin schevo -- study --seed 2019 --scale 20 \
  --workers 1 > "$baseline" 2>/dev/null
for variant in "--workers 1" "--workers 2" "--workers 8"; do
  out="$tmp/out.txt"
  # shellcheck disable=SC2086
  cargo run -q --release --bin schevo -- study --seed 2019 --scale 20 \
    $variant > "$out" 2>/dev/null
  if ! diff -q "$baseline" "$out" >/dev/null; then
    echo "DIFFERENTIAL FAILURE: study output changed under: $variant" >&2
    diff "$baseline" "$out" | head -40 >&2
    exit 1
  fi
  echo "    identical under: $variant"
done

echo "==> observability: traced run is byte-identical, artifacts validate"
# Full instrumentation (trace + metrics + manifest + progress) must not
# perturb a single stdout byte, and every emitted artifact must satisfy
# its schema (validators live in crates/obs; the env-var-gated test
# below replays them against the files this run just wrote).
obs_out="$tmp/obs-out.txt"
cargo run -q --release --bin schevo -- study --seed 2019 --scale 20 \
  --workers 1 --progress \
  --trace-out "$tmp/obs-trace.jsonl" \
  --metrics-out "$tmp/obs-metrics.json" \
  --manifest-out "$tmp/obs-manifest.json" > "$obs_out" 2>/dev/null
if ! diff -q "$baseline" "$obs_out" >/dev/null; then
  echo "OBSERVABILITY FAILURE: instrumentation changed the study output" >&2
  diff "$baseline" "$obs_out" | head -40 >&2
  exit 1
fi
echo "    instrumented stdout identical to baseline"
# With both a trace and a manifest set, the replay also derives each
# stage wall from the trace (generate = study.generate, funnel =
# source.read, mine = study.mine - source.read, stats = study.stats) and
# requires every manifest stage to equal it.
if ! SCHEVO_TRACE_FILE="$tmp/obs-trace.jsonl" \
  SCHEVO_METRICS_FILE="$tmp/obs-metrics.json" \
  SCHEVO_MANIFEST_FILE="$tmp/obs-manifest.json" \
  cargo test -q --release -p schevo-obs --test schema_validation; then
  echo "OBSERVABILITY FAILURE: an artifact breaks its schema or a manifest stage disagrees with the trace" >&2
  exit 1
fi
echo "    trace/metrics/manifest validate against their schemas"
echo "    every manifest stage wall equals its trace-derived wall"
cargo run -q --release --bin schevo -- study --seed 2019 --scale 20 \
  --workers 1 --metrics-out "$tmp/obs-metrics.prom" \
  --metrics-format prom >/dev/null 2>&1
if ! grep -q '^# TYPE mine_parse_misses counter$' "$tmp/obs-metrics.prom" \
  || ! grep -q 'le="+Inf"' "$tmp/obs-metrics.prom"; then
  echo "OBSERVABILITY FAILURE: prometheus export malformed" >&2
  exit 1
fi
echo "    prometheus export well-formed"

echo "==> chaos: graceful vs strict, black-box"
# A clean study must produce identical stdout with and without --strict
# (graceful mining is a bit-identical no-op on clean input).
strict_out="$tmp/strict.txt"
cargo run -q --release --bin schevo -- study --seed 2019 --scale 20 \
  --workers 1 --strict > "$strict_out" 2>/dev/null
if ! diff -q "$baseline" "$strict_out" >/dev/null; then
  echo "CHAOS FAILURE: --strict changed the clean study output" >&2
  exit 1
fi
echo "    clean study identical under --strict"
# An injected study must complete gracefully (exit 0) and must be
# scheduling-independent, quarantine table included...
f1="$tmp/fault-w1.txt"
f8="$tmp/fault-w8.txt"
cargo run -q --release --bin schevo -- study --seed 2019 --scale 10 \
  --inject-faults 30 --workers 1 > "$f1" 2>/dev/null
cargo run -q --release --bin schevo -- study --seed 2019 --scale 10 \
  --inject-faults 30 --workers 8 > "$f8" 2>/dev/null
if ! diff -q "$f1" "$f8" >/dev/null; then
  echo "CHAOS FAILURE: faulted study output depends on scheduling" >&2
  diff "$f1" "$f8" | head -40 >&2
  exit 1
fi
echo "    faulted study identical across worker counts"
# ...while the same corpus under --strict must refuse to run (exit 3).
if cargo run -q --release --bin schevo -- study --seed 2019 --scale 10 \
  --inject-faults 30 --strict >/dev/null 2>&1; then
  echo "CHAOS FAILURE: --strict accepted a fault-injected corpus" >&2
  exit 1
fi
echo "    faulted study refused under --strict"

echo "==> durability: kill -> resume, black-box"
# Crash the CLI with --crash-after (deterministic abort after the Nth
# durable journal commit), resume under a *different* worker count, and
# require study_results.json and stdout to be byte-identical to a clean
# run. tests/crash_resume.rs sweeps every crash point; this gate
# spot-checks one mid-run point end to end.
clean_dir="$tmp/durable-clean"
resume_dir="$tmp/durable-resumed"
journal="$tmp/durable.wal"
cargo run -q --release --bin schevo -- study --seed 2019 --scale 20 \
  --workers 2 --out "$clean_dir" > "$tmp/durable-clean.txt" 2>/dev/null
if cargo run -q --release --bin schevo -- study --seed 2019 --scale 20 \
  --workers 2 --journal "$journal" --crash-after 3 >/dev/null 2>&1; then
  echo "DURABILITY FAILURE: --crash-after 3 did not abort the run" >&2
  exit 1
fi
cargo run -q --release --bin schevo -- study --seed 2019 --scale 20 \
  --workers 1 --journal "$journal" --resume --out "$resume_dir" \
  > "$tmp/durable-resumed.txt" 2>/dev/null
if ! diff -q "$tmp/durable-clean.txt" "$tmp/durable-resumed.txt" >/dev/null; then
  echo "DURABILITY FAILURE: resumed stdout diverged from clean run" >&2
  diff "$tmp/durable-clean.txt" "$tmp/durable-resumed.txt" | head -40 >&2
  exit 1
fi
if ! diff -q "$clean_dir/study_results.json" "$resume_dir/study_results.json" >/dev/null; then
  echo "DURABILITY FAILURE: resumed study_results.json diverged from clean run" >&2
  exit 1
fi
echo "    kill at commit 3 -> resume reproduces the clean run byte-for-byte"

echo "==> io-chaos: seeded syscall faults, typed failures, no torn artifacts"
# Transient EIO at the journal sites must be absorbed by the retry loops
# without changing a single stdout byte; the fired-fault lines land on
# stderr only.
iochaos_out="$tmp/iochaos.txt"
cargo run -q --release --bin schevo -- study --seed 2019 --scale 20 \
  --workers 1 --journal "$tmp/iochaos.wal" \
  --io-faults "journal.fsync=eio@0.3;journal.append=eio@0.3" --io-fault-seed 42 \
  > "$iochaos_out" 2>"$tmp/iochaos.err"
if ! diff -q "$baseline" "$iochaos_out" >/dev/null; then
  echo "IO-CHAOS FAILURE: absorbed transient faults changed the study output" >&2
  diff "$baseline" "$iochaos_out" | head -40 >&2
  exit 1
fi
if ! grep -q '^fault-fired:' "$tmp/iochaos.err"; then
  echo "IO-CHAOS FAILURE: the seeded schedule fired no faults (gate is vacuous)" >&2
  exit 1
fi
echo "    transient EIO absorbed; stdout identical to baseline"
# Store reads run on a reader thread, but the store.read site is checked
# on the calling thread in merge order: a transient schedule over a small
# store is absorbed, and fires the same faults at 1 and 8 workers.
iochaos_store="$tmp/iochaos-store"
cargo run -q --release --bin schevo -- study --seed 2019 --scale 20 \
  --store-dir "$iochaos_store" >/dev/null 2>&1
for workers in 1 8; do
  cargo run -q --release --bin schevo -- study --seed 2019 --scale 20 \
    --workers "$workers" --store-dir "$iochaos_store" \
    --io-faults "store.read=eio@0.05" --io-fault-seed 42 \
    > "$tmp/iochaos-read-w$workers.txt" 2>"$tmp/iochaos-read-w$workers.err"
  if ! diff -q "$baseline" "$tmp/iochaos-read-w$workers.txt" >/dev/null; then
    echo "IO-CHAOS FAILURE: absorbed store.read faults changed the study output (workers $workers)" >&2
    diff "$baseline" "$tmp/iochaos-read-w$workers.txt" | head -40 >&2
    exit 1
  fi
  grep '^fault-fired:' "$tmp/iochaos-read-w$workers.err" > "$tmp/iochaos-read-w$workers.fired" || true
done
if [ ! -s "$tmp/iochaos-read-w1.fired" ] \
  || ! diff -q "$tmp/iochaos-read-w1.fired" "$tmp/iochaos-read-w8.fired" >/dev/null; then
  echo "IO-CHAOS FAILURE: store.read faults fired differently at 1 and 8 workers (or not at all)" >&2
  exit 1
fi
echo "    store.read EIO absorbed through the read-ahead; same faults at 1 and 8 workers"
# Persistent ENOSPC is a typed failure: exit 3, root cause on stderr.
set +e
cargo run -q --release --bin schevo -- study --seed 2019 --scale 20 \
  --journal "$tmp/iochaos-enospc.wal" \
  --io-faults "journal.append=enospc@3+" >/dev/null 2>"$tmp/iochaos-enospc.err"
enospc_code=$?
set -e
if [ "$enospc_code" -ne 3 ] || ! grep -q 'No space left' "$tmp/iochaos-enospc.err"; then
  echo "IO-CHAOS FAILURE: ENOSPC exit code $enospc_code (want 3) or cause missing" >&2
  exit 1
fi
echo "    persistent ENOSPC is a typed failure (exit 3)"
# A faulted artifact publication leaves no torn or temporary files: the
# destination either keeps its old bytes or does not exist.
report_dir="$tmp/iochaos-report"
set +e
cargo run -q --release --bin schevo -- study --seed 2019 --scale 20 \
  --out "$report_dir" --io-faults "report.rename=enospc@0+" >/dev/null 2>&1
rename_code=$?
set -e
if [ "$rename_code" -eq 0 ] || [ -e "$report_dir/study_results.json" ] \
  || ls "$report_dir"/.study_results.json.* >/dev/null 2>&1; then
  echo "IO-CHAOS FAILURE: faulted publication left a torn artifact (exit $rename_code)" >&2
  exit 1
fi
echo "    faulted publication leaves no torn artifacts"

echo "==> scrub: bit-flipped shard store is repaired in place"
scrub_store="$tmp/scrub-store"
cargo run -q --release --bin schevo -- study --seed 2019 --scale 80 \
  --store-dir "$scrub_store" >/dev/null 2>&1
# Flip one byte mid-shard, the way a bad sector would.
python3 - "$scrub_store/shard-000.pack" <<'EOF'
import os, sys
path = sys.argv[1]
offset = os.path.getsize(path) // 2
with open(path, "r+b") as f:
    f.seek(offset)
    b = f.read(1)
    f.seek(offset)
    f.write(bytes([b[0] ^ 0x01]))
EOF
scrub_log="$tmp/scrub.log"
cargo run -q --release --bin schevo -- scrub --store "$scrub_store" \
  > "$scrub_log" 2>&1
if ! grep -q 'byte(s) quarantined' "$scrub_log" \
  || ! ls "$scrub_store"/shard-000.pack.quarantine >/dev/null 2>&1; then
  echo "SCRUB FAILURE: corruption not quarantined:" >&2
  cat "$scrub_log" >&2
  exit 1
fi
# A second scrub finds a clean store (repair converged)...
cargo run -q --release --bin schevo -- scrub --store "$scrub_store" \
  > "$tmp/scrub2.log" 2>&1
if ! grep -q 'store is clean' "$tmp/scrub2.log"; then
  echo "SCRUB FAILURE: second scrub still finds damage:" >&2
  cat "$tmp/scrub2.log" >&2
  exit 1
fi
# ...and the clean subset mines deterministically: two runs over the
# scrubbed store are byte-identical and exit 0.
cargo run -q --release --bin schevo -- study --store-dir "$scrub_store" \
  --store-as-is --workers 1 > "$tmp/scrubbed-1.txt" 2>/dev/null
cargo run -q --release --bin schevo -- study --store-dir "$scrub_store" \
  --store-as-is --workers 8 > "$tmp/scrubbed-2.txt" 2>/dev/null
if ! diff -q "$tmp/scrubbed-1.txt" "$tmp/scrubbed-2.txt" >/dev/null; then
  echo "SCRUB FAILURE: scrubbed store mines nondeterministically" >&2
  exit 1
fi
echo "    bit-flip quarantined, repair converges, clean subset mines deterministically"

echo "==> append: an extended store mines deterministically, scrubs clean, and a damaged one is refused"
append_store="$tmp/append-store"
cargo run -q --release --bin schevo -- study --seed 2019 --scale 80 \
  --store-dir "$append_store" >/dev/null 2>&1
cp -r "$append_store" "$tmp/append-flipped"
if ! cargo run -q --release --bin schevo -- append --store "$append_store" \
  --count 6 --corrupt 1 > "$tmp/append.log" 2>&1; then
  echo "APPEND FAILURE: append to a clean store failed:" >&2
  cat "$tmp/append.log" >&2
  exit 1
fi
cargo run -q --release --bin schevo -- study --store-dir "$append_store" \
  --store-as-is --workers 1 > "$tmp/appended-1.txt" 2>/dev/null
cargo run -q --release --bin schevo -- study --store-dir "$append_store" \
  --store-as-is --workers 8 > "$tmp/appended-8.txt" 2>/dev/null
if ! diff -q "$tmp/appended-1.txt" "$tmp/appended-8.txt" >/dev/null; then
  echo "APPEND FAILURE: appended store mines differently at 1 and 8 workers" >&2
  diff "$tmp/appended-1.txt" "$tmp/appended-8.txt" | head -40 >&2
  exit 1
fi
# Scrub recomputes the corpus digest from every record: a clean report
# means the append published the digest and counts the store holds.
cargo run -q --release --bin schevo -- scrub --store "$append_store" \
  > "$tmp/append-scrub.log" 2>&1
if ! grep -q 'store is clean' "$tmp/append-scrub.log"; then
  echo "APPEND FAILURE: scrub finds the appended store damaged or its manifest stale:" >&2
  cat "$tmp/append-scrub.log" >&2
  exit 1
fi
# Appending to a bit-flipped store fails closed (exit 1) and leaves its
# manifest as it was.
python3 - "$tmp/append-flipped/shard-000.pack" <<'EOF'
import os, sys
path = sys.argv[1]
offset = os.path.getsize(path) // 2
with open(path, "r+b") as f:
    f.seek(offset)
    b = f.read(1)
    f.seek(offset)
    f.write(bytes([b[0] ^ 0x01]))
EOF
cp "$tmp/append-flipped/MANIFEST.json" "$tmp/append-flipped.manifest"
set +e
cargo run -q --release --bin schevo -- append --store "$tmp/append-flipped" \
  --count 6 >/dev/null 2>&1
append_code=$?
set -e
if [ "$append_code" -ne 1 ] \
  || ! cmp -s "$tmp/append-flipped.manifest" "$tmp/append-flipped/MANIFEST.json"; then
  echo "APPEND FAILURE: append to a bit-flipped store exited $append_code (want 1) or changed its manifest" >&2
  exit 1
fi
echo "    appended store identical at 1 and 8 workers, scrubs clean; a flipped store is refused untouched"

echo "==> scale tier: sharded store byte-identity + streaming RSS ceiling"
# In-memory vs sharded: the same study streamed out of an on-disk shard
# store must not change a single stdout byte.
store_small="$tmp/store-small"
stream_out="$tmp/stream.txt"
cargo run -q --release --bin schevo -- study --seed 2019 --scale 20 \
  --workers 1 --store-dir "$store_small" --shards 4 \
  > "$stream_out" 2>/dev/null
if ! diff -q "$baseline" "$stream_out" >/dev/null; then
  echo "SCALE FAILURE: sharded backend changed the study output" >&2
  diff "$baseline" "$stream_out" | head -40 >&2
  exit 1
fi
echo "    sharded backend identical to in-memory baseline"
# The bounded-memory proof: a 20x paper-scale corpus (~2.7M records,
# ~870 MB of shards) generated straight into the store and mined end to
# end must stay under a fixed peak-RSS ceiling. Measured: ~138 MB. The
# ceiling leaves allocator headroom while sitting far below the ~6.5 GB
# a resident 20x universe costs — any regression back toward residency
# (or unbounded reassembly buffering) blows through it immediately.
RSS_CEILING_MB=256
store_big="$tmp/store-20x"
cargo run -q --release --bin schevo -- study --seed 2019 --scale-factor 20 \
  --workers 1 --store-dir "$store_big" --shards 8 \
  --metrics-out "$tmp/scale-metrics.json" >/dev/null 2>&1
rss_mb=$(peak_rss_mb "$tmp/scale-metrics.json")
if [ -z "$rss_mb" ]; then
  echo "SCALE FAILURE: peak-RSS gauge missing from metrics export" >&2
  exit 1
fi
rm -rf "$store_big"
if [ "$rss_mb" -gt "$RSS_CEILING_MB" ]; then
  echo "SCALE FAILURE: 20x streaming run peaked at ${rss_mb} MB (ceiling ${RSS_CEILING_MB} MB)" >&2
  exit 1
fi
echo "    20x streaming run peaked at ${rss_mb} MB (ceiling ${RSS_CEILING_MB} MB)"

echo "==> paper-scale differential: incremental parse, lex and diff"
# On every candidate history of the paper corpus, HistoryParser must equal
# parse_schema, lexing each version as an edit must give tokenize's tokens,
# and diff over shared tables must equal diff over deep copies. The example
# panics on the first divergence, before it times anything (one round).
cargo run -q --release --example history_parse -- 1

echo "==> paired fence: this tree vs its base revision on the same host"
# Speed is only ever compared on the running host. The base revision's
# `schevo` is built from `git archive` and run against this tree's in 10
# interleaved pairs, alternating which side goes first, so drift on the
# host lands on both sides. The base is HEAD when tracked files differ
# from it, else HEAD~1. The fence fails when the median per-pair
# change/base ratio exceeds 1.10 for the process wall time, the generate
# stage, the mine stage or the summed per-task parse time. The study
# streams its corpus, so generate is the producer thread's summed
# generation time, which runs while the caller mines: its ratio checks
# that the second thread does not slow generation down. On an Intel
# Xeon with 2 shared vCPUs, 10 trials with both sides built from the same
# source kept the wall, mine and parse medians within -4.0% to +9.2%
# (min-of-5 process walls swing -13% to +11% there), 3 such trials kept
# the generate stage within -4.8% to +7.3%, and a revision whose parsing
# is ~2x slower tripped wall, mine and parse in 3 of 3 trials.
# Each change-side run is also the paper-scale gate: it must reproduce
# the committed study_results.json byte for byte under a 64 MB peak-RSS
# ceiling (measured ~28 MB with the corpus streamed from a producer
# thread; ~102 MB when the whole universe was resident, ~310 MB when every
# parsed version also owned its tables instead of sharing unchanged ones).
if git diff --quiet HEAD --; then base_rev=HEAD~1; else base_rev=HEAD; fi
if ! base_sha=$(git rev-parse --verify -q "$base_rev^{commit}"); then
  echo "PAIRED FENCE FAILURE: cannot resolve base revision $base_rev" >&2
  exit 1
fi
mkdir -p "$tmp/base-src"
git archive "$base_sha" | tar -x -C "$tmp/base-src"
(cd "$tmp/base-src" && CARGO_TARGET_DIR="$tmp/base-target" \
  cargo build -q --release --bin schevo)
base_bin="$tmp/base-target/release/schevo"
change_bin="${CARGO_TARGET_DIR:-target}/release/schevo"
echo "    base $base_rev ($(git rev-parse --short "$base_sha")) built"
PAIRS=10
PAIRED_BOUND=1.10
PAPER_RSS_CEILING_MB=64
paired_run() {
  # $1 = side, $2 = binary, $3 = pair index. Writes the run's wall time
  # in nanoseconds next to its metrics export.
  local run="$tmp/paired-$1-$3"
  local t0
  t0=$(date +%s%N)
  if ! "$2" study --scale 1 --seed 2019 --workers 1 --out "$run" \
    --metrics-out "$run.metrics.json" >/dev/null 2>&1; then
    echo "PAIRED FENCE FAILURE: $1 study run $3 failed" >&2
    exit 1
  fi
  echo $(( $(date +%s%N) - t0 )) > "$run.wall"
}
for pair in $(seq 1 "$PAIRS"); do
  if [ $((pair % 2)) -eq 1 ]; then
    paired_run base "$base_bin" "$pair"
    paired_run change "$change_bin" "$pair"
  else
    paired_run change "$change_bin" "$pair"
    paired_run base "$base_bin" "$pair"
  fi
  if ! cmp -s study_results.json "$tmp/paired-change-$pair/study_results.json"; then
    echo "PAPER FAILURE: study_results.json differs from the committed file (pair $pair)" >&2
    exit 1
  fi
  paper_mb=$(peak_rss_mb "$tmp/paired-change-$pair.metrics.json")
  if [ -z "$paper_mb" ] || [ "$paper_mb" -gt "$PAPER_RSS_CEILING_MB" ]; then
    echo "PAPER FAILURE: paper-scale study peaked at ${paper_mb:-?} MB (ceiling ${PAPER_RSS_CEILING_MB} MB)" >&2
    exit 1
  fi
done
echo "    paper-scale study byte-identical in $PAIRS of $PAIRS runs, last peak ${paper_mb} MB (ceiling ${PAPER_RSS_CEILING_MB} MB)"
python3 - "$tmp" "$PAIRS" "$PAIRED_BOUND" <<'PY'
import json, statistics, sys

tmp, pairs, bound = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])

def values(side, pair):
    run = f"{tmp}/paired-{side}-{pair}"
    metrics = json.load(open(f"{run}.metrics.json"))
    gauges = dict(metrics["gauges"])
    histograms = dict(metrics["histograms"])
    return {
        "process wall": int(open(f"{run}.wall").read()),
        "study.stage.generate.nanos": gauges.get("study.stage.generate.nanos"),
        "study.stage.mine.nanos": gauges.get("study.stage.mine.nanos"),
        "mine.task.parse_nanos sum": histograms.get("mine.task.parse_nanos", {}).get("sum"),
    }

runs = [(values("base", p), values("change", p)) for p in range(1, pairs + 1)]
failed = False
for name in runs[0][0]:
    if any(not b[name] or c[name] is None for b, c in runs):
        print(f"PAIRED FENCE FAILURE: {name} missing from a run", file=sys.stderr)
        sys.exit(1)
    ratio = statistics.median(c[name] / b[name] for b, c in runs)
    verdict = "ok" if ratio <= bound else "REGRESSION"
    failed |= ratio > bound
    print(f"    {name}: median change/base {ratio:.3f} (fence: {bound:.2f}) {verdict}")
# Informational, never a gate: the caller's wait on the producer (the
# funnel stage), which a faster producer shrinks toward zero.
def funnel(side, pair):
    gauges = json.load(open(f"{tmp}/paired-{side}-{pair}.metrics.json"))["gauges"]
    return dict(gauges).get("study.stage.funnel.nanos")

waits = [(funnel("base", p), funnel("change", p)) for p in range(1, pairs + 1)]
if all(b and c is not None for b, c in waits):
    ratio = statistics.median(c / b for b, c in waits)
    print(f"    study.stage.funnel.nanos: median change/base {ratio:.3f} (informational)")
if failed:
    print(f"PERF REGRESSION: a median change/base ratio exceeds {bound:.2f}", file=sys.stderr)
    sys.exit(1)
PY

echo "==> serve: daemon smoke gate (2-client differential + metrics)"
# The resident server must hand concurrent clients the exact bytes the
# batch CLI writes for the same store, and expose Prometheus metrics.
# Smoke scale (1/80) keeps this whole gate well under 15 seconds.
serve_store="$tmp/serve-store"
serve_batch="$tmp/serve-batch"
cargo run -q --release --bin schevo -- study --seed 2019 --scale 80 \
  --store-dir "$serve_store" --out "$serve_batch" >/dev/null 2>&1
serve_log="$tmp/serve.log"
cargo run -q --release --bin schevo -- serve --store-dir "$serve_store" \
  > "$serve_log" 2>/dev/null &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's/^serve: listening on //p' "$serve_log" | head -1)
  [ -n "$addr" ] && break
  sleep 0.1
done
if [ -z "$addr" ]; then
  echo "SERVE FAILURE: daemon never announced its address" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
cargo run -q --release --bin schevo -- serve --connect "$addr" --op study \
  --id ci-1 --out "$tmp/served-1.json" >/dev/null 2>&1 &
client1=$!
cargo run -q --release --bin schevo -- serve --connect "$addr" --op study \
  --id ci-2 --out "$tmp/served-2.json" >/dev/null 2>&1 &
client2=$!
wait "$client1" "$client2"
for n in 1 2; do
  if ! cmp -s "$serve_batch/study_results.json" "$tmp/served-$n.json"; then
    echo "SERVE FAILURE: served study $n diverged from the batch CLI" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
  fi
done
echo "    2 concurrent served studies byte-identical to batch CLI"
cargo run -q --release --bin schevo -- serve --connect "$addr" --op metrics \
  2>/dev/null > "$tmp/serve-metrics.prom"
if ! grep -q '^# TYPE serve_requests counter$' "$tmp/serve-metrics.prom" \
  || ! grep -q '^serve_studies_ok 2$' "$tmp/serve-metrics.prom"; then
  echo "SERVE FAILURE: prometheus metrics response malformed" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
echo "    serve metrics exposition well-formed"
cargo run -q --release --bin schevo -- serve --connect "$addr" --op shutdown \
  >/dev/null 2>&1
wait "$serve_pid" 2>/dev/null || true
echo "    daemon shut down cleanly"

echo "==> serve: drain gate (SIGTERM → metrics flush → restart → identical bytes)"
# SIGTERM drains instead of killing: in-flight work finishes, the final
# metrics snapshot lands on disk, and the process exits 0. A client
# retrying through the restart gap gets byte-identical study bytes.
drain_sock="$tmp/drain.sock"
drain_log="$tmp/drain.log"
drain_metrics="$tmp/drain-final.prom"
cargo run -q --release --bin schevo -- serve --store-dir "$serve_store" \
  --socket "$drain_sock" --final-metrics "$drain_metrics" \
  > "$drain_log" 2>&1 &
drain_pid=$!
for _ in $(seq 1 100); do
  [ -S "$drain_sock" ] && break
  sleep 0.1
done
cargo run -q --release --bin schevo -- serve --connect "unix:$drain_sock" \
  --op study --id drain-1 --out "$tmp/drain-before.json" >/dev/null 2>&1
kill -TERM "$drain_pid"
if ! wait "$drain_pid"; then
  echo "DRAIN FAILURE: SIGTERM did not produce a clean exit" >&2
  exit 1
fi
if ! grep -q 'drained; exiting' "$drain_log"; then
  echo "DRAIN FAILURE: daemon did not report a drain exit:" >&2
  cat "$drain_log" >&2
  exit 1
fi
if ! grep -q '^# TYPE serve_requests counter$' "$drain_metrics"; then
  echo "DRAIN FAILURE: final metrics snapshot missing or malformed" >&2
  exit 1
fi
echo "    SIGTERM drained cleanly; final metrics flushed"
# Restart on the same socket while the client is already retrying: the
# reconnect-per-attempt loop rides out the refused connections.
cargo run -q --release --bin schevo -- serve --store-dir "$serve_store" \
  --socket "$drain_sock" > "$drain_log" 2>&1 &
drain_pid=$!
cargo run -q --release --bin schevo -- serve --connect "unix:$drain_sock" \
  --op study --id drain-2 --retries 20 --timeout-ms 10000 \
  --out "$tmp/drain-after.json" >/dev/null 2>&1
if ! cmp -s "$tmp/drain-before.json" "$tmp/drain-after.json" \
  || ! cmp -s "$serve_batch/study_results.json" "$tmp/drain-after.json"; then
  echo "DRAIN FAILURE: study bytes changed across the drain/restart cycle" >&2
  kill "$drain_pid" 2>/dev/null || true
  exit 1
fi
cargo run -q --release --bin schevo -- serve --connect "unix:$drain_sock" \
  --op shutdown >/dev/null 2>&1
wait "$drain_pid" 2>/dev/null || true
echo "    retry through restart returned byte-identical study bytes"

echo "==> serve: observability gate (request log, id echo, top, overhead fence)"
# Request-scoped observability against a real daemon: a supplied request
# id must echo through a full round-trip (the client exits nonzero when
# it does not), every request must land a schema-valid request-log line,
# the per-request trace must validate, and `schevo top --once` must
# render a live frame from one status+metrics poll.
obs_dir="$tmp/serve-obs"
mkdir -p "$obs_dir/traces"
obs_serve_log="$tmp/serve-obs-daemon.log"
cargo run -q --release --bin schevo -- serve --store-dir "$serve_store" \
  --request-log "$obs_dir/requests.jsonl" --trace-dir "$obs_dir/traces" \
  --slow-ms 0 --slow-log "$obs_dir/slow.jsonl" \
  > "$obs_serve_log" 2>/dev/null &
obs_pid=$!
addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's/^serve: listening on //p' "$obs_serve_log" | head -1)
  [ -n "$addr" ] && break
  sleep 0.1
done
if [ -z "$addr" ]; then
  echo "OBS-SERVE FAILURE: instrumented daemon never announced its address" >&2
  kill "$obs_pid" 2>/dev/null || true
  exit 1
fi
if ! cargo run -q --release --bin schevo -- serve --connect "$addr" \
  --op study --id ci-obs-echo --out "$tmp/obs-served.json" >/dev/null 2>&1; then
  echo "OBS-SERVE FAILURE: request-id echo round-trip failed" >&2
  kill "$obs_pid" 2>/dev/null || true
  exit 1
fi
if ! cmp -s "$serve_batch/study_results.json" "$tmp/obs-served.json"; then
  echo "OBS-SERVE FAILURE: instrumented study diverged from the batch CLI" >&2
  kill "$obs_pid" 2>/dev/null || true
  exit 1
fi
echo "    supplied request id echoed; instrumented study bytes identical"
top_out="$tmp/top.txt"
if ! cargo run -q --release --bin schevo -- top --connect "$addr" --once \
  > "$top_out" 2>/dev/null \
  || ! grep -q '^schevo top' "$top_out" \
  || ! grep -q '^  1m ' "$top_out" || ! grep -q '^  5m ' "$top_out"; then
  echo "OBS-SERVE FAILURE: schevo top --once rendered no RED frame:" >&2
  cat "$top_out" >&2
  kill "$obs_pid" 2>/dev/null || true
  exit 1
fi
echo "    schevo top --once rendered in-flight + 1m/5m RED windows"
cargo run -q --release --bin schevo -- serve --connect "$addr" --op shutdown \
  >/dev/null 2>&1
wait "$obs_pid" 2>/dev/null || true
# The request log and the per-request trace replay through the schema
# validators (same env-var gate the batch artifacts use).
SCHEVO_REQUEST_LOG_FILE="$obs_dir/requests.jsonl" \
SCHEVO_TRACE_FILE="$obs_dir/traces/ci-obs-echo.trace.jsonl" \
  cargo test -q --release -p schevo-obs --test schema_validation
if [ "$(grep -c 'ci-obs-echo' "$obs_dir/requests.jsonl")" -ne 1 ]; then
  echo "OBS-SERVE FAILURE: study not accounted exactly once in the request log" >&2
  cat "$obs_dir/requests.jsonl" >&2
  exit 1
fi
if [ ! -s "$obs_dir/slow.jsonl" ]; then
  echo "OBS-SERVE FAILURE: --slow-ms 0 logged no slow-study span tree" >&2
  exit 1
fi
echo "    request log + per-request trace schema-valid; slow log populated"
# Serving-mode overhead fence: the min warm-request wall on a fully
# instrumented daemon must stay within 5% of a bare one. Min, not
# median: background load only inflates a timing, so the minimum
# approximates quiet-box performance on a busy runner. Bare and
# instrumented daemons are spawned in alternation (two rounds each) so
# slow machine-level drift cancels instead of landing on one side.
instr_dir="$tmp/serve-instr"
mkdir -p "$instr_dir/traces"
serve_repeat_min() {
  # $1 = tag; rest = daemon flags. Prints the min wall of 20 warm
  # same-connection repeats against a freshly spawned daemon.
  local tag="$1"
  shift
  local log="$tmp/fence-$tag.log"
  cargo run -q --release --bin schevo -- serve --store-dir "$serve_store" \
    "$@" > "$log" 2>/dev/null &
  local pid=$!
  local a=""
  for _ in $(seq 1 100); do
    a=$(sed -n 's/^serve: listening on //p' "$log" | head -1)
    [ -n "$a" ] && break
    sleep 0.1
  done
  if [ -z "$a" ]; then
    kill "$pid" 2>/dev/null || true
    return 1
  fi
  cargo run -q --release --bin schevo -- serve --connect "$a" --op study \
    --repeat 20 > "$tmp/fence-$tag.txt" 2>/dev/null
  sed -n 's/^repeat: min_wall_us=//p' "$tmp/fence-$tag.txt"
  cargo run -q --release --bin schevo -- serve --connect "$a" --op shutdown \
    >/dev/null 2>&1
  wait "$pid" 2>/dev/null || true
}
bare_min=""
instr_min=""
for round in a b; do
  b=$(serve_repeat_min "bare-$round" --profile-interval-ms 0)
  i=$(serve_repeat_min "instr-$round" \
    --request-log "$instr_dir/requests.jsonl" --trace-dir "$instr_dir/traces" \
    --slow-ms 1000 --slow-log "$instr_dir/slow.jsonl" --profile-interval-ms 10)
  if [ -z "$b" ] || [ -z "$i" ]; then
    echo "OBS-SERVE FAILURE: fence round $round produced no min_wall_us" >&2
    exit 1
  fi
  [ -z "$bare_min" ] || [ "$b" -lt "$bare_min" ] && bare_min=$b
  [ -z "$instr_min" ] || [ "$i" -lt "$instr_min" ] && instr_min=$i
done
# The instrumented daemons exit through `--op shutdown` right after their
# last study, so their sinks must be complete: 2 rounds x 20 studies in
# the request log, and one valid trace per minted id (round b rewrites
# round a's `req-1`...`req-20`).
ok_studies=$(python3 -c 'import json, sys
rows = [json.loads(l) for l in open(sys.argv[1])]
print(sum(r["op"] == "study" and r["status"] == "ok" for r in rows))' \
  "$instr_dir/requests.jsonl")
if [ "$ok_studies" -ne 40 ]; then
  echo "OBS-SERVE FAILURE: fence request log holds $ok_studies ok studies, want 40" >&2
  exit 1
fi
if [ "$(ls "$instr_dir/traces" | wc -l)" -ne 20 ]; then
  echo "OBS-SERVE FAILURE: fence trace dir does not hold exactly req-1...req-20:" >&2
  ls "$instr_dir/traces" >&2
  exit 1
fi
for n in $(seq 1 20); do
  if ! SCHEVO_TRACE_FILE="$instr_dir/traces/req-$n.trace.jsonl" \
    cargo test -q --release -p schevo-obs --test schema_validation >/dev/null 2>&1; then
    echo "OBS-SERVE FAILURE: fence trace req-$n missing or invalid" >&2
    exit 1
  fi
done
echo "    fence daemons' sinks complete: 40 ok studies logged, traces req-1...req-20 valid"
if awk -v i="$instr_min" -v b="$bare_min" 'BEGIN { exit !(i > b * 1.05) }'; then
  echo "OBS-SERVE FAILURE: instrumented min ${instr_min}us vs bare ${bare_min}us (fence: +5%)" >&2
  exit 1
fi
echo "    serving-mode overhead: instrumented min ${instr_min}us vs bare ${bare_min}us (fence: +5%)"

echo "==> panic-site budget (ddl, vcs, pipeline, obs, serve, atomic writer)"
# Graceful degradation means the mining path must not grow new panic
# sites: count unwrap/expect/panic!/unreachable! in non-test code. The
# remaining budget covers documented invariants only (the statistical
# battery's preconditions). Lower it when sites are removed; never raise
# it without a written justification in the PR.
PANIC_BUDGET=8
count=0
while IFS= read -r f; do
  n=$(awk '
    /#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*(\/\/|\/\*)/ { next }
    /unwrap\(|expect\(|panic!|unreachable!|todo!|unimplemented!/ { n++ }
    END { print n + 0 }
  ' "$f")
  count=$((count + n))
done < <(find crates/ddl/src crates/vcs/src crates/pipeline/src crates/obs/src crates/serve/src crates/report/src/atomic.rs -name '*.rs')
if [ "$count" -gt "$PANIC_BUDGET" ]; then
  echo "PANIC BUDGET EXCEEDED: $count sites (budget $PANIC_BUDGET)" >&2
  exit 1
fi
echo "    $count panic site(s) within budget ($PANIC_BUDGET)"

echo "CI OK"
