"""The benchmark's arithmetic: medians, failure accounting, and span
self time. Kept apart from run.py so that test_benchstats.py can check
it without building anything."""


def median(values):
    """Median of a non-empty sequence (mean of the middle two when even)."""
    v = sorted(values)
    if not v:
        raise ValueError("median of no values")
    mid = len(v) // 2
    return v[mid] if len(v) % 2 else (v[mid - 1] + v[mid]) / 2.0


def op_failed(op, reference_sha1):
    """Whether one op counts as failed: a non-``ok`` status (a non-zero
    exit, ``busy``, ``draining``, ``error``) or output that does not
    match the reference bytes."""
    if op.get("status") != "ok":
        return True
    if op.get("sha1") != reference_sha1:
        return True
    return op.get("taxa_ok") is False


def account(ops, reference_sha1):
    """``(attempted, failed)`` over ops checked against one reference."""
    failed = sum(1 for op in ops if op_failed(op, reference_sha1))
    return len(ops), failed


def ok_ms(ops, reference_sha1, kind):
    """Latencies (ms) of the ops of one kind that did not fail."""
    return [op["ms"] for op in ops if op["op"] == kind and not op_failed(op, reference_sha1)]


def failed_ratio(attempted, failed):
    return failed / attempted if attempted else 1.0


# Span kinds that are part of the traced op (see harness/src/trace.rs).
OP_KINDS = ("op", "stage")
# Which span gives a layer's metric when it has several, best first: a
# figure measured in the op, then a replay of hidden work, then a probe.
KIND_RANK = {"op": 0, "stage": 0, "replay": 1, "probe": 2}


def self_times(spans):
    """Self time in seconds of every span of the op, keyed by span id.

    A span's self time is its duration minus the time its children in
    the op cover: ``op`` children the union of their intervals inside
    the parent, ``stage`` children (stage timers taken inside the
    parent) their durations. Replays ran after the op and cover nothing.
    The covered time never exceeds the parent's duration.
    """
    children = {}
    for s in spans:
        if s["parent"] is not None and s["kind"] in OP_KINDS:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        if s["kind"] not in OP_KINDS:
            continue
        dur = s["dur_ns"]
        intervals, staged = [], 0
        for c in children.get(s["id"], []):
            if c["kind"] == "stage":
                staged += c["dur_ns"]
            else:
                lo, hi = max(s["start_ns"], c["start_ns"]), min(s["end_ns"], c["end_ns"])
                if hi > lo:
                    intervals.append((lo, hi))
        covered = _union_length(intervals) + staged
        out[s["id"]] = (dur - min(dur, covered)) / 1e9
    return out


def _union_length(intervals):
    total, cur_lo, cur_hi = 0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def op_root(spans):
    """The root ``op`` span of a traced run."""
    roots = [s for s in spans if s["name"] == "op" and s["parent"] is None]
    if len(roots) != 1:
        raise ValueError("traced run has %d op roots" % len(roots))
    return roots[0]


def layer_breakdown(spans):
    """One row per layer of a traced op, and the op's unattributed share.

    Returns ``(rows, op_wall_s, unattributed_ratio)``. Each row is
    ``{"layer", "kind", "seconds", "share", "replay_seconds", "inside"}``:
    a layer in the op (``op`` or ``stage``) reports its self time and its
    share of the op wall, and ``replay_seconds`` when a replay of it ran
    beside; a layer known only by its replay reports the replay's
    duration and ``inside``, the span that hides it and whose self time
    still holds it; a probe reports its duration. Only op layers have a
    share, and ``unattributed_ratio`` is 1 - their sum ÷ op wall.
    """
    root = op_root(spans)
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    wall = root["dur_ns"] / 1e9
    rows = {}
    for s in spans:
        if s is root:
            continue
        in_op = s["kind"] in OP_KINDS
        row = {
            "layer": s["name"],
            "kind": s["kind"],
            "seconds": selfs[s["id"]] if in_op else s["dur_ns"] / 1e9,
            "share": selfs[s["id"]] / wall if in_op and wall > 0 else None,
            "replay_seconds": None,
            "inside": by_id[s["parent"]]["name"] if s["kind"] == "replay" else None,
        }
        old = rows.get(s["name"])
        if old is not None and KIND_RANK[old["kind"]] <= KIND_RANK[row["kind"]]:
            row, old = old, row
        if old is not None and old["kind"] == "replay" and row["kind"] in OP_KINDS:
            row["replay_seconds"] = old["seconds"]
        rows[s["name"]] = row
    attributed = sum(t for i, t in selfs.items() if i != root["id"])
    unattributed = 1.0 - attributed / wall if wall > 0 else 0.0
    return list(rows.values()), wall, unattributed
