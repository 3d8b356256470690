"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import hashlib
import statistics
import unittest

import benchstats as bs

REF = "a" * 40


def sha1_hex(data):
    return hashlib.sha1(data).hexdigest()


def op(status="ok", sha1=REF, kind="study", ms=1.0, **extra):
    d = {"op": kind, "status": status, "sha1": sha1, "ms": ms}
    d.update(extra)
    return d


class Median(unittest.TestCase):
    def test_odd_even_and_unsorted(self):
        self.assertEqual(bs.median([3.0]), 3.0)
        self.assertEqual(bs.median([5, 1, 3]), 3)
        self.assertEqual(bs.median([4, 1, 3, 2]), 2.5)

    def test_agrees_with_statistics(self):
        for values in ([2.0, 9.5, 1.25, 7.0, 7.0], [0.1 * i for i in range(1, 12)]):
            self.assertEqual(bs.median(values), statistics.median(values))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            bs.median([])


class FailedRatio(unittest.TestCase):
    def test_clean_run(self):
        ops = [op(), op(kind="result"), op()]
        self.assertEqual(bs.account(ops, REF), (3, 0))
        self.assertEqual(bs.failed_ratio(3, 0), 0.0)

    def test_forced_busy_counts_once(self):
        ops = [op(), op(status="busy", sha1=None), op()]
        self.assertEqual(bs.account(ops, REF), (3, 1))
        self.assertAlmostEqual(bs.failed_ratio(*bs.account(ops, REF)), 1 / 3)

    def test_flipped_output_byte_counts_once(self):
        body = bytearray(b'{"taxa": []}')
        good = sha1_hex(bytes(body))
        body[3] ^= 0x01
        ops = [op(sha1=good), op(sha1=sha1_hex(bytes(body))), op(sha1=good)]
        self.assertEqual(bs.account(ops, good), (3, 1))

    def test_every_non_ok_status_fails(self):
        for status in ("draining", "error: closed", "exit 3"):
            self.assertTrue(bs.op_failed(op(status=status), REF), status)

    def test_taxa_mismatch_fails_even_with_matching_bytes(self):
        self.assertTrue(bs.op_failed(op(taxa_ok=False), REF))
        self.assertFalse(bs.op_failed(op(taxa_ok=True), REF))

    def test_failed_ops_are_not_timed(self):
        ops = [op(ms=5.0), op(status="busy", ms=0.1), op(ms=7.0), op(kind="result", ms=1.0)]
        self.assertEqual(bs.ok_ms(ops, REF, "study"), [5.0, 7.0])

    def test_nothing_attempted_is_all_failed(self):
        self.assertEqual(bs.failed_ratio(0, 0), 1.0)


def span(i, name, parent, start, end, kind=None):
    if kind is None:
        kind = "op" if parent is not None or name == "op" else "probe"
    return {"id": i, "name": name, "parent": parent, "kind": kind,
            "start_ns": start, "end_ns": end, "dur_ns": end - start}


def stage(i, name, parent, dur):
    return {"id": i, "name": name, "parent": parent, "kind": "stage",
            "start_ns": None, "end_ns": None, "dur_ns": dur}


class SelfTime(unittest.TestCase):
    def spans(self):
        return [
            span(0, "op", None, 0, 1000),
            span(1, "pipeline.funnel", 0, 0, 300),
            span(2, "pipeline.mine", 0, 300, 900),
            # The engine's stage timers, taken inside mine.
            stage(3, "ddl.parse", 2, 350),
            stage(4, "core.diff", 2, 50),
            # Replays ran after the op; they take nothing off their parent.
            span(5, "ddl.parse", 2, 2000, 2400, kind="replay"),
            span(6, "vcs.walk", 1, 2400, 2500, kind="replay"),
            span(7, "serve.wire", None, 3000, 3050),
        ]

    def test_stages_are_subtracted_and_replays_are_not(self):
        selfs = bs.self_times(self.spans())
        self.assertAlmostEqual(selfs[0], 100 / 1e9)  # glue between spans
        self.assertAlmostEqual(selfs[1], 300 / 1e9)  # still holds the walk
        self.assertAlmostEqual(selfs[2], 200 / 1e9)
        self.assertAlmostEqual(selfs[3], 350 / 1e9)
        self.assertNotIn(5, selfs)
        self.assertNotIn(7, selfs)

    def test_layer_rows(self):
        rows, wall, unattributed = bs.layer_breakdown(self.spans())
        self.assertAlmostEqual(wall, 1000 / 1e9)
        self.assertAlmostEqual(unattributed, 0.1)
        by = {r["layer"]: r for r in rows}
        self.assertEqual(len(rows), len(by))
        # The in-op stage gives the metric; its replay is kept beside it.
        self.assertEqual(by["ddl.parse"]["kind"], "stage")
        self.assertAlmostEqual(by["ddl.parse"]["share"], 0.35)
        self.assertAlmostEqual(by["ddl.parse"]["replay_seconds"], 400 / 1e9)
        # A layer known only by its replay has no share.
        self.assertEqual(by["vcs.walk"]["kind"], "replay")
        self.assertEqual(by["vcs.walk"]["inside"], "pipeline.funnel")
        self.assertIsNone(by["vcs.walk"]["share"])
        self.assertAlmostEqual(by["vcs.walk"]["seconds"], 100 / 1e9)
        self.assertEqual(by["serve.wire"]["kind"], "probe")
        self.assertIsNone(by["serve.wire"]["share"])
        self.assertAlmostEqual(by["serve.wire"]["seconds"], 50 / 1e9)

    def test_replay_longer_than_parent_leaves_the_parent_whole(self):
        spans = [span(0, "op", None, 0, 100), span(1, "m", 0, 0, 100),
                 span(2, "p", 1, 200, 350, kind="replay")]
        self.assertAlmostEqual(bs.self_times(spans)[1], 100 / 1e9)
        self.assertAlmostEqual(bs.layer_breakdown(spans)[2], 0.0)

    def test_overlapping_children_are_counted_once(self):
        spans = [span(0, "op", None, 0, 100), span(1, "a", 0, 10, 60), span(2, "b", 0, 40, 120)]
        self.assertAlmostEqual(bs.self_times(spans)[0], 10 / 1e9)

    def test_exactly_one_op_root(self):
        with self.assertRaises(ValueError):
            bs.op_root([span(0, "op", None, 0, 1), span(1, "op", None, 2, 3)])


if __name__ == "__main__":
    unittest.main()
