#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark.

    python3 -m unittest discover -s e2ebench -p 'test_*.py'

Run from the root of a checkout. The store and end-to-end tests build and
run the real program (about a minute on two cores); everything they write
is under `.e2ebench-work/` and removed afterwards.
"""

import contextlib
import io
import json
import re
import shutil
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def scratch(name):
    path = bench.WORK_ROOT / "selftest" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class DigestCheck(unittest.TestCase):
    def test_one_byte_change_names_the_file(self):
        out = scratch("digest")
        try:
            (out / "table1.md").write_bytes(b"| app | TLP |\n")
            (out / "fig5.csv").write_bytes(b"t,tlp\n0,1.5\n")
            want = bench.digest_dir(out)
            self.assertEqual(bench.digest_mismatches(bench.digest_dir(out), want), [])
            data = bytearray((out / "fig5.csv").read_bytes())
            data[-2] ^= 1
            (out / "fig5.csv").write_bytes(bytes(data))
            self.assertEqual(bench.digest_mismatches(bench.digest_dir(out), want),
                             ["fig5.csv"])
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def test_missing_and_extra_files_fail(self):
        want = {"a.md": "1", "b.md": "2"}
        self.assertEqual(bench.digest_mismatches({"a.md": "1"}, want), ["b.md"])
        self.assertEqual(bench.digest_mismatches({**want, "c.md": "3"}, want), ["c.md"])


class CountCheck(unittest.TestCase):
    pinned = json.loads((bench.BENCH_DIR / "reference.json").read_text())["repro"]["counts"]

    def test_parses_repro_stderr(self):
        stderr = (b"# simulations: 0 run, 162 served from cache\n"
                  b"# store: 291 disk hits, 0 disk misses, 0 quarantined\n")
        counts = bench.repro_counts(stderr)
        self.assertEqual(counts, self.pinned["repro-warm"])
        self.assertEqual(bench.count_problems("repro-warm", counts,
                                              self.pinned["repro-warm"]), [])

    def test_half_warm_store_fails_the_hit_ratio_check(self):
        counts = bench.repro_counts(b"# simulations: 145 run, 162 served from cache\n"
                                    b"# store: 146 disk hits, 145 disk misses, 0 quarantined\n")
        problems = bench.count_problems("repro-warm", counts, self.pinned["repro-warm"])
        self.assertTrue(any("hit ratio" in p for p in problems), problems)


class ProgramRuns(unittest.TestCase):
    """Runs the real program; shares one build."""

    @classmethod
    def setUpClass(cls):
        cls.bins = bench.build()
        cls.ref = json.loads((bench.BENCH_DIR / "reference.json").read_text())

    def test_half_filled_store_fails_repro_warm(self):
        run = bench.Run("repro-warm", 0, self.bins, self.ref)
        run.work = scratch("half-store")
        run.store, run.out = run.work / "store", run.work / "out"
        try:
            self.assertEqual(run.repro(check=False).status, 0)
            entries = sorted(p for p in run.store.rglob("*") if p.is_file())
            for p in entries[::2]:
                p.unlink()
            run.repro()
            self.assertEqual(run.failed, 1)
            self.assertTrue(any("hit ratio" in p for p in run.problems), run.problems)
        finally:
            shutil.rmtree(run.work, ignore_errors=True)

    def test_printed_metrics_are_named_and_carry_units(self):
        spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = bench.main(["--workload", "trace-analyze", "--seed", "0",
                               "--seconds", "1", "--trace", "0"])
        self.assertEqual(code, 0)
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec["end_to_end"]})
        for name, m in result["metrics"].items():
            self.assertRegex(name, NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertGreater(m["value"], 0)


if __name__ == "__main__":
    unittest.main()
