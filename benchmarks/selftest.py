"""Tests of the benchmark's own correctness checks and host-speed correction.

Each check must pass on the program's real output, and must count failed
items when one reference value or one result is corrupted, or when a
workload produces nothing.  Run from the repository root:

    python3 benchmarks/selftest.py
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from kacscope import affine  # noqa: E402


def _edit_json(text: str, edit) -> str:
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


class VerifyCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        specs = ["G2", "F4", "E6"]
        cls.reference = workloads.load_verify_reference()
        subsets = sum(
            d["classes_checked"] for d in cls.reference["diagrams"] if d["spec"] in specs
        )
        cls.state = workloads.VerifyState(specs, expected_diagrams=3, expected_subsets=subsets)
        cls.result = workloads.verify_run(cls.state)

    def check(self, result=None, reference=None):
        return workloads.verify_check(
            self.state,
            self.result if result is None else result,
            self.reference if reference is None else reference,
        )

    def test_real_output_passes(self):
        attempted, failed, problems = self.check()
        self.assertEqual((attempted, failed, problems), (self.state.expected_subsets, 0, []))

    def test_corrupt_reference_fails(self):
        reference = copy.deepcopy(self.reference)
        for d in reference["diagrams"]:
            if d["spec"] == "F4":
                d["min_f"] += 1
        attempted, failed, _ = self.check(reference=reference)
        self.assertGreater(failed / attempted, 0)

    def test_corrupt_result_fails(self):
        def edit(doc):
            doc["diagrams"][0]["equality_classes"][0]["fixed_dim"] += 1

        [(code, text)] = self.result
        attempted, failed, _ = self.check(result=[(code, _edit_json(text, edit))])
        self.assertGreater(failed / attempted, 0)

    def test_empty_or_failing_run_fails_everything(self):
        empty = json.dumps({"diagrams": []})
        for result in ([(0, empty)], [(1, self.result[0][1])], []):
            attempted, failed, _ = self.check(result=result)
            self.assertEqual(failed, attempted)
            self.assertGreater(attempted, 0)


class EnumerateCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.reference = workloads.load_enumerate_reference()
        cls.state = workloads.EnumerateState([("A9", 10, 9_046)])
        cls.result = workloads.enumerate_run(cls.state)

    def check(self, result=None, reference=None):
        return workloads.enumerate_check(
            self.state,
            self.result if result is None else result,
            self.reference if reference is None else reference,
        )

    def test_real_output_passes(self):
        self.assertEqual(self.check(), (9_046, 0, []))

    def test_corrupt_reference_fails(self):
        reference = copy.deepcopy(self.reference)
        table = reference[("A9", 10)]
        kac_text = next(iter(table))
        fixed_type, fixed_dim, is_equality = table[kac_text]
        table[kac_text] = (fixed_type, fixed_dim + 1, is_equality)
        attempted, failed, _ = self.check(reference=reference)
        self.assertEqual(failed, 1)
        self.assertGreater(failed / attempted, 0)

    def test_corrupt_result_fails(self):
        def edit(doc):
            doc["classes"][5]["is_equality"] = not doc["classes"][5]["is_equality"]

        [(code, text)] = self.result
        attempted, failed, _ = self.check(result=[(code, _edit_json(text, edit))])
        self.assertEqual(failed, 1)

    def test_missing_and_duplicate_classes_fail(self):
        def edit(doc):
            doc["classes"][0] = doc["classes"][1]

        [(code, text)] = self.result
        attempted, failed, _ = self.check(result=[(code, _edit_json(text, edit))])
        self.assertEqual((attempted, failed), (9_047, 2))

    def test_empty_run_fails_everything(self):
        def edit(doc):
            doc["classes"] = []

        [(code, text)] = self.result
        for result in ([(code, _edit_json(text, edit))], []):
            attempted, failed, _ = self.check(result=result)
            self.assertEqual((attempted, failed), (9_046, 9_046))


class ReduceCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        items = workloads.reduce_items([affine.build_spec("B3"), affine.build_spec("C3")])
        cls.state = workloads.ReduceState(items, expected_traces=len(items))
        cls.result = workloads.reduce_run(cls.state)

    def test_real_output_passes(self):
        attempted, failed, problems = workloads.reduce_check(self.state, self.result)
        self.assertEqual((attempted, failed, problems), (len(self.state.items), 0, []))

    def test_corrupt_trace_fails(self):
        result = list(self.result)
        trace, greek = result[3]
        result[3] = (dataclasses.replace(trace, f_final=trace.f_final + 1), greek)
        attempted, failed, _ = workloads.reduce_check(self.state, result)
        self.assertEqual(failed, 1)
        self.assertGreater(failed / attempted, 0)

    def test_corrupt_expected_count_fails(self):
        state = dataclasses.replace(self.state, expected_traces=self.state.expected_traces + 1)
        attempted, failed, _ = workloads.reduce_check(state, self.result)
        self.assertEqual(failed, attempted)

    def test_empty_run_fails_everything(self):
        attempted, failed, _ = workloads.reduce_check(self.state, [])
        self.assertEqual((attempted, failed), (len(self.state.items), len(self.state.items)))
        empty = dataclasses.replace(self.state, items=[])
        attempted, failed, _ = workloads.reduce_check(empty, [])
        self.assertEqual(failed, attempted)
        self.assertGreater(attempted, 0)

    def test_raised_move_counts_as_failed(self):
        result = list(self.result)
        result[0] = AssertionError("predicted drop differs")
        attempted, failed, _ = workloads.reduce_check(self.state, result)
        self.assertEqual(failed, 1)


class HostSpeedTest(unittest.TestCase):
    def test_take_corrects_work_by_the_mean_speed(self):
        host = hostspeed.HostSpeed()
        ref = hostspeed.REFERENCE_S
        # Half the segment at the reference speed, half at half of it; the
        # sample taken at the end of the segment reads the reference speed.
        host.samples[:] = [ref, 2 * ref, ref, 2 * ref]
        host.spent = 0.5
        host.sample = lambda: host.samples.append(ref)
        corrected, speed = host.take(10.5)
        self.assertAlmostEqual(speed, (1 + 0.5 + 1 + 0.5 + 1) / 5)
        self.assertAlmostEqual(corrected, 10.0 * speed)
        self.assertEqual((host.samples, host.spent), ([], 0.0))

    def test_samples_exclude_their_own_time(self):
        host = hostspeed.HostSpeed()
        host.sample()
        host.sample()
        self.assertEqual(len(host.samples), 2)
        self.assertGreater(host.spent, sum(host.samples))


if __name__ == "__main__":
    unittest.main()
