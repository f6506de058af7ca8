"""The package API that the benchmark under ``benchmarks/`` relies on.

The benchmark drives kacscope through public names (``reductions.graph_f``,
``Diagram.factors``, ``d.nodes``, ``d.cyclic``, ``trace.final_graph`` and
more) and wraps some of them from the outside.  Each check runs in its own
interpreter, so that no wrapper leaks into the other tests.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmarks"


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_benchmark_selftest_passes():
    done = _python(str(BENCH / "selftest.py"))
    assert done.returncode == 0, done.stderr[-2000:]


def test_tracer_installs_and_counts_a_small_pass():
    script = f"""
import sys
sys.path[:0] = [{str(BENCH)!r}, {str(ROOT / "src")!r}]
import tracing
import workloads

tracer = tracing.Tracer()
tracer.install()
items = workloads.reduce_items(workloads.classical(4))
state = workloads.ReduceState(items, expected_traces=len(items))
attempted, failed, problems = workloads.reduce_check(state, workloads.reduce_run(state))
assert attempted == len(items) > 0 and failed == 0, problems
metrics = tracer.layer_metrics(diagrams=state.diagrams(), output_bytes=0)
assert metrics["reductions.graph_f_calls"] > 0, metrics
assert metrics["dynkin.classify_calls"] > 0, metrics
"""
    done = _python("-c", script)
    assert done.returncode == 0, done.stderr[-2000:]


def test_tracer_counts_one_check_per_enumerated_zero_set():
    """In a traced ``enumerate`` pass, ``thomae.check_calls`` is one per
    distinct zero set among the classes the CLI printed, read from their
    Kac texts (B5 at order 6: 31 zero sets among 45 classes), and
    ``kac.enumerate`` counted every class."""
    script = f"""
import json
import sys
sys.path[:0] = [{str(BENCH)!r}, {str(ROOT / "src")!r}]
import tracing
import workloads

tracer = tracing.Tracer()
tracer.install()
state = workloads.EnumerateState([("B5", 6, 0)])
(code, text), = workloads.enumerate_run(state)
kacs = [entry["kac"].split(",") for entry in json.loads(text)["classes"]]
zero_sets = {{tuple(v == "0" for v in s) for s in kacs}}
assert code == 0 and (len(kacs), len(zero_sets)) == (45, 31), (code, len(kacs), len(zero_sets))
metrics = tracer.layer_metrics(diagrams=state.diagrams(), output_bytes=0)
assert metrics["thomae.check_calls"] == len(zero_sets), (metrics, len(zero_sets))
assert tracer.counts["kac.enumerate"] == len(kacs), (tracer.counts, len(kacs))
assert tracer.totals()["kac.enumerate"][0] == 1, tracer.totals()
"""
    done = _python("-c", script)
    assert done.returncode == 0, done.stderr[-2000:]
