"""In-memory spans around the calls into each kacscope layer.

The tracer wraps module attributes of the package from the outside; nothing
under ``src/`` knows about it.  Every call through a wrapped attribute
records one span ``(name, start, end, parent)``, where ``parent`` is the
index of the enclosing span (``-1`` at top level).  A span's self time is
its duration minus the durations of its direct children; the benchmark is
single-threaded, so children never overlap.

Some wrappers also take a count from the call's result (subsets scanned,
moves made, classes found), so that rates are measured where the work
happens.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                counts[name] += count(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced entry point of the package, once per process."""
        from kacscope import affine, cli, ellreg, kac, reductions, thomae

        targets = [
            (affine, "build", "affine.build", None),
            (affine.Diagram, "factors", "dynkin.classify", None),
            (thomae, "scan_diagram", "thomae.scan", lambda r: r.subsets_checked),
            (thomae, "check_class", "thomae.check", None),
            (ellreg, "crosscheck", "ellreg.crosscheck", None),
            (ellreg, "expected_classes", "ellreg.expected", None),
            (kac, "enumerate_classes", "kac.enumerate", len),
            (kac, "canonical", "kac.canonical", None),
            (reductions, "reduce_to_z", "reductions.reduce", lambda r: len(r.steps)),
            (reductions, "graph_f", "reductions.graph_f", None),
            (reductions, "greek_decomposition", "reductions.greek", None),
            (cli, "main", "cli", None),
        ]
        for owner, attr, name, count in targets:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: ``(calls, inclusive seconds, self seconds)``."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent) in enumerate(self.spans):
            calls[name] += 1
            inclusive[name] += end - start
            own[name] += end - start - child_time[index]
        return {name: (calls[name], inclusive[name], own[name]) for name in calls}

    def layer_metrics(self, diagrams: int, output_bytes: int, speed: float = 1.0) -> dict[str, float]:
        """The per-layer figures of one traced pass.

        ``diagrams`` is the number of distinct diagrams the pass works on
        (the base of ``thomae.scans_per_diagram``) and ``output_bytes`` the
        size of everything the CLI wrote.  Span times are multiplied by
        ``speed``, the pass's host speed (``hostspeed.py``), so that they
        are given at the reference speed like the end-to-end times.
        """
        totals = self.totals()

        def calls(name: str) -> int:
            return totals.get(name, (0, 0.0, 0.0))[0]

        def incl(name: str) -> float:
            return speed * totals.get(name, (0, 0.0, 0.0))[1]

        def own(name: str) -> float:
            return speed * totals.get(name, (0, 0.0, 0.0))[2]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        return {
            "affine.build_s": incl("affine.build"),
            "dynkin.classify_calls": calls("dynkin.classify"),
            "dynkin.classify_us": 1e6 * ratio(incl("dynkin.classify"), calls("dynkin.classify")),
            "dynkin.self_s": own("dynkin.classify"),
            "thomae.scan_calls": calls("thomae.scan"),
            "thomae.scans_per_diagram": ratio(calls("thomae.scan"), diagrams),
            "thomae.scan_self_s": own("thomae.scan"),
            "thomae.subsets_per_s": ratio(self.counts["thomae.scan"], incl("thomae.scan")),
            "thomae.check_calls": calls("thomae.check"),
            "thomae.check_us": 1e6 * ratio(incl("thomae.check"), calls("thomae.check")),
            "ellreg.crosscheck_self_s": own("ellreg.crosscheck"),
            "ellreg.expected_s": incl("ellreg.expected"),
            "kac.canonical_calls": calls("kac.canonical"),
            "kac.useful_ratio": ratio(self.counts["kac.enumerate"], calls("kac.canonical")),
            "kac.enumerate_self_s": own("kac.enumerate"),
            "reductions.reduce_self_s": own("reductions.reduce"),
            "reductions.traces_per_s": ratio(calls("reductions.reduce"), incl("reductions.reduce")),
            "reductions.moves": self.counts["reductions.reduce"],
            "reductions.graph_f_calls": calls("reductions.graph_f"),
            "reductions.greek_s": incl("reductions.greek"),
            "cli.self_s": own("cli"),
            "cli.output_bytes": output_bytes,
        }
