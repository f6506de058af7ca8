"""The three benchmark workloads: set-up, one timed pass, and its check.

Each workload is exhaustive and deterministic.  The seed only permutes the
order in which the inputs are processed, so results are compared as sets.
See ``README.md`` next to this file for why each workload exists and which
layer it isolates.

A check returns ``(attempted, failed, problems)``: ``attempted`` counts the
workload's items (subsets, traces or classes), ``failed`` those that are
missing, wrong or extra, and ``problems`` describes the first few.  A check
compares against the expected item count, never only against what the
program returned, so an empty result fails every item.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from kacscope import affine, cli, reductions, thomae

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
VERIFY_REFERENCE = REFERENCE_DIR / "verify-default.json"
ENUMERATE_REFERENCE = REFERENCE_DIR / "enumerate-check.tsv.gz"

MAX_PROBLEMS = 5


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``kacscope <argv>`` in-process and capture what it writes."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_bytes(result: list[tuple[int, str]]) -> int:
    return sum(len(text.encode("utf-8")) for _code, text in result)


class Problems(list):
    def note(self, text: str) -> None:
        if len(self) < MAX_PROBLEMS:
            self.append(text)


# ---------------------------------------------------------------------------
# verify-default: `kacscope verify --format json` over catalog(12)
# ---------------------------------------------------------------------------


@dataclass
class VerifyState:
    specs: list[str]
    expected_diagrams: int
    expected_subsets: int

    def diagrams(self) -> int:
        return len(set(self.specs))

    def output_bytes(self, result) -> int:
        return _cli_bytes(result)


def verify_setup(seed: int) -> VerifyState:
    specs = [d.spec for d in affine.catalog(12)]
    random.Random(seed).shuffle(specs)
    return VerifyState(specs, expected_diagrams=70, expected_subsets=75_066)


def verify_run(state: VerifyState) -> list[tuple[int, str]]:
    return [call_cli(["verify", "--format", "json", *state.specs])]


def _equality_set(entries) -> set[tuple]:
    return {(c["m"], c["kac"], c["fixed_type"], c["fixed_dim"]) for c in entries}


def verify_check(state: VerifyState, result, reference: dict):
    problems = Problems()
    expected = {d["spec"]: d for d in reference["diagrams"] if d["spec"] in state.specs}
    attempted = state.expected_subsets
    if len(expected) != state.expected_diagrams or (
        sum(d["classes_checked"] for d in expected.values()) != state.expected_subsets
    ):
        problems.note("reference does not cover the expected diagrams and subsets")
        return attempted, attempted, problems
    if len(result) != 1:
        problems.note(f"{len(result)} verify results for one run")
        return attempted, attempted, problems
    [(code, text)] = result
    if code != 0:
        problems.note(f"verify exited with {code}")
        return attempted, attempted, problems
    got: dict[str, dict] = {}
    failed = 0
    for entry in json.loads(text)["diagrams"]:
        spec = entry["spec"]
        if spec in got or spec not in expected:
            problems.note(f"{spec}: duplicate or unexpected diagram")
            attempted += entry["classes_checked"] or 1
            failed += entry["classes_checked"] or 1
            continue
        got[spec] = entry
    for spec, ref in expected.items():
        entry = got.get(spec)
        if entry is None:
            problems.note(f"{spec}: missing")
        elif entry["classes_checked"] != ref["classes_checked"]:
            problems.note(f"{spec}: {entry['classes_checked']} subsets, expected {ref['classes_checked']}")
        elif entry["min_f"] != ref["min_f"] or entry["min_f"] < 0:
            problems.note(f"{spec}: min_f {entry['min_f']}, expected {ref['min_f']}")
        elif entry["ellreg_match"] is not True:
            problems.note(f"{spec}: ellreg crosscheck does not match")
        elif _equality_set(entry["equality_classes"]) != _equality_set(ref["equality_classes"]):
            problems.note(f"{spec}: equality classes differ from the reference")
        else:
            continue
        failed += ref["classes_checked"]
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# reduce-sweep: reduce_to_z + greek_decomposition on every nonempty proper J
# ---------------------------------------------------------------------------


@dataclass
class ReduceState:
    items: list[tuple[affine.AffineDiagram, frozenset[int]]]
    expected_traces: int

    def diagrams(self) -> int:
        return len({d.spec for d, _J in self.items})

    def output_bytes(self, result) -> int:
        return 0  # the sweep calls no CLI


def classical(max_rank: int) -> list[affine.AffineDiagram]:
    """Diagrams the reduction moves apply to: acyclic, classical, not triality."""
    return [
        d
        for d in affine.catalog(max_rank)
        if not d.cyclic and d.ident.family in "ABCD" and d.e != 3
    ]


def reduce_items(diagrams) -> list[tuple[affine.AffineDiagram, frozenset[int]]]:
    items = []
    for d in diagrams:
        nodes = d.nodes
        for size in range(1, len(nodes)):
            items.extend((d, frozenset(J)) for J in itertools.combinations(nodes, size))
    return items


def reduce_setup(seed: int) -> ReduceState:
    diagrams = classical(10)
    if len(diagrams) != 42:
        raise RuntimeError(f"expected 42 classical diagrams, found {len(diagrams)}")
    items = reduce_items(diagrams)
    random.Random(seed).shuffle(items)
    return ReduceState(items, expected_traces=14_436)


def reduce_run(state: ReduceState) -> list:
    out = []
    for d, J in state.items:
        try:
            trace = reductions.reduce_to_z(d, J)
            greek = reductions.greek_decomposition(trace.final_graph, trace.final_J)
        except (ArithmeticError, AssertionError, ValueError) as exc:
            out.append(exc)
            continue
        out.append((trace, greek))
    return out


def _trace_problem(d, J, outcome) -> str | None:
    if isinstance(outcome, Exception):
        return f"raised {type(outcome).__name__}: {outcome}"
    trace, greek = outcome
    if trace.spec != d.spec or trace.start != tuple(sorted(J)):
        return "trace belongs to another input"
    if trace.f_start != thomae.f_value(d, J):
        return f"f_start {trace.f_start} != f_value {thomae.f_value(d, J)}"
    values = [trace.f_start] + [step.f_after for step in trace.steps]
    if any(b > a for a, b in zip(values, values[1:])) or values[-1] != trace.f_final:
        return f"f sequence {values} is not non-increasing to f_final {trace.f_final}"
    if not reductions.in_Z(trace.final_graph, trace.final_J):
        return "final configuration is not in Z"
    if trace.f_final < 0:
        return f"f_final {trace.f_final} < 0"
    if greek.f_via_form != trace.f_final:
        return f"bilinear form gives {greek.f_via_form}, f_final is {trace.f_final}"
    return None


def reduce_check(state: ReduceState, result: list, reference=None):
    problems = Problems()
    attempted = max(state.expected_traces, len(state.items), len(result))
    failed = attempted - min(len(state.items), len(result))
    if len(state.items) != state.expected_traces:
        problems.note(f"{len(state.items)} inputs, expected {state.expected_traces}")
        return attempted, attempted, problems
    for (d, J), outcome in zip(state.items, result):
        problem = _trace_problem(d, J, outcome)
        if problem:
            failed += 1
            problems.note(f"{d.spec} J={sorted(J)}: {problem}")
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# enumerate-check: `kacscope enumerate --format json` for A9/10 and D14/12
# ---------------------------------------------------------------------------


@dataclass
class EnumerateState:
    runs: list[tuple[str, int, int]]  # (spec, order, expected class count)

    def diagrams(self) -> int:
        return len({spec for spec, _order, _count in self.runs})

    def output_bytes(self, result) -> int:
        return _cli_bytes(result)


def enumerate_setup(seed: int) -> EnumerateState:
    runs = [("A9", 10, 9_046), ("D14", 12, 32_101)]
    for spec, _order, _count in runs:
        affine.build_spec(spec)
    random.Random(seed).shuffle(runs)
    return EnumerateState(runs)


def enumerate_run(state: EnumerateState) -> list[tuple[int, str]]:
    return [
        call_cli(["enumerate", spec, "--order", str(order), "--format", "json"])
        for spec, order, _count in state.runs
    ]


def enumerate_check(state: EnumerateState, result, reference: dict):
    problems = Problems()
    attempted = sum(count for _spec, _order, count in state.runs)
    if len(result) != len(state.runs):
        problems.note(f"{len(result)} enumerate results for {len(state.runs)} runs")
        return attempted, attempted, problems
    failed = 0
    for (spec, order, count), (code, text) in zip(state.runs, result):
        ref = reference.get((spec, order), {})
        if len(ref) != count:
            problems.note(f"{spec}/{order}: reference has {len(ref)} classes, expected {count}")
            failed += count
            continue
        if code != 0:
            problems.note(f"{spec}/{order}: enumerate exited with {code}")
            failed += count
            continue
        doc = json.loads(text)
        if doc["spec"] != spec or doc["order"] != order:
            problems.note(f"{spec}/{order}: output is for {doc['spec']}/{doc['order']}")
            failed += count
            continue
        seen: set[str] = set()
        for c in doc["classes"]:
            kac_text = c["kac"]
            values = (c["fixed_type"], c["fixed_dim"], c["is_equality"])
            if kac_text in seen or kac_text not in ref:
                problems.note(f"{spec}/{order} {kac_text}: duplicate or unexpected class")
                attempted += 1
                failed += 1
            elif ref[kac_text] != values:
                problems.note(f"{spec}/{order} {kac_text}: {values}, expected {ref[kac_text]}")
                failed += 1
            seen.add(kac_text)
        missing = len(ref.keys() - seen)
        if missing:
            problems.note(f"{spec}/{order}: {missing} classes missing")
            failed += missing
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# references recorded from the seed commit
# ---------------------------------------------------------------------------


def load_verify_reference() -> dict:
    with open(VERIFY_REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def load_enumerate_reference() -> dict:
    """``{(spec, order): {kac: (fixed_type, fixed_dim, is_equality)}}``."""
    table: dict = {}
    with gzip.open(ENUMERATE_REFERENCE, "rt", encoding="utf-8") as handle:
        for line in handle:
            spec, order, kac_text, fixed_type, fixed_dim, is_equality = line.rstrip("\n").split("\t")
            table.setdefault((spec, int(order)), {})[kac_text] = (
                fixed_type,
                int(fixed_dim),
                is_equality == "1",
            )
    return table


@dataclass(frozen=True)
class Workload:
    setup: Callable       # seed -> state; builds every diagram the pass needs
    run: Callable         # state -> result; the timed program calls
    check: Callable       # (state, result, reference) -> (attempted, failed, problems)
    load_reference: Callable


WORKLOADS = {
    "verify-default": Workload(verify_setup, verify_run, verify_check, load_verify_reference),
    "reduce-sweep": Workload(reduce_setup, reduce_run, reduce_check, lambda: None),
    "enumerate-check": Workload(enumerate_setup, enumerate_run, enumerate_check, load_enumerate_reference),
}

