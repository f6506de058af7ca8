"""Command line surface: subcommands, formats, exit codes, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from kacscope import __version__, cli, kac
from kacscope.affine import build_spec, catalog, render_kac

GOLDEN = Path(__file__).parent / "golden" / "ellreg"
GOLDEN_CLI = Path(__file__).parent / "golden" / "cli"
SRC = Path(__file__).resolve().parents[1] / "src"


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# verify


def test_verify_text(capsys):
    code, out, err = _run(capsys, "verify", "G2", "F4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("G2")
    assert "min_f=0" in lines[0]
    assert "classification=match ok" in lines[1]
    assert lines[-1] == "2 diagram(s), 38 subsets checked, bound holds everywhere"


def test_verify_json_shape(capsys):
    code, out, _ = _run(capsys, "verify", "G2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    (entry,) = doc["diagrams"]
    assert entry["spec"] == "G2"
    assert entry["h_e"] == 6
    assert entry["n_e"] == 2
    assert entry["dim_g"] == 14
    assert entry["classes_checked"] == 7
    assert entry["min_f"] == 0
    assert entry["ellreg_match"] is True
    assert entry["equality_classes"][0] == {
        "m": 6,
        "kac": "1,1,1",
        "fixed_type": "0",
        "fixed_dim": 2,
    }


def test_verify_is_deterministic(capsys):
    _, first, _ = _run(capsys, "verify", "E6", "2E6", "--format", "json")
    _, second, _ = _run(capsys, "verify", "E6", "2E6", "--format", "json")
    assert first == second


def test_json_reports_round_trip(capsys):
    # no floats anywhere, and re-serialising reproduces the bytes
    for argv in (
        ("verify", "D5", "--format", "json"),
        ("check", "G2", "--kac", "1,1,1", "--format", "json"),
        ("steps", "E6", "--format", "json"),
        ("ellreg", "B4", "--format", "json"),
        ("catalog", "--max-rank", "3", "--format", "json"),
        ("enumerate", "B5", "--order", "6", "--format", "json"),
        ("enumerate", "A5", "--order", "6", "--format", "json"),
        ("enumerate", "2A5", "--order", "4", "--format", "json"),
    ):
        _, out, _ = _run(capsys, *argv)
        assert json.dumps(json.loads(out), indent=2) + "\n" == out


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**100), max_value=2**100)
    | st.floats()
    | st.text()
    | st.text(st.characters(max_codepoint=0x1F))
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@given(JSON_VALUES)
def test_json_writer_matches_the_indented_stdlib_encoder(value):
    assert cli._json(value) == json.dumps(value, indent=2)


@given(st.lists(JSON_VALUES, max_size=4), st.integers(min_value=0, max_value=3), st.booleans())
def test_json_writer_joins_a_rendered_list_at_its_depth(items, depth, in_dicts):
    # a callable value renders the items as a list at the depth the writer hands it, inside
    # lists or dicts
    doc, plain = (lambda pad, out: cli._json_pieces(items, pad, out)), items
    for _ in range(depth):
        doc, plain = ({"k": doc}, {"k": plain}) if in_dicts else ([doc], [plain])
    assert cli._json(doc) == json.dumps(plain, indent=2)


def _nest_enumerate_document(monkeypatch, nest):
    """Make ``enumerate`` put its document at ``nest(doc)``, deeper than the writer puts it."""
    real = cli._cmd_enumerate

    def nested(args):
        code, doc, text = real(args)
        return code, nest(doc), text

    monkeypatch.setattr(cli, "_cmd_enumerate", nested)


@pytest.mark.parametrize("nest", [lambda doc: {"result": doc}, lambda doc: {"result": [[doc]]}],
                         ids=["in-a-dict", "in-two-lists"])
def test_enumerate_document_nested_deeper_renders_its_records_there(capsys, monkeypatch, nest):
    # the records render at the depth the writer gives them, wherever the document sits
    argv = ("enumerate", "A5", "--order", "6", "--format", "json")
    plain = json.loads(_run(capsys, *argv)[1])
    del plain["version"]
    _nest_enumerate_document(monkeypatch, nest)
    code, out, err = _run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == json.dumps({"version": __version__, **nest(plain)}, indent=2) + "\n"
    assert _run(capsys, "enumerate", "A5", "--order", "6")[0] == 0  # text has no depth


def test_verify_without_diagrams_is_a_usage_error(capsys):
    # an empty catalog certifies nothing, so it must not report success
    code, out, err = _run(capsys, "verify", "--max-rank", "0")
    assert code == 2
    assert out == ""
    assert "nothing to verify" in err


@pytest.mark.parametrize("argv", [["ellreg", "--max-rank", "0"], ["catalog", "--max-rank", "-1"]])
def test_an_empty_catalog_is_a_usage_error_everywhere(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"no supported diagram has rank <= {argv[-1]}; nothing to verify\n"


def test_the_parser_is_built_once_and_dispatches_through_the_module(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "_cmd_catalog", lambda args: (0, {}, lambda: ["patched"]))
    assert _run(capsys, "catalog") == (0, "patched\n", "")


def test_verify_reports_counterexample_with_exit_1(capsys, monkeypatch):
    # forge a failing scan: the reporting path must flag it and exit 1
    import kacscope.ellreg as ellreg_mod
    from kacscope.affine import build_spec
    from kacscope.ellreg import Crosscheck
    from kacscope.thomae import scan_diagram

    real = scan_diagram(build_spec("G2"))
    broken = type(real)(
        spec=real.spec, h_e=real.h_e, n_e=real.n_e, dim_g=real.dim_g,
        subsets_checked=real.subsets_checked, min_f=-1,
        min_f_zero_set=real.min_f_zero_set, equality_classes=real.equality_classes,
    )
    monkeypatch.setattr(cli.thomae, "scan_diagram", lambda d: broken)

    def matching(d, scan):
        assert scan is broken  # verify hands over its own scan
        return Crosscheck(spec="G2", ok=True, expected=(), scanned=())

    monkeypatch.setattr(cli.ellreg_mod, "crosscheck", matching)
    code, out, _ = _run(capsys, "verify", "G2")
    assert code == 1
    assert "counterexample found" in out


def test_verify_flags_classification_mismatch(capsys, monkeypatch):
    from kacscope.ellreg import Crosscheck

    monkeypatch.setattr(
        cli.ellreg_mod, "crosscheck",
        lambda d, scan: Crosscheck(spec=d.spec, ok=False, expected=(), scanned=()),
    )
    code, out, _ = _run(capsys, "verify", "G2")
    assert code == 1


# ---------------------------------------------------------------------------
# check


def test_check_equality_class(capsys):
    code, out, _ = _run(capsys, "check", "F4", "--kac", "0,0,1,0,0")
    assert code == 0
    assert "order m        = 3" in out
    assert "fixed type     = 2A2" in out
    assert "fixed dim      = 16" in out
    assert "verdict        = equality" in out


def test_check_strict_class(capsys):
    code, out, _ = _run(capsys, "check", "F4", "--kac", "1,1,0,0,0")
    assert code == 0
    assert "order m        = 3" in out
    assert "f certificate  = 18" in out
    assert "verdict        = holds" in out


def test_check_json(capsys):
    code, out, _ = _run(capsys, "check", "2E6", "--kac", "0,0,0,0,1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["spec"] == "2E6"
    assert doc["m"] == 2
    assert doc["kac"] == "0,0,0,0,1"
    assert doc["zero_set"] == [0, 1, 2, 3]
    assert doc["fixed_type"] == "B4"
    assert doc["fixed_dim"] == 36
    assert doc["tau"] == {"num": 1, "den": 2}
    assert doc["bound"] == {"num": 1, "den": 2}
    assert doc["f"] == 0
    assert doc["holds"] is True
    assert doc["is_equality"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "F4", "--kac", "9,9"),  # wrong length
        ("check", "F4", "--kac", "0,0,0,0,0"),  # all zeros
        ("check", "F4", "--kac", "2,2,2,2,2"),  # common factor
        ("check", "NOPE", "--kac", "1,1"),  # unknown diagram
        ("steps", "F4"),  # tables only exist for the inner E types
        ("verify", "Q9"),
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert err.strip() or out.strip()


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "G2", "--format", "tsv"),  # only ellreg renders tsv
        ("catalog", "--unicode"),  # catalog renders no bonds
        ("verify", "G2", "--unicode"),
    ],
)
def test_options_a_subcommand_ignores_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_classifier_fault_is_an_internal_error(capsys, monkeypatch):
    # a shape the classifier rejects is a fault of the program, not a
    # usage error, although the exception subclasses ValueError
    from kacscope.dynkin import UnsupportedSubdiagramError

    def broken(d):
        raise UnsupportedSubdiagramError([0, 1, 2], "contains a cycle")

    monkeypatch.setattr(cli.thomae, "scan_diagram", broken)
    code, out, err = _run(capsys, "verify", "G2")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: component [0, 1, 2]")


def test_failed_self_check_is_an_internal_error(capsys, monkeypatch):
    def broken(d, scan):
        raise AssertionError("G2: duplicate class (1, 1, 1)")

    monkeypatch.setattr(cli.ellreg_mod, "crosscheck", broken)
    code, out, err = _run(capsys, "verify", "G2")
    assert code == 3
    assert out == ""
    assert err == "internal error: G2: duplicate class (1, 1, 1)\n"


@pytest.mark.parametrize("error", [KeyError(7), IndexError("list index out of range"),
                                   TypeError("unhashable type: 'list'")])
def test_any_other_exception_is_an_internal_error(capsys, monkeypatch, error):
    """A stray exception is a fault of the program: exit 3 with one stderr
    line, never Python's exit 1, which means a counterexample."""
    def broken(args):
        raise error

    monkeypatch.setattr(cli, "_cmd_check", broken)
    code, out, err = _run(capsys, "check", "G2", "--kac", "1,1,1")
    assert code == 3
    assert out == ""
    assert err == f"internal error: {type(error).__name__}: {error}\n"


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.txt"
    code, out, err = _run(capsys, "check", "G2", "--kac", "1,1,1", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("cannot write --out file: ")
    assert str(target) in err
    assert not target.exists()


def test_enumerate_json_to_a_file_peaks_below_three_times_its_size(tmp_path, capsys, monkeypatch):
    # the writer holds pieces, never the whole document as one string
    target = tmp_path / "a9.json"
    tracemalloc.start()
    try:
        code = cli.main(["enumerate", "A9", "--order", "10", "--format", "json", "--out", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 3 * target.stat().st_size, (peak, target.stat().st_size)
    # an internal error while rendering leaves no --out file behind
    failed = tmp_path / "failed.json"

    def broken(s):
        raise AssertionError(f"no Kac text for {s}")

    monkeypatch.setattr(cli, "_kac_text", broken)
    code, out, err = _run(capsys, "enumerate", "G2", "--order", "6", "--format", "json", "--out", str(failed))
    assert (code, out) == (3, "")
    assert err.startswith("internal error: no Kac text for ")
    assert not failed.exists()


def test_enumerate_text_to_a_file_peaks_below_six_times_its_size(tmp_path):
    # text output renders no JSON records: one tail per record and a line's pieces per class
    target = tmp_path / "a9.txt"
    tracemalloc.start()
    try:
        code = cli.main(["enumerate", "A9", "--order", "10", "--out", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 6 * target.stat().st_size, (peak, target.stat().st_size)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_closed_stdout_pipe_is_a_usage_error_without_a_traceback(unbuffered):
    # the reader takes 100 bytes of a 1.1 MB document, far more than a pipe holds, and
    # closes its end: the write fails, and the interpreter's last flush must not fail again
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with subprocess.Popen(
        [sys.executable, "-m", "kacscope.cli", "enumerate", "A9", "--order", "10", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    ) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err.startswith("cannot write stdout: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_process_exit_status_and_stderr(tmp_path):
    # the real process, not main() in-process: exit status and stderr as
    # a shell sees them, with no traceback
    target = tmp_path / "missing" / "report.txt"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "kacscope.cli", "verify", "G2", "--out", str(target)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("cannot write --out file: ")
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1


def test_verify_refuses_every_oversized_diagram_before_scanning(capsys, monkeypatch):
    scanned = []
    monkeypatch.setattr(cli, "MAX_VERIFY_NODES", 5)
    monkeypatch.setattr(cli.thomae, "scan_diagram", scanned.append)
    code, out, err = _run(capsys, "verify", "G2", "F4", "E6")
    assert code == 2
    assert out == "" and scanned == []
    assert err == "E6 has 7 nodes (127 zero sets), more than the 5 that verify scans\n"


def test_verify_refuses_a_rank_beyond_the_cap_before_building(capsys, monkeypatch):
    built, asked = [], []
    monkeypatch.setattr(cli, "build_spec", built.append)
    code, out, err = _run(capsys, "verify", "B3", "A20000")
    assert code == 2
    assert out == "" and built == []
    assert err == "A20000 has base rank 20000, so more than the 24 nodes that verify scans\n"
    monkeypatch.setattr(cli, "catalog", lambda r: asked.append(r) or catalog(r))
    code, out, err = _run(capsys, "verify", "--max-rank", "3000")
    assert code == 2 and asked == [48]
    assert err.startswith("A24 has 25 nodes")


_A24 = "A24 has 25 nodes (33,554,431 zero sets), more than the 24 that verify scans"


@pytest.mark.parametrize("argv, message", [
    (["A40"], "A40 has 41 nodes (2,199,023,255,551 zero sets), more than the 24 that verify scans"),
    (["--max-rank", "40"], _A24),
    (["A20000"], "A20000 has base rank 20000, so more than the 24 nodes that verify scans"),
    (["--max-rank", "3000"], _A24),
], ids=["A40", "max-rank-40", "A20000", "max-rank-3000"])
def test_oversized_verify_is_a_usage_error_in_the_process(argv, message):
    # under an address-space limit, so that a diagram or a scan the guards
    # let through fails fast with a MemoryError instead of filling the
    # host's memory
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "kacscope.cli", "verify", *argv],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=limit,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == message + "\n"


_A20000 = "A20000 has base rank 20000, more than the 200 that kacscope builds"
_BEYOND_MAX_RANK = {
    "enumerate": (["enumerate", "A20000", "--order", "5"], _A20000),
    "check": (["check", "A20000", "--kac", "1"], _A20000),
    "steps": (["steps", "A20000"], _A20000),
    "ellreg": (["ellreg", "G2", "A201"], "A201 has base rank 201, more than the 200 that kacscope builds"),
    "ellreg-max-rank": (["ellreg", "--max-rank", "201"],
                        "--max-rank 201 is more than the 200 that kacscope builds"),
    "catalog-max-rank": (["catalog", "--max-rank", "3000"],
                         "--max-rank 3000 is more than the 200 that kacscope builds"),
}


@pytest.mark.parametrize("name", sorted(_BEYOND_MAX_RANK))
def test_every_subcommand_refuses_a_rank_beyond_max_rank_before_building(
        capsys, monkeypatch, name):
    argv, message = _BEYOND_MAX_RANK[name]
    built = []
    monkeypatch.setattr(cli, "build_spec", built.append)
    monkeypatch.setattr(cli, "catalog", built.append)
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == "" and built == []
    assert err == message + "\n"


def test_max_rank_itself_is_built(capsys):
    code, out, _ = _run(capsys, "ellreg", "A200", "--format", "json")
    assert code == 0
    assert json.loads(out)["classes"][0]["kac"] == ",".join(["1"] * 201)


@pytest.mark.parametrize("argv, message", [
    (["enumerate", "A20000", "--order", "5"], _A20000),
    (["check", "A20000", "--kac", "1"], _A20000),
    (["steps", "A20000"], _A20000),
    (["catalog", "--max-rank", "3000"], "--max-rank 3000 is more than the 200 that kacscope builds"),
    (["ellreg", "--max-rank", "3000"], "--max-rank 3000 is more than the 200 that kacscope builds"),
], ids=["enumerate", "check", "steps", "catalog", "ellreg"])
def test_oversized_rank_is_a_usage_error_in_the_process(argv, message):
    # under the same address-space limit as the verify refusals: without the
    # bound, each of these ends in a MemoryError traceback with exit 1
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "kacscope.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=limit,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == message + "\n"


# ---------------------------------------------------------------------------
# golden output of every subcommand

GOLDEN_COMMANDS = {
    "verify.txt": ("verify",),
    "verify_G2_F4_E8_2A9.json": ("verify", "G2", "F4", "E8", "2A9", "--format", "json"),
    "catalog.txt": ("catalog",),
    "catalog.json": ("catalog", "--format", "json"),
    "steps_E8_unicode.txt": ("steps", "E8", "--unicode"),
    "steps_E7.json": ("steps", "E7", "--format", "json"),
    "enumerate_B5_6_unicode.txt": ("enumerate", "B5", "--order", "6", "--unicode"),
    "enumerate_B5_6.json": ("enumerate", "B5", "--order", "6", "--format", "json"),
    "enumerate_A5_6.json": ("enumerate", "A5", "--order", "6", "--format", "json"),
    "enumerate_D6_6_unicode.txt": ("enumerate", "D6", "--order", "6", "--unicode"),
    "enumerate_2A5_4.json": ("enumerate", "2A5", "--order", "4", "--format", "json"),
    "check_F4_0-0-1-0-0.txt": ("check", "F4", "--kac", "0,0,1,0,0"),
    "check_F4_0-0-1-0-0.json": ("check", "F4", "--kac", "0,0,1,0,0", "--format", "json"),
}


def test_every_golden_file_has_a_command():
    assert sorted(p.name for p in GOLDEN_CLI.iterdir()) == sorted(GOLDEN_COMMANDS)


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_output_matches_golden(capsys, monkeypatch, name):
    # with an indent the standard library encodes in pure Python, token
    # by token; no command may take that path
    dumps = json.dumps

    def compact_dumps(obj, **kwargs):
        if kwargs.get("indent") is not None:
            raise AssertionError("json.dumps called with an indent")
        return dumps(obj, **kwargs)

    monkeypatch.setattr(json, "dumps", compact_dumps)
    code, out, err = _run(capsys, *GOLDEN_COMMANDS[name])
    assert (code, err) == (0, "")
    assert out == (GOLDEN_CLI / name).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_text(capsys):
    code, out, _ = _run(capsys, "enumerate", "G2", "--order", "6")
    assert code == 0
    assert out.splitlines()[0] == "G2: 3 class(es) of order 6"
    assert "1 1=3>1" in out
    assert "*" in out  # the equality member is starred


def test_enumerate_json(capsys):
    code, out, _ = _run(capsys, "enumerate", "C3", "--order", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["spec"] == "C3" and doc["order"] == 2
    kacs = {entry["kac"] for entry in doc["classes"]}
    assert kacs == {"1,0,0,1", "0,0,1,0"}
    eq = {entry["kac"]: entry["is_equality"] for entry in doc["classes"]}
    assert eq["1,0,0,1"] is True and eq["0,0,1,0"] is False


def _patch_class_reports(monkeypatch, **fields):
    """Make ``thomae.check_class`` report every class with ``fields`` replaced."""
    real = cli.thomae.check_class
    monkeypatch.setattr(cli.thomae, "check_class",
                        lambda d, s: real(d, s)._replace(**fields))


def test_enumerate_reports_a_violated_bound_with_exit_1(capsys, monkeypatch):
    # dim ratio 1/7 is below the bound 1/6 of every G2 class of order 6
    _patch_class_reports(monkeypatch, bound=Fraction(1, 7))
    code, out, _ = _run(capsys, "enumerate", "G2", "--order", "6")
    assert code == 1
    head, *lines = out.splitlines()
    assert head == "G2: 3 class(es) of order 6"
    assert len(lines) == 3 and all(line.endswith("]  VIOLATED") for line in lines)


def test_enumerate_class_of_another_order_is_an_internal_error(capsys, monkeypatch):
    # G2 has labels 1, 2, 3: the admissible 0,1,1 has order 5
    real = kac.enumerate_classes
    monkeypatch.setattr(kac, "enumerate_classes", lambda d, m: real(d, m) + [(0, 1, 1)])
    code, out, err = _run(capsys, "enumerate", "G2", "--order", "6")
    assert (code, out) == (3, "")
    assert err.startswith("internal error: class ") and "has order 5, not 6" in err


# vectors of order 2 on G2 (labels 1, 2, 3) that only one per-class check refuses
GENERATOR_FAULTS = {"gcd-2": (2, 0, 0), "wrong-length": (0, 1), "negative-entry": (-1, 0, 1)}


def check_generator_fault(capsys, monkeypatch, s):
    """A class ``s`` from the walk that is not admissible is an internal error."""
    monkeypatch.setattr(kac, "enumerate_classes", lambda d, m: [s])
    code, out, err = _run(capsys, "enumerate", "G2", "--order", "2")
    assert (code, out) == (3, ""), (s, code, err)
    assert err.startswith("internal error: class ") and err.endswith(" of G2 is not admissible\n")


@pytest.mark.parametrize("s", GENERATOR_FAULTS.values(), ids=GENERATOR_FAULTS)
def test_enumerate_inadmissible_class_is_an_internal_error(capsys, monkeypatch, s):
    check_generator_fault(capsys, monkeypatch, s)


@pytest.mark.parametrize("s", [*GENERATOR_FAULTS.values(), (0, 1, 1)],
                         ids=[*GENERATOR_FAULTS, "order-5"])
def test_enumerate_names_the_bad_class_after_good_ones(capsys, monkeypatch, s):
    """A bad class after the three real classes of G2 at order 6 is the one named: the
    generator faults as not admissible, and the admissible 0,1,1 by its order 5."""
    real = kac.enumerate_classes
    monkeypatch.setattr(kac, "enumerate_classes", lambda d, m: real(d, m) + [s])
    code, out, err = _run(capsys, "enumerate", "G2", "--order", "6")
    assert (code, out) == (3, ""), (s, code, err)
    reason = "has order 5, not 6" if s == (0, 1, 1) else "of G2 is not admissible"
    assert err == f"internal error: class {','.join(map(str, s))} {reason}\n"


def test_enumerate_keeps_records_apart_that_differ_only_in_the_verdict(capsys, monkeypatch):
    """Every zero set of G2 at order 6 gets the same type and dimension, and the first one a
    bound below 1/m: its line alone is marked, and enumerate exits 1."""
    real, calls = cli.thomae.check_class, []

    def report(d, s):
        calls.append(s)
        bound = Fraction(1, 7) if len(calls) == 1 else Fraction(1, 1)
        return real(d, s)._replace(fixed_type="A1", fixed_dim=1, bound=bound)

    monkeypatch.setattr(cli.thomae, "check_class", report)
    code, out, _ = _run(capsys, "enumerate", "G2", "--order", "6")
    assert code == 1 and len(calls) == 3
    assert [line.endswith("   [A1, dim 1]  VIOLATED") for line in out.splitlines()[1:]] == [
        True, False, False]
    assert all(line.endswith("   [A1, dim 1]") for line in out.splitlines()[2:])


def test_enumerate_checks_each_zero_set_once(monkeypatch):
    """``enumerate`` calls ``check_class`` once per distinct zero set of the
    classes it prints, with the first class that has it, on every diagram
    to rank 4 at orders 1-12."""
    calls = []
    real = cli.thomae.check_class
    monkeypatch.setattr(cli.thomae, "check_class", lambda d, s: calls.append(s) or real(d, s))
    args = cli.build_parser().parse_args(["enumerate", "G2", "--order", "1"])
    for d in catalog(4):
        for m in range(1, 13):
            args.spec, args.order = [d.spec], m
            calls.clear()
            assert cli._cmd_enumerate(args)[0] == 0
            firsts = {}
            for s in kac.enumerate_classes(d, m):
                firsts.setdefault(kac.zero_set(d, s), s)
            assert calls == list(firsts.values()), (d.spec, m)


def _enumerate_oracle(diagram, order) -> dict:
    """``enumerate`` output in each format, built the plain way: a dict record and a
    text line per class, from its ``check_class`` report, and ``json.dumps`` at indent 2."""
    reports = [cli.thomae.check_class(diagram, s) for s in kac.enumerate_classes(diagram, order)]
    code = 0 if all(r.holds for r in reports) else 1
    records = [{"kac": ",".join(map(str, r.s)), "fixed_type": r.fixed_type,
                "fixed_dim": r.fixed_dim, "is_equality": r.is_equality} for r in reports]
    doc = {"version": __version__, "spec": diagram.spec, "order": order, "classes": records}
    outputs = {"json": json.dumps(doc, indent=2) + "\n"}
    for fmt in ("text", "unicode"):
        lines = [f"{diagram.spec}: {len(reports)} class(es) of order {order}"]
        for r in reports:
            mark = "  *" if r.is_equality else "" if r.holds else "  VIOLATED"
            lines.append(f"  {render_kac(diagram, r.s, unicode=fmt == 'unicode')}"
                         f"   [{r.fixed_type}, dim {r.fixed_dim}]{mark}")
        outputs[fmt] = "\n".join(lines) + "\n"
    return {fmt: (code, out, "") for fmt, out in outputs.items()}


ENUMERATE_FLAGS = {"json": ("--format", "json"), "text": (), "unicode": ("--unicode",)}


def test_enumerate_matches_a_plain_oracle_byte_for_byte(capsys):
    # every diagram to rank 4 at orders 1-12, an order off the twist (no classes) and
    # a prime A1 order whose classes hold every entry 1-100: the writer's table of
    # digit texts ends at 99, so (1, 100) is formatted and the rest read from the table
    cases = [(d, order) for d in catalog(4) for order in range(1, 13)]
    cases += [(build_spec("2A5"), 3), (build_spec("A1"), 101)]
    assert {v for s in kac.enumerate_classes(build_spec("A1"), 101) for v in s} == set(range(1, 101))
    for diagram, order in cases:
        expected = _enumerate_oracle(diagram, order)
        for fmt, flags in ENUMERATE_FLAGS.items():
            got = _run(capsys, "enumerate", diagram.spec, "--order", str(order), *flags)
            assert got == expected[fmt], (diagram.spec, order, fmt)


@pytest.mark.parametrize("order", ["0", "-3"])
def test_enumerate_non_positive_order_is_a_usage_error(capsys, order):
    code, out, err = _run(capsys, "enumerate", "G2", "--order", order)
    assert (code, out) == (2, "")
    assert err == f"--order must be a positive integer, got {order}\n"


def test_enumerate_order_off_the_twist_has_no_classes(capsys):
    # 2A5 has e = 2, so no class has an odd order: a true empty answer
    code, out, err = _run(capsys, "enumerate", "2A5", "--order", "3")
    assert (code, out, err) == (0, "2A5: 0 class(es) of order 3\n", "")


def test_enumerate_refuses_too_many_vectors_quickly(capsys):
    start = time.perf_counter()
    code, out, err = _run(capsys, "enumerate", "A16", "--order", "17")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (
        "A16 has 1,166,803,093 raw Kac vectors of order 17, "
        "more than the 2,000,000 that enumerate walks\n"
    )


def test_enumerate_guard_refuses_exactly_what_the_count_refuses(monkeypatch):
    # the guard decides on the lower bound where it can and on the exact
    # count otherwise; over every diagram up to rank 12 and every order up
    # to 60 (all three paths occur) it must refuse exactly the orders with
    # more raw vectors than the limit.  The walk is stubbed out, and the
    # subcommand is called with one parsed namespace (building the parser
    # would dominate): only the decision is under test.
    monkeypatch.setattr(kac, "enumerate_classes", lambda diagram, m: [])
    args = cli.build_parser().parse_args(["enumerate", "G2", "--order", "1"])
    for d in catalog(12):
        for m in range(1, 61):
            args.spec, args.order = [d.spec], m
            try:
                cli._cmd_enumerate(args)
                refused = False
            except ValueError as exc:
                assert "raw Kac vectors" in str(exc)
                refused = True
            assert refused == (kac.solution_count(d, m) > cli.MAX_SOLUTIONS), (d.spec, m)


@pytest.mark.parametrize(
    "spec,order,count",
    [
        # two unit labels: the bound is the count, 4,000,000
        ("A1", "10000000", "4,000,000"),
        # labels 1..6: only a lower bound, far above the limit
        ("E8", "10000000", "at least 1,470,877,589,176,251,859,308,828,562,941,594,327,383,097,242"),
        # labels 1, 2, 3: the bound (1,758,749) is under the limit, so the
        # exact count decides
        ("G2", "5623", "2,637,655"),
    ],
)
def test_enumerate_refusal_cost_does_not_grow_with_the_order(capsys, spec, order, count):
    start = time.perf_counter()
    code, out, err = _run(capsys, "enumerate", spec, "--order", order)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err == (
        f"{spec} has {count} raw Kac vectors of order {order}, "
        "more than the 2,000,000 that enumerate walks\n"
    )


def test_every_diagram_has_too_many_vectors_just_above_the_weight_cap():
    # the comment at MAX_WEIGHT proves this for every weight above it; the
    # lower bound shows it at the first such weight on the catalog
    for d in catalog(12):
        bound, _ = kac.solution_lower_bound(d, d.e * (cli.MAX_WEIGHT + 1))
        assert bound > cli.MAX_SOLUTIONS, d.spec


@pytest.mark.parametrize("spec, order", [
    ("A3", 2**61 - 1), ("G2", 2**61 - 1), ("2A2", 2 * (2**61 - 1)), ("2A2", 2**61 - 1)])
def test_enumerate_answers_a_huge_order_before_factoring_it(spec, order):
    # 2^61 - 1 is prime, so trial division up to its square root would run
    # for hours; the real process must refuse it at once, or, on 2A2 (e = 2),
    # report at once that an odd order has no class
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "kacscope.cli", "enumerate", spec, "--order", str(order)],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert time.perf_counter() - start < 1.0
    e = build_spec(spec).e
    if order % e:
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, f"{spec}: 0 class(es) of order {order}\n", "")
        return
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"{spec} has more raw Kac vectors of order {order} than the 2,000,000 that "
        f"enumerate walks, as every diagram does above order {e * 10**9:,}\n"
    )


# ---------------------------------------------------------------------------
# ellreg


@pytest.mark.parametrize("spec", sorted(p.stem for p in GOLDEN.glob("*.tsv")))
def test_ellreg_tsv_matches_golden(capsys, spec):
    code, out, _ = _run(capsys, "ellreg", spec, "--format", "tsv")
    assert code == 0
    assert out == (GOLDEN / f"{spec}.tsv").read_text(encoding="utf-8")


def test_ellreg_tsv_is_one_header_then_each_spec_in_order(capsys):
    code, out, _ = _run(capsys, "ellreg", "G2", "3D4", "--format", "tsv")
    assert code == 0
    g2, d4 = ((GOLDEN / f"{spec}.tsv").read_text(encoding="utf-8").splitlines(True)
              for spec in ("G2", "3D4"))
    assert g2[0] == d4[0] == "diagram\tm\tkac\tJ_type\tprovenance\n"
    assert out == "".join(g2 + d4[1:])


def test_ellreg_json(capsys):
    code, out, _ = _run(capsys, "ellreg", "G2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [c["m"] for c in doc["classes"]] == [6, 3, 2]
    assert doc["classes"][0]["diagram"] == "G2"
    assert doc["classes"][0]["provenance"]


def test_ellreg_out_file(tmp_path, capsys):
    target = tmp_path / "e8.tsv"
    code, out, _ = _run(capsys, "ellreg", "E8", "--format", "tsv", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == (GOLDEN / "E8.tsv").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# steps


def test_steps_json(capsys):
    code, out, _ = _run(capsys, "steps", "E7", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["spec"] == "E7"
    first = doc["step1"][0]
    assert first["key"] == 2 and first["value"] == 56
    assert first["achievers"] == ["A7"]
    assert first["witness"] == "0,0,0,0,0,0,0,1"
    keys2 = [row["key"] for row in doc["step2"]]
    assert keys2 == [10]


def test_steps_text_mentions_witnesses(capsys):
    code, out, _ = _run(capsys, "steps", "E8")
    assert code == 0
    assert "m=2" in out or "m = 2" in out
    assert "112" in out and "D8" in out


# ---------------------------------------------------------------------------
# catalog


def test_catalog_json(capsys):
    code, out, _ = _run(capsys, "catalog", "--max-rank", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    specs = [e["spec"] for e in doc["diagrams"]]
    assert "A1" in specs and "3D4" in specs and "D4" in specs
    a1 = next(e for e in doc["diagrams"] if e["spec"] == "A1")
    assert a1 == {"spec": "A1", "e": 1, "nodes": 2, "h_e": 2, "n_e": 1, "dim_g": 3}


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "kacscope" in out
