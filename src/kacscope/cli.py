"""Command line interface.

Subcommands
-----------
verify     scan diagrams, certify the bound, compare the equality locus
enumerate  list the torsion classes of one order on one diagram
check      evaluate the bound for one Kac vector, exactly
ellreg     emit the predicted equality classification
steps      extremal tables for E6/E7/E8
catalog    list the supported diagrams

Each takes ``--out FILE`` and ``--format text|json``; ellreg also renders
``tsv``.  ``--unicode`` (bonds drawn as arrows) is taken by the four that
render Kac vectors: enumerate, check, ellreg and steps.

Each subcommand computes its records once and returns its exit code, its
JSON document (without ``version``) and a renderer of its text lines.
:func:`main` is the one writer: it adds ``version``, renders the format
asked for into one list of string pieces (JSON by :func:`_json_pieces`, text
as each line and ``"\n"``) and writes that list to ``--out`` or stdout, so no
string holds the whole document.  enumerate keeps one index per class into its
distinct records, and renders only the format asked for: its JSON document
holds a callable that the writer calls at the list's depth, and its text
lines are tuples of pieces.

Every subcommand refuses a base rank or a ``--max-rank`` above
:data:`MAX_RANK` before it builds anything.

Exit status: 0 on success, 1 when a scan finds a counterexample or a
classification mismatch, or check or enumerate finds the bound violated,
2 on usage errors (including an ``--out`` file or a stdout that cannot be
written), 3 on internal errors (a subdiagram the classifier rejects, a failed
self-check of the class generators or the reduction moves, or any other
exception).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _quote
from itertools import chain, repeat
from operator import mul, not_
from typing import Callable, Iterable, Optional

from . import __version__
from . import ellreg as ellreg_mod
from . import kac, thomae
from .affine import AffineDiagram, build_spec, catalog, parse_spec, render_kac
from .dynkin import UnsupportedSubdiagramError

# what every subcommand returns: exit code, JSON document, text renderer (lines or piece tuples)
Report = tuple[int, dict, Callable[[], Iterable]]
_LITERALS = {None: "null", True: "true", False: "false"}
_DIGITS = {v: str(v) for v in range(100)}


# the highest base rank any subcommand builds.  A diagram of base rank n takes O(n^2) to
# build (the Omega of untwisted A holds n + 1 rotations): A1000 takes 0.18 s and 46 MB,
# A2000 0.7 s and 154 MB.  The catalog to rank r builds every family to r, O(r^3) in all:
# catalog(200) takes 1.8 s and 100 MB, catalog(300) 3.3 s and 235 MB (peak RSS of the
# process, on a 2-vCPU x86-64 host)
MAX_RANK = 200


def _resolve_diagrams(specs: list[str], max_rank: int = 0) -> list[AffineDiagram]:
    """The diagrams ``specs`` names, or else the catalog to ``max_rank``; a rank above
    :data:`MAX_RANK` is refused before anything is built, and an empty catalog after."""
    for ident in map(parse_spec, specs):
        if ident.base_rank > MAX_RANK:
            raise ValueError(f"{ident.spec} has base rank {ident.base_rank}, "
                             f"more than the {MAX_RANK} that kacscope builds")
    if specs:
        return [build_spec(s) for s in specs]
    if max_rank > MAX_RANK:
        raise ValueError(f"--max-rank {max_rank} is more than the {MAX_RANK} that kacscope builds")
    if not (diagrams := catalog(max_rank)):
        raise ValueError(f"no supported diagram has rank <= {max_rank}; nothing to verify")
    return diagrams


def _kac_text(s: tuple[int, ...]) -> str:
    try:
        return ",".join(map(_DIGITS.__getitem__, s))
    except KeyError:  # an entry of 100 or more is formatted, not added to the table
        return ",".join(map(str, s))


def _json_pieces(value, pad: str, out: list) -> None:
    """Append to ``out`` the pieces of ``json.dumps(value)`` at a two-space indent, for a
    value at the depth ``pad``, without the stdlib's pure-Python indent encoder: each
    container appends its brackets, separators and entries; keys must be strings.
    A callable value renders itself: it is called as ``value(pad, out)``."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None or value is True or value is False:
        out.append(_LITERALS[value])
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        inner, sep = pad + "  ", "{"
        for k, v in value.items():
            out.append(f"{sep}{inner}{_quote(k)}: ")
            _json_pieces(v, inner, out)
            sep = ","
        out.append(pad + "}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        inner, sep = pad + "  ", "["
        for v in value:
            out.append(sep + inner)
            _json_pieces(v, inner, out)
            sep = ","
        out.append(pad + "]" if value else "[]")
    elif callable(value):
        value(pad, out)
    else:  # floats and any other scalar
        out.append(json.dumps(value))


def _json(value, pad: str = "\n") -> str:
    """The bytes of ``json.dumps(value)`` at a two-space indent: :func:`_json_pieces`, joined."""
    out: list = []
    _json_pieces(value, pad, out)
    return "".join(out)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


# the most nodes verify scans: its subset tables hold 2^nodes entries, and
# 24 nodes (B23) take 0.27 GB and 4 s on a 2-vCPU x86-64 host, each node
# more doubling both
MAX_VERIFY_NODES = 24


def _cmd_verify(args: argparse.Namespace) -> Report:
    # a diagram of base rank n has more than n/2 nodes, so a rank above twice the cap is
    # refused before it is built, and the catalog is cut there (its first refusal is A24)
    for ident in map(parse_spec, args.spec):
        if ident.base_rank > 2 * MAX_VERIFY_NODES:
            raise ValueError(f"{ident.spec} has base rank {ident.base_rank}, so more than "
                             f"the {MAX_VERIFY_NODES} nodes that verify scans")
    diagrams = _resolve_diagrams(args.spec, min(args.max_rank, 2 * MAX_VERIFY_NODES))
    for diagram in diagrams:
        nodes = len(diagram.nodes)
        if nodes > MAX_VERIFY_NODES:
            raise ValueError(
                f"{diagram.spec} has {nodes} nodes ({(1 << nodes) - 1:,} zero sets), "
                f"more than the {MAX_VERIFY_NODES} that verify scans"
            )
    results = []
    for diagram in diagrams:
        scan = thomae.scan_diagram(diagram)
        match = ellreg_mod.crosscheck(diagram, scan)
        results.append((diagram, scan, match, scan.min_f < 0 or not match.ok))
    failed = any(bad for *_, bad in results)

    doc = {
        "diagrams": [
            {
                "spec": scan.spec,
                "h_e": diagram.coxeter,
                "n_e": diagram.n_e,
                "dim_g": diagram.base_dim,
                "classes_checked": scan.subsets_checked,
                "min_f": scan.min_f,
                "equality_classes": [
                    {
                        "m": c.m,
                        "kac": _kac_text(c.s),
                        "fixed_type": c.fixed_type,
                        "fixed_dim": c.fixed_dim,
                    }
                    for c in scan.equality_classes
                ],
                "ellreg_match": match.ok,
            }
            for diagram, scan, match, _ in results
        ]
    }

    def text() -> list[str]:
        lines = [
            f"{scan.spec:<6} h_e={diagram.coxeter:<3} n_e={diagram.n_e:<3} "
            f"dim={diagram.base_dim:<4} subsets={scan.subsets_checked:<6} "
            f"min_f={scan.min_f:<5} equality={len(scan.equality_classes):<3} "
            f"classification={'match' if match.ok else 'MISMATCH'} "
            f"{'FAIL' if bad else 'ok'}"
            for diagram, scan, match, bad in results
        ]
        total = sum(scan.subsets_checked for _, scan, _, _ in results)
        lines.append(
            f"{len(diagrams)} diagram(s), {total} subsets checked, "
            + ("counterexample found" if failed else "bound holds everywhere")
        )
        return lines

    return (1 if failed else 0), doc, text


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def _cmd_enumerate(args: argparse.Namespace) -> Report:
    diagram, = _resolve_diagrams(args.spec)
    if args.order <= 0:
        raise ValueError(f"--order must be a positive integer, got {args.order}")
    classes = kac.enumerate_classes(diagram, args.order)
    # each class is checked in turn, and the first bad one named: one entry per node, all
    # >= 0 with gcd 1, and order --order
    labels, e = tuple(diagram.labels.values()), diagram.e
    for s in classes:
        if len(s) != len(labels) or not kac.is_admissible(s):
            raise AssertionError(f"class {_kac_text(s)} of {diagram.spec} is not admissible")
        if (m := e * sum(map(mul, labels, s))) != args.order:
            raise AssertionError(f"class {_kac_text(s)} has order {m}, not {args.order}")
    # the zero set is read off s, and the first class with it goes through check_class.  A
    # class keeps only the index of its record, the part of its report that it prints (the
    # verdict too, as m is fixed); each renderer renders a record once
    records: dict = {}  # (fixed_type, fixed_dim, is_equality, holds) -> its index
    by_zero_set: dict = {}  # zero set -> its record's index
    which = []  # each class's record index
    zero_sets = map(tuple, map(map, repeat(not_), classes))  # each class's, read off s
    for key, s in zip(zero_sets, classes):
        if (i := by_zero_set.get(key)) is None:
            report = thomae.check_class(diagram, s)
            record = report.fixed_type, report.fixed_dim, report.is_equality, report.holds
            i = by_zero_set[key] = records.setdefault(record, len(records))
        which.append(i)

    def json_classes(pad: str, out: list) -> None:
        # a class is its record's head, separator included, its Kac text (digits and commas
        # need no quoting) and its record's tail; the list's "[" replaces the first ","
        inner, heads, tails = pad + "  ", [], []
        for fixed_type, fixed_dim, is_equality, _ in records:
            fields = {"kac": "", "fixed_type": fixed_type, "fixed_dim": fixed_dim,
                      "is_equality": is_equality}
            head, _, tail = _json(fields, inner).partition('""')
            heads.append(f',{inner}{head}"')
            tails.append(f'"{tail}')
        start = len(out)
        out += chain.from_iterable(zip(map(heads.__getitem__, which), map(_kac_text, classes),
                                       map(tails.__getitem__, which)))
        if classes:
            out[start] = "[" + out[start][1:]
        out.append(pad + "]" if classes else "[]")

    def text() -> Iterable:
        tails = [f"   [{fixed_type}, dim {fixed_dim}]"
                 + ("  *" if is_equality else "" if holds else "  VIOLATED")
                 for fixed_type, fixed_dim, is_equality, holds in records]
        kac_lines = map(render_kac, repeat(diagram), classes, repeat(args.unicode))
        return chain([f"{diagram.spec}: {len(classes)} class(es) of order {args.order}"],
                     zip(repeat("  "), kac_lines, map(tails.__getitem__, which)))

    doc = {"spec": diagram.spec, "order": args.order, "classes": json_classes}
    return (0 if all(holds for *_, holds in records) else 1), doc, text


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _cmd_check(args: argparse.Namespace) -> Report:
    diagram, = _resolve_diagrams(args.spec)
    try:
        s = tuple(int(part) for part in args.kac.split(","))
    except ValueError:
        raise ValueError(
            f"--kac expects comma-separated integers, got {args.kac!r}"
        ) from None
    report = thomae.check_class(diagram, s)
    doc = {
        "spec": report.spec,
        "m": report.m,
        "kac": _kac_text(report.s),
        "zero_set": list(report.zero_set),
        "fixed_type": report.fixed_type,
        "fixed_dim": report.fixed_dim,
        "tau": {"num": 1, "den": report.m},
        "bound": {"num": report.bound.numerator, "den": report.bound.denominator},
        "f": report.f,
        "holds": report.holds,
        "is_equality": report.is_equality,
    }
    verdict = "equality" if report.is_equality else ("holds" if report.holds else "VIOLATED")
    return (0 if report.holds else 1), doc, lambda: [
        f"{report.spec}  {render_kac(diagram, s, unicode=args.unicode)}",
        f"  order m        = {report.m}",
        f"  zero set       = {list(report.zero_set)}",
        f"  fixed type     = {report.fixed_type}",
        f"  fixed dim      = {report.fixed_dim}",
        f"  1/m            = {report.tau}",
        f"  dim ratio      = {report.bound}",
        f"  f certificate  = {report.f}",
        f"  verdict        = {verdict}",
    ]


# ---------------------------------------------------------------------------
# ellreg
# ---------------------------------------------------------------------------


def _cmd_ellreg(args: argparse.Namespace) -> Report:
    tables = [
        (diagram, ellreg_mod.expected_classes(diagram))
        for diagram in _resolve_diagrams(args.spec, args.max_rank)
    ]
    # the keys of each JSON record, which are also the TSV columns
    keys = ("diagram", "m", "kac", "J_type", "provenance")
    doc = {
        "classes": [
            dict(zip(keys, (row.diagram, row.m, _kac_text(row.s), row.J_type, row.provenance)))
            for _, rows in tables
            for row in rows
        ]
    }

    def text() -> list[str]:
        if args.format == "tsv":
            return ["\t".join(keys)] + ["\t".join(map(str, record.values()))
                                        for record in doc["classes"]]
        lines = []
        for diagram, rows in tables:
            lines.append(f"{diagram.spec}: {len(rows)} equality class(es)")
            lines.extend(
                f"  m={row.m:<3} {render_kac(diagram, row.s, unicode=args.unicode)}"
                f"   ({row.provenance})"
                for row in rows
            )
        return lines

    return 0, doc, text


# ---------------------------------------------------------------------------
# steps
# ---------------------------------------------------------------------------


def _cmd_steps(args: argparse.Namespace) -> Report:
    diagram, = _resolve_diagrams(args.spec)
    step1, step2 = thomae.extremal_tables(diagram)
    # JSON key, table, title, key and value names, and their column widths
    tables = (
        ("step1", step1, "minimal root counts r(m) for label sums m", "m", "r(m)", 2, 4),
        ("step2", step2, "minimal label sums m(r) for root counts r", "r", "m(r)", 3, 3),
    )
    doc: dict = {"spec": diagram.spec}
    for name, table, *_ in tables:
        doc[name] = [
            {
                "key": row.key,
                "value": row.value,
                "achievers": sorted(row.achievers),
                "witness": _kac_text(row.witness) if row.witness else None,
            }
            for _, row in sorted(table.items())
        ]

    def text() -> list[str]:
        lines = []
        for _, table, title, key, value, key_w, value_w in tables:
            if not table:  # only the second table can be empty
                lines.append(f"{diagram.spec}: no second table (h - n < 10)")
                continue
            lines.append(f"{diagram.spec} {title}:")
            for k, row in sorted(table.items()):
                witness = (
                    render_kac(diagram, row.witness, unicode=args.unicode)
                    if row.witness
                    else "none"
                )
                lines.append(
                    f"  {key}={k:<{key_w}} {value}={row.value:<{value_w}} "
                    f"via {', '.join(sorted(row.achievers)):<24} extremal: {witness}"
                )
        return lines

    return 0, doc, text


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def _cmd_catalog(args: argparse.Namespace) -> Report:
    diagrams = _resolve_diagrams([], args.max_rank)
    doc = {
        "diagrams": [
            {
                "spec": d.spec,
                "e": d.e,
                "nodes": d.n_e + 1,
                "h_e": d.coxeter,
                "n_e": d.n_e,
                "dim_g": d.base_dim,
            }
            for d in diagrams
        ]
    }
    return 0, doc, lambda: [
        f"{d.spec:<6} e={d.e} nodes={d.n_e + 1:<3} h_e={d.coxeter:<3} "
        f"n_e={d.n_e:<3} dim={d.base_dim}"
        for d in diagrams
    ]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; :func:`main` calls ``_cmd_<command>``."""
    parser = argparse.ArgumentParser(
        prog="kacscope",
        description="Exact certification of the torsion fixed-point dimension bound.",
    )
    parser.add_argument("--version", action="version", version=f"kacscope {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, spec_nargs, formats=("text", "json"), unicode=False):
        if spec_nargs:
            p.add_argument("spec", nargs=spec_nargs, help="diagram such as B6, 2D5, 3D4, E8")
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", help="write output to this file instead of stdout")
        if unicode:
            p.add_argument("--unicode", action="store_true", help="render bonds with arrows")

    p = sub.add_parser("verify", help="scan diagrams and certify the bound")
    common(p, "*")
    p.add_argument("--max-rank", type=int, default=12)

    p = sub.add_parser("enumerate", help="torsion classes of one order")
    common(p, 1, unicode=True)
    p.add_argument("--order", type=int, required=True)

    p = sub.add_parser("check", help="evaluate the bound for one Kac vector")
    common(p, 1, unicode=True)
    p.add_argument("--kac", required=True, help="comma-separated coordinates")

    p = sub.add_parser("ellreg", help="predicted equality classification")
    common(p, "*", formats=("text", "json", "tsv"), unicode=True)
    p.add_argument("--max-rank", type=int, default=12)

    p = sub.add_parser("steps", help="extremal tables (E6/E7/E8)")
    common(p, 1, unicode=True)

    p = sub.add_parser("catalog", help="list supported diagrams")
    common(p, "")
    p.add_argument("--max-rank", type=int, default=12)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, doc, text = globals()[f"_cmd_{args.command}"](args)
        pieces: list = []  # the whole output, built before any of it is written
        if args.format == "json":
            _json_pieces({"version": __version__, **doc}, "\n", pieces)
            pieces.append("\n")
        else:
            for line in text():  # a string, or a tuple of the pieces it is joined from
                pieces += (line, "\n") if isinstance(line, str) else (*line, "\n")
    except (UnsupportedSubdiagramError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except Exception as exc:  # any other fault is the program's; exit 1 means a counterexample
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.writelines(pieces)
        else:
            chunks = pieces
            if getattr(sys.stdout, "write_through", False):  # python -u: a system call per write
                chunks = ("".join(pieces[i:i + 4096]) for i in range(0, len(pieces), 4096))
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
    except OSError as exc:
        if not args.out:  # a closed pipe: the interpreter's last flush must not raise again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"cannot write {'--out file' if args.out else 'stdout'}: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
