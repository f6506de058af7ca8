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

Exit status: 0 on success, 1 when a scan finds a counterexample or a
classification mismatch, or check finds the bound violated, 2 on usage
errors, 3 on internal errors (a subdiagram the classifier rejects, or a
failed self-check of the class generators or the reduction moves).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable, Optional

from . import __version__
from . import ellreg as ellreg_mod
from . import kac, thomae
from .affine import AffineDiagram, build_spec, catalog, render_kac
from .dynkin import UnsupportedSubdiagramError, factors_type_string


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _resolve_diagrams(specs: list[str], max_rank: int) -> list[AffineDiagram]:
    if specs:
        return [build_spec(s) for s in specs]
    return catalog(max_rank)


def _kac_text(s: Iterable[int]) -> str:
    return ",".join(str(v) for v in s)


def _fraction_obj(fr) -> dict[str, int]:
    return {"num": fr.numerator, "den": fr.denominator}


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    diagrams = _resolve_diagrams(args.spec, args.max_rank)
    if not diagrams:
        print(f"no supported diagram has rank <= {args.max_rank}; nothing to verify",
              file=sys.stderr)
        return 2
    results = []
    for diagram in diagrams:
        scan = thomae.scan_diagram(diagram)
        results.append((scan, ellreg_mod.crosscheck(diagram, scan)))

    failed = False
    if args.format == "json":
        doc = {"version": __version__, "diagrams": []}
        for diagram, (scan, match) in zip(diagrams, results):
            failed |= scan.min_f < 0 or not match.ok
            doc["diagrams"].append(
                {
                    "spec": scan.spec,
                    "h_e": scan.h_e,
                    "n_e": scan.n_e,
                    "dim_g": scan.dim_g,
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
            )
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        lines = []
        for diagram, (scan, match) in zip(diagrams, results):
            bad = scan.min_f < 0 or not match.ok
            failed |= bad
            status = "FAIL" if bad else "ok"
            lines.append(
                f"{scan.spec:<6} h_e={scan.h_e:<3} n_e={scan.n_e:<3} "
                f"dim={scan.dim_g:<4} subsets={scan.subsets_checked:<6} "
                f"min_f={scan.min_f:<5} equality={len(scan.equality_classes):<3} "
                f"classification={'match' if match.ok else 'MISMATCH'} {status}"
            )
        total = sum(scan.subsets_checked for scan, _ in results)
        lines.append(
            f"{len(diagrams)} diagram(s), {total} subsets checked, "
            + ("counterexample found" if failed else "bound holds everywhere")
        )
        _emit("\n".join(lines) + "\n", args.out)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def _cmd_enumerate(args: argparse.Namespace) -> int:
    diagram = build_spec(args.spec[0])
    classes = kac.enumerate_classes(diagram, args.order)
    if args.format == "json":
        doc = {
            "version": __version__,
            "spec": diagram.spec,
            "order": args.order,
            "classes": [],
        }
        for s in classes:
            report = thomae.check_class(diagram, s)
            doc["classes"].append(
                {
                    "kac": _kac_text(s),
                    "fixed_type": report.fixed_type,
                    "fixed_dim": report.fixed_dim,
                    "is_equality": report.is_equality,
                }
            )
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        lines = [f"{diagram.spec}: {len(classes)} class(es) of order {args.order}"]
        for s in classes:
            report = thomae.check_class(diagram, s)
            star = "  *" if report.is_equality else ""
            lines.append(
                f"  {render_kac(diagram, s, unicode=args.unicode)}"
                f"   [{report.fixed_type}, dim {report.fixed_dim}]{star}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _cmd_check(args: argparse.Namespace) -> int:
    diagram = build_spec(args.spec[0])
    try:
        s = tuple(int(part) for part in args.kac.split(","))
    except ValueError:
        print(f"--kac expects comma-separated integers, got {args.kac!r}", file=sys.stderr)
        return 2
    if len(s) != diagram.n_e + 1 or not kac.is_admissible(s):
        print(
            f"{args.kac!r} is not an admissible Kac vector for {diagram.spec} "
            f"({diagram.n_e + 1} non-negative entries with gcd 1)",
            file=sys.stderr,
        )
        return 2
    report = thomae.check_class(diagram, s)
    if args.format == "json":
        doc = {
            "version": __version__,
            "spec": report.spec,
            "m": report.m,
            "kac": _kac_text(report.s),
            "zero_set": list(report.zero_set),
            "fixed_type": report.fixed_type,
            "fixed_dim": report.fixed_dim,
            "tau": _fraction_obj(report.tau),
            "bound": _fraction_obj(report.bound),
            "f": report.f,
            "holds": report.holds,
            "is_equality": report.is_equality,
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        verdict = (
            "equality" if report.is_equality else ("holds" if report.holds else "VIOLATED")
        )
        lines = [
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
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if report.holds else 1


# ---------------------------------------------------------------------------
# ellreg
# ---------------------------------------------------------------------------


def _cmd_ellreg(args: argparse.Namespace) -> int:
    diagrams = _resolve_diagrams(args.spec, args.max_rank)
    if args.format == "json":
        doc = {"version": __version__, "classes": []}
        for diagram in diagrams:
            for entry in ellreg_mod.expected_classes(diagram):
                J = kac.zero_set(diagram, entry.s)
                doc["classes"].append(
                    {
                        "diagram": diagram.spec,
                        "m": entry.m,
                        "kac": _kac_text(entry.s),
                        "J_type": factors_type_string(diagram.factors(J)),
                        "provenance": entry.provenance,
                    }
                )
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    elif args.format == "tsv":
        _emit(ellreg_mod.tsv_document(diagrams), args.out)
    else:
        lines = []
        for diagram in diagrams:
            entries = ellreg_mod.expected_classes(diagram)
            lines.append(f"{diagram.spec}: {len(entries)} equality class(es)")
            for entry in entries:
                lines.append(
                    f"  m={entry.m:<3} {render_kac(diagram, entry.s, unicode=args.unicode)}"
                    f"   ({entry.provenance})"
                )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# steps
# ---------------------------------------------------------------------------


def _cmd_steps(args: argparse.Namespace) -> int:
    diagram = build_spec(args.spec[0])
    if diagram.spec not in ("E6", "E7", "E8"):
        print("step tables are defined for E6, E7 and E8 only", file=sys.stderr)
        return 2
    one = thomae.step1_table(diagram)
    two = thomae.step2_table(diagram)

    def row_obj(row: thomae.StepRow) -> dict:
        return {
            "key": row.key,
            "value": row.value,
            "achievers": sorted(row.achievers),
            "witness": _kac_text(row.witness) if row.witness else None,
        }

    if args.format == "json":
        doc = {
            "version": __version__,
            "spec": diagram.spec,
            "step1": [row_obj(one[m]) for m in sorted(one)],
            "step2": [row_obj(two[r]) for r in sorted(two)],
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        lines = [f"{diagram.spec} minimal root counts r(m) for label sums m:"]
        for m in sorted(one):
            row = one[m]
            witness = (
                render_kac(diagram, row.witness, unicode=args.unicode)
                if row.witness
                else "none"
            )
            lines.append(
                f"  m={m:<2} r(m)={row.value:<4} via {', '.join(sorted(row.achievers)):<24}"
                f" extremal: {witness}"
            )
        if two:
            lines.append(f"{diagram.spec} minimal label sums m(r) for root counts r:")
            for r in sorted(two):
                row = two[r]
                witness = (
                    render_kac(diagram, row.witness, unicode=args.unicode)
                    if row.witness
                    else "none"
                )
                lines.append(
                    f"  r={r:<3} m(r)={row.value:<3} via {', '.join(sorted(row.achievers)):<24}"
                    f" extremal: {witness}"
                )
        else:
            lines.append(f"{diagram.spec}: no second table (h - n < 10)")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def _cmd_catalog(args: argparse.Namespace) -> int:
    diagrams = catalog(args.max_rank)
    if args.format == "json":
        doc = {
            "version": __version__,
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
            ],
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        lines = [
            f"{d.spec:<6} e={d.e} nodes={d.n_e + 1:<3} h_e={d.coxeter:<3} "
            f"n_e={d.n_e:<3} dim={d.base_dim}"
            for d in diagrams
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("enumerate", help="torsion classes of one order")
    common(p, 1, unicode=True)
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("check", help="evaluate the bound for one Kac vector")
    common(p, 1, unicode=True)
    p.add_argument("--kac", required=True, help="comma-separated coordinates")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("ellreg", help="predicted equality classification")
    common(p, "*", formats=("text", "json", "tsv"), unicode=True)
    p.add_argument("--max-rank", type=int, default=12)
    p.set_defaults(func=_cmd_ellreg)

    p = sub.add_parser("steps", help="extremal tables (E6/E7/E8)")
    common(p, 1, unicode=True)
    p.set_defaults(func=_cmd_steps)

    p = sub.add_parser("catalog", help="list supported diagrams")
    common(p, "")
    p.add_argument("--max-rank", type=int, default=12)
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UnsupportedSubdiagramError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
