"""The predicted equality locus: expected class lists, the scan
crosscheck, and the frozen TSV rows."""

from __future__ import annotations

import gzip
from pathlib import Path

import pytest

from kacscope.affine import build_spec, catalog
from kacscope import cli
from kacscope.ellreg import crosscheck, expected_classes
from kacscope.kac import order_of, zero_set
from kacscope.thomae import f_value, scan_diagram

CATALOG_GOLDEN = Path(__file__).parent / "golden" / "ellreg_catalog40.tsv.gz"

EXPECTED_ORDERS = {
    # exceptional strains, straight from the tabulated lists
    "G2": [6, 3, 2],
    "3D4": [12, 6, 3],
    "F4": [12, 8, 6, 4, 3, 2],
    "E6": [12, 9, 6, 3],
    "2E6": [18, 12, 6, 4, 2],
    "E7": [18, 14, 6, 2],
    "E8": [30, 24, 20, 15, 12, 10, 8, 6, 5, 4, 3, 2],
    # classical families, generated by the divisor rules
    "A1": [2],
    "A5": [6],
    "2A2": [6, 2],
    "2A3": [6, 2],
    "2A6": [14, 6, 2],
    "2A8": [18, 6, 2],
    "2A11": [22, 6, 2],
    "2A12": [26, 6, 2],
    "C3": [6, 2],
    "C12": [24, 12, 8, 6, 4, 2],
    "B6": [12, 6, 4, 2],
    "B12": [24, 12, 8, 6, 4, 2],
    "D4": [6, 4, 2],
    "D5": [8],
    "D8": [14, 8, 4, 2],
    "D12": [22, 12, 6, 4, 2],
    "2D3": [6, 2],
    "2D4": [8],
    "2D5": [10, 4, 2],
    "2D8": [16],
    "2D12": [24, 8],
}


@pytest.mark.parametrize("spec", sorted(EXPECTED_ORDERS))
def test_expected_orders(spec):
    d = build_spec(spec)
    classes = expected_classes(d)
    assert [c.m for c in classes] == EXPECTED_ORDERS[spec]


def test_expected_counts_exceptional():
    counts = {"E6": 4, "2E6": 5, "E7": 4, "E8": 12, "F4": 6, "G2": 3, "3D4": 3}
    for spec, expected in counts.items():
        assert len(expected_classes(build_spec(spec))) == expected


def test_expected_classes_are_valid_equality_points():
    for d in catalog(12):
        for cls in expected_classes(d):
            assert order_of(d, cls.s) == cls.m
            assert f_value(d, zero_set(d, cls.s)) == 0
            assert cls.provenance


def test_expected_classes_sorted_and_distinct():
    for d in catalog(10):
        classes = expected_classes(d)
        ms = [c.m for c in classes]
        assert ms == sorted(ms, reverse=True)
        assert len({c.s for c in classes}) == len(classes)


def test_principal_always_expected():
    for d in catalog(12):
        classes = expected_classes(d)
        assert classes[0].m == d.coxeter
        assert all(v == 1 for v in classes[0].s) or d.e > 1


def test_crosscheck_matches_scan_everywhere():
    for d in catalog(12):
        result = crosscheck(d, scan_diagram(d))
        assert result.ok, (d.spec, result.missing, result.unexpected)
        assert result.spec == d.spec


def test_crosscheck_reports_are_empty_on_match():
    d = build_spec("E8")
    r = crosscheck(d, scan_diagram(d))
    assert not r.missing and not r.unexpected


def test_crosscheck_rejects_a_scan_of_another_diagram():
    with pytest.raises(ValueError):
        crosscheck(build_spec("E8"), scan_diagram(build_spec("E7")))


# ---------------------------------------------------------------------------
# frozen exports


def _tsv(capsys, *argv):
    """The lines ``kacscope ellreg ARGV --format tsv`` writes."""
    assert cli.main(["ellreg", *argv, "--format", "tsv"]) == 0
    return capsys.readouterr().out.splitlines()


def test_tsv_header(capsys):
    assert _tsv(capsys, "G2")[0] == "diagram\tm\tkac\tJ_type\tprovenance"


def test_catalog40_rows_match_golden(capsys):
    # every predicted row of every diagram to rank 40, provenance and order included
    with gzip.open(CATALOG_GOLDEN, "rt", encoding="utf-8") as fh:
        want = fh.read().splitlines()
    got = _tsv(capsys, "--max-rank", "40")
    assert len(got) == len(want) == 799
    for line, expected in zip(got, want):
        assert line == expected
