"""The classes attaining the bound exactly, generated independently.

The scans in :mod:`kacscope.thomae` *discover* the equality locus by brute
force.  This module *predicts* it: for each classical family the
equality classes are indexed by simple divisor conditions, and for the
exceptional diagrams they form short literal tables.  Keeping the two
routes separate turns their comparison (:func:`crosscheck`) into a real
test rather than a tautology.

Every generated vector is validated on the way out: it must be an
admissible Kac vector of the stated order whose zero set has certificate
value ``f = 0``.  A bad generator therefore fails loudly here, before any
comparison runs.

Generation rules, per family (``n + 1`` is always the node count, ``h``
the twisted Coxeter number):

* untwisted ``A``: only the principal class (all ones, order ``h``);
* twisted ``A`` on even base ``2n``: one class of order ``2d`` for each
  odd ``d`` dividing ``2n + 1`` (zero blocks of width ``2k``) or dividing
  ``n`` with odd quotient written ``d = n/k`` (blocks of width
  ``2k - 1``), the two overlapping exactly at ``d = 1``;
* twisted ``A`` on odd base ``2n - 1``: the same two-divisor pattern for
  ``2n - 1`` and ``n``, with a fork block of zeros in place of the
  leading tip;
* ``B_n``: one class of order ``2n/k`` per divisor ``k`` of ``n``;
* ``C_n``: one class of order ``2n/k`` per divisor ``k`` of ``n``;
* ``D_n``: even divisors of ``n`` and odd divisors of ``n - 1``;
* twisted ``D`` on base ``n + 1``: even divisors of ``n`` and odd
  divisors of ``n + 1``;
* exceptional diagrams: literal tables below.
"""

from __future__ import annotations

from dataclasses import dataclass

from .affine import AffineDiagram
from .dynkin import factors_type_string
from . import kac
from .thomae import DiagramScan, f_value


@dataclass(frozen=True)
class ClassRow:
    """A validated predicted class with the type of its zero set: the one
    record that the TSV, JSON and text classification outputs render."""

    diagram: str
    m: int
    s: tuple[int, ...]
    J_type: str
    provenance: str

    def tsv(self) -> str:
        kac_text = ",".join(str(v) for v in self.s)
        return f"{self.diagram}\t{self.m}\t{kac_text}\t{self.J_type}\t{self.provenance}"


def _assemble(*parts) -> tuple[int, ...]:
    out: list[int] = []
    for part in parts:
        out.extend(part)
    return tuple(out)


def _divisors(n: int) -> list[int]:
    return [k for k in range(1, n + 1) if n % k == 0]


# a generated class before validation: order, Kac vector, generating rule
_Generated = tuple[int, tuple[int, ...], str]


def _first_of_each(raw: list[_Generated]) -> list[_Generated]:
    """``raw`` with each vector kept once, under the first rule that
    gives it, in order."""
    first: dict[tuple[int, ...], _Generated] = {}
    for row in raw:
        first.setdefault(row[1], row)
    return list(first.values())


# ---------------------------------------------------------------------------
# classical generators
# ---------------------------------------------------------------------------


def _classes_a_untwisted(n: int) -> list[_Generated]:
    return [(n + 1, (1,) * (n + 1), "principal")]


def _classes_2a_even(base: int) -> list[_Generated]:
    n = base // 2
    out = []
    for div in _divisors(2 * n + 1):            # div = 2k + 1
        k = (div - 1) // 2
        d = (2 * n + 1) // div
        s = _assemble((1,), *(((0,) * (2 * k) + (1,)) for _ in range((d - 1) // 2)),
                      (0,) * k)
        out.append((2 * d, s, f"divisor d={d} of {2 * n + 1}"))
    for k in _divisors(n):
        d = n // k
        if d % 2 == 0 or d == 1:                # d = 1 duplicates the family above
            continue
        s = _assemble((1,), *(((0,) * (2 * k - 1) + (1,)) for _ in range((d - 1) // 2)),
                      (0,) * k)
        out.append((2 * d, s, f"divisor d={d} of {n}"))
    return out


def _classes_2a_odd(base: int) -> list[_Generated]:
    n = (base + 1) // 2
    out = []
    for div in _divisors(2 * n - 1):            # div = 2k - 1
        k = (div + 1) // 2
        d = (2 * n - 1) // div
        if k == 1:
            s: tuple[int, ...] = (1,) * (n + 1)
        else:
            s = _assemble((0,) * k,
                          *(((1,) + (0,) * (2 * k - 2)) for _ in range((d - 1) // 2)),
                          (1,))
        out.append((2 * d, s, f"divisor d={d} of {2 * n - 1}"))
    for k in _divisors(n):
        d = n // k
        if d % 2 == 0:
            continue
        if k == 1:
            body = [1, 1, 0]
            for t in range(3, n):
                body.append(1 if (t - 3) % 2 == 0 else 0)
            body.append(1)
            s = tuple(body)
        else:
            s = _assemble((0,) * k,
                          *(((1,) + (0,) * (2 * k - 1)) for _ in range((d - 1) // 2)),
                          (1,))
        out.append((2 * d, s, f"divisor d={d} of {n}"))
    return _first_of_each(out)


def _classes_b(n: int) -> list[_Generated]:
    out = []
    for k in _divisors(n):
        if k == 1:
            s: tuple[int, ...] = (1,) * (n + 1)
        elif k == 2:
            s = _assemble((1, 1), tuple(t % 2 for t in range(n - 1)))
        elif k % 2 == 0:
            s = _assemble((0,) * (k // 2),
                          *(((1,) + (0,) * (k - 1)) for _ in range(n // k - 1)),
                          (1,), (0,) * (k // 2))
        else:
            s = _assemble((0,) * ((k + 1) // 2),
                          *(((1,) + (0,) * (k - 1)) for _ in range(n // k - 1)),
                          (1,), (0,) * ((k - 1) // 2))
        out.append((2 * n // k, s, f"divisor k={k} of {n}"))
    return out


def _classes_c(n: int) -> list[_Generated]:
    out = []
    for k in _divisors(n):
        s = _assemble((1,), *(((0,) * (k - 1) + (1,)) for _ in range(n // k)))
        out.append((2 * n // k, s, f"divisor k={k} of {n}"))
    return out


def _classes_d(n: int) -> list[_Generated]:
    out = []
    for k in _divisors(n):
        if k % 2:
            continue
        if k == 2:
            interior = tuple(1 - t % 2 for t in range(1, n - 2))  # 0,1,...,0
            s = _assemble((1, 1), interior, (1, 1))
        else:
            s = _assemble((0,) * (k // 2),
                          *(((1,) + (0,) * (k - 1)) for _ in range(n // k - 1)),
                          (1,), (0,) * (k // 2))
        out.append((2 * n // k, s, f"even divisor k={k} of {n}"))
    for k in _divisors(n - 1):
        if k % 2 == 0:
            continue
        if k == 1:
            s = (1,) * (n + 1)
        else:
            s = _assemble((0,) * ((k + 1) // 2),
                          *(((1,) + (0,) * (k - 1)) for _ in range((n - 1) // k - 1)),
                          (1,), (0,) * ((k + 1) // 2))
        out.append(((2 * n - 2) // k, s, f"odd divisor k={k} of {n - 1}"))
    return _first_of_each(out)


def _classes_2d(base: int) -> list[_Generated]:
    n = base - 1
    out = []
    for k in _divisors(n):
        if k % 2:
            continue
        s = _assemble((0,) * (k // 2),
                      *(((1,) + (0,) * (k - 1)) for _ in range(n // k - 1)),
                      (1,), (0,) * (k // 2))
        out.append((2 * n // k, s, f"even divisor k={k} of {n}"))
    for k in _divisors(n + 1):
        if k % 2 == 0:
            continue
        if k == 1:
            s = (1,) * (n + 1)
        else:
            s = _assemble((0,) * ((k - 1) // 2),
                          *(((1,) + (0,) * (k - 1)) for _ in range((n + 1) // k - 1)),
                          (1,), (0,) * ((k - 1) // 2))
        out.append((2 * (n + 1) // k, s, f"odd divisor k={k} of {n + 1}"))
    return _first_of_each(out)


# ---------------------------------------------------------------------------
# exceptional tables
# ---------------------------------------------------------------------------

_EXCEPTIONAL: dict[str, tuple[tuple[int, tuple[int, ...]], ...]] = {
    "G2": (
        (6, (1, 1, 1)),
        (3, (1, 1, 0)),
        (2, (0, 1, 0)),
    ),
    "3D4": (
        (12, (1, 1, 1)),
        (6, (1, 0, 1)),
        (3, (0, 0, 1)),
    ),
    "F4": (
        (12, (1, 1, 1, 1, 1)),
        (8, (1, 1, 1, 0, 1)),
        (6, (1, 0, 1, 0, 1)),
        (4, (1, 0, 1, 0, 0)),
        (3, (0, 0, 1, 0, 0)),
        (2, (0, 1, 0, 0, 0)),
    ),
    "2E6": (
        (18, (1, 1, 1, 1, 1)),
        (12, (1, 1, 0, 1, 1)),
        (6, (1, 0, 0, 1, 0)),
        (4, (0, 0, 0, 1, 0)),
        (2, (0, 0, 0, 0, 1)),
    ),
    "E6": (
        (12, (1, 1, 1, 1, 1, 1, 1)),
        (9, (1, 1, 0, 1, 1, 1, 1)),
        (6, (1, 0, 1, 0, 1, 0, 1)),
        (3, (0, 0, 1, 0, 0, 0, 0)),
    ),
    "E7": (
        (18, (1, 1, 1, 1, 1, 1, 1, 1)),
        (14, (1, 1, 1, 0, 1, 1, 1, 1)),
        (6, (1, 0, 0, 1, 0, 0, 1, 0)),
        (2, (0, 0, 0, 0, 0, 0, 0, 1)),
    ),
    "E8": (
        (30, (1, 1, 1, 1, 1, 1, 1, 1, 1)),
        (24, (1, 1, 1, 1, 1, 0, 1, 1, 1)),
        (20, (1, 1, 1, 0, 1, 0, 1, 1, 1)),
        (15, (1, 1, 0, 1, 0, 1, 0, 1, 0)),
        (12, (1, 0, 1, 0, 0, 1, 0, 1, 0)),
        (10, (1, 0, 1, 0, 0, 1, 0, 0, 0)),
        (8, (0, 1, 0, 0, 0, 1, 0, 0, 0)),
        (6, (1, 0, 0, 0, 1, 0, 0, 0, 0)),
        (5, (0, 0, 0, 0, 1, 0, 0, 0, 0)),
        (4, (0, 0, 0, 1, 0, 0, 0, 0, 0)),
        (3, (0, 0, 0, 0, 0, 0, 0, 0, 1)),
        (2, (0, 0, 0, 0, 0, 0, 0, 1, 0)),
    ),
}


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------


def expected_classes(diagram: AffineDiagram) -> list[ClassRow]:
    """Predicted equality classes for ``diagram``, validated and sorted.

    Each entry's vector is checked to be admissible, of the stated order,
    and to have ``f = 0`` on its zero set, whose type the row records;
    vectors are put in canonical form under the diagram symmetry (which
    keeps that type).  Sorted by decreasing order, then by vector.
    """
    ident = diagram.ident
    if diagram.spec in _EXCEPTIONAL:
        raw = [(m, s, "table") for m, s in _EXCEPTIONAL[diagram.spec]]
    elif ident.e == 1 and ident.family == "A":
        raw = _classes_a_untwisted(ident.base_rank)
    elif ident.e == 2 and ident.family == "A" and ident.base_rank % 2 == 0:
        raw = _classes_2a_even(ident.base_rank)
    elif ident.e == 2 and ident.family == "A" and ident.base_rank == 3:
        # the rank-3 twisted diagram is the three-node chain, so its
        # equality classes follow the chain pattern, not the fork pattern
        raw = _classes_2d(3)
    elif ident.e == 2 and ident.family == "A":
        raw = _classes_2a_odd(ident.base_rank)
    elif ident.e == 1 and ident.family == "B":
        raw = _classes_b(ident.base_rank)
    elif ident.e == 1 and ident.family == "C":
        raw = _classes_c(ident.base_rank)
    elif ident.e == 1 and ident.family == "D":
        raw = _classes_d(ident.base_rank)
    elif ident.e == 2 and ident.family == "D":
        raw = _classes_2d(ident.base_rank)
    else:  # pragma: no cover - the diagram-name grammar admits nothing else
        raise ValueError(f"no classification data for {diagram.spec}")

    out: list[ClassRow] = []
    seen: set[tuple[int, ...]] = set()
    for m, s, provenance in raw:
        if len(s) != diagram.n_e + 1:
            raise AssertionError(
                f"{diagram.spec}: generated vector {s} has wrong length"
            )
        if not kac.is_admissible(s):
            raise AssertionError(f"{diagram.spec}: inadmissible vector {s}")
        if kac.order_of(diagram, s) != m:
            raise AssertionError(
                f"{diagram.spec}: vector {s} has order "
                f"{kac.order_of(diagram, s)}, expected {m}"
            )
        J = kac.zero_set(diagram, s)
        factors = diagram.factors(J)
        if f_value(diagram, J, factors) != 0:
            raise AssertionError(
                f"{diagram.spec}: vector {s} does not attain the bound"
            )
        canon = kac.canonical(diagram, s)
        if canon in seen:
            raise AssertionError(f"{diagram.spec}: duplicate class {canon}")
        seen.add(canon)
        out.append(ClassRow(diagram.spec, m, canon, factors_type_string(factors), provenance))
    out.sort(key=lambda c: (-c.m, c.s))
    return out


@dataclass(frozen=True)
class Crosscheck:
    """Agreement record between the predicted and the scanned equality."""

    spec: str
    ok: bool
    expected: tuple[tuple[int, tuple[int, ...]], ...]
    scanned: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def missing(self) -> set[tuple[int, tuple[int, ...]]]:
        """Predicted but not found by the scan."""
        return set(self.expected) - set(self.scanned)

    @property
    def unexpected(self) -> set[tuple[int, tuple[int, ...]]]:
        """Found by the scan but not predicted."""
        return set(self.scanned) - set(self.expected)


def crosscheck(diagram: AffineDiagram, scan: DiagramScan) -> Crosscheck:
    """Compare the predicted equality classes with ``scan``, the
    exhaustive scan of ``diagram``."""
    if scan.spec != diagram.spec:
        raise ValueError(f"scan of {scan.spec} given for {diagram.spec}")
    predicted = tuple((c.m, c.s) for c in expected_classes(diagram))
    scanned = tuple((c.m, c.s) for c in scan.equality_classes)
    return Crosscheck(
        spec=diagram.spec,
        ok=set(predicted) == set(scanned),
        expected=predicted,
        scanned=scanned,
    )


TSV_HEADER = "diagram\tm\tkac\tJ_type\tprovenance"


def tsv_rows(diagram: AffineDiagram) -> list[str]:
    """Classification rows for one diagram in tab-separated form."""
    return [row.tsv() for row in expected_classes(diagram)]


def tsv_document(diagrams: list[AffineDiagram]) -> str:
    """The header and the classification rows of every diagram, in order."""
    lines = [TSV_HEADER]
    for diagram in diagrams:
        lines.extend(tsv_rows(diagram))
    return "\n".join(lines) + "\n"
