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

Every classical class is a 0/1 vector whose ones are evenly spaced:
``_spaced(lead, period, gaps, trail)`` is ``lead`` zeros, then ``gaps + 1``
ones ``period`` apart, then ``trail`` zeros.  The two tips of a fork
always carry the same value, so on a fork the spacing runs along the path
that counts both tips as one place, and the second tip repeats the first.
Per family (``n + 1`` is always the node count):

* untwisted ``A``: only the principal class, all ones, of order ``n + 1``;
* ``C_n``: for each divisor ``k`` of ``n``, period ``k`` with a one at
  both ends, of order ``2n/k``;
* ``B_n``: for each divisor ``k`` of ``n``, period ``k`` with
  ``(k - 1) // 2`` zeros at the fork end and ``k // 2`` at the other, of
  order ``2n/k``;
* ``D_n``: for each even divisor ``k`` of ``N = n`` and each odd divisor
  ``k`` of ``N = n - 1``, period ``k`` with ``(k - 1) // 2`` zeros at
  each fork end, of order ``2N/k``;
* twisted ``D`` on base ``n + 1``: the same with ``N = n`` for even ``k``
  and ``N = n + 1`` for odd ``k``, and ``k // 2`` zeros at each end;
* twisted ``A`` on even base ``2n``: for each divisor ``p`` of ``2n + 1``
  with quotient ``d``, and for ``p = 2k`` with ``k`` dividing ``n`` and
  odd quotient ``d = n/k``: ``(d + 1) / 2`` ones ``p`` apart from node 0,
  then ``p // 2`` zeros, of order ``2d``;
* twisted ``A`` on odd base ``2n - 1``: the same two rules for ``2n - 1``
  and ``n``, mirrored: ``(p - 1) // 2`` zeros at the fork end and a one
  on the last node.  Rank 3 is the three-node chain of twisted ``D`` on
  base 3 and takes its classes;
* exceptional diagrams: literal tables below.

Where two rules give one vector, the first keeps it.
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


def _spaced(lead: int, period: int, gaps: int, trail: int) -> tuple[int, ...]:
    """``lead`` zeros, then ``gaps + 1`` ones ``period`` apart, then ``trail`` zeros."""
    # a tuple repeated a negative number of times is empty, so refuse negative counts
    if min(lead, period - 1, gaps, trail) < 0:
        raise AssertionError(f"no spaced vector ({lead}, {period}, {gaps}, {trail})")
    return (0,) * lead + ((1,) + (0,) * (period - 1)) * gaps + (1,) + (0,) * trail


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


def _classes_2a(base: int) -> list[_Generated]:
    if base == 3:
        # the rank-3 twisted diagram is the three-node chain, so its
        # equality classes follow the chain pattern, not the fork pattern
        return _classes_2d(3)
    n, odd = (base + 1) // 2, base % 2
    whole = base + 1 - odd                      # 2n + 1 on even base, 2n - 1 on odd
    rules = [(p, whole // p, whole) for p in _divisors(whole)]
    rules += [(2 * k, n // k, n) for k in _divisors(n) if n // k % 2]
    out = []
    for period, d, of in rules:
        if odd:                                 # zeros at the fork, tip 1 repeats tip 0
            s = _spaced((period - 1) // 2, period, (d - 1) // 2, 0)
            s = s[:1] + s
        else:
            s = _spaced(0, period, (d - 1) // 2, period // 2)
        out.append((2 * d, s, f"divisor d={d} of {of}"))
    return _first_of_each(out)


def _classes_b(n: int) -> list[_Generated]:
    out = []
    for k in _divisors(n):
        s = _spaced((k - 1) // 2, k, n // k - 1, k // 2)
        out.append((2 * n // k, s[:1] + s, f"divisor k={k} of {n}"))
    return out


def _classes_c(n: int) -> list[_Generated]:
    return [(2 * n // k, _spaced(0, k, n // k, 0), f"divisor k={k} of {n}") for k in _divisors(n)]


def _classes_by_parity(even_of: int, odd_of: int, forks: bool) -> list[_Generated]:
    """The D-type rule: period ``k`` for each even divisor of ``even_of`` and each odd
    divisor of ``odd_of``, with a fork at both ends when ``forks``."""
    rules = [("even", k, even_of) for k in _divisors(even_of) if k % 2 == 0]
    rules += [("odd", k, odd_of) for k in _divisors(odd_of) if k % 2]
    out = []
    for parity, k, whole in rules:
        ends = (k - 1) // 2 if forks else k // 2
        s = _spaced(ends, k, whole // k - 1, ends)
        if forks:
            s = s[:1] + s + s[-1:]
        out.append((2 * whole // k, s, f"{parity} divisor k={k} of {whole}"))
    return _first_of_each(out)


def _classes_2d(base: int) -> list[_Generated]:
    return _classes_by_parity(base - 1, base, forks=False)


# (e, family) -> the generator of its classes from the base rank
_CLASSICAL = {
    (1, "A"): lambda n: [(n + 1, _spaced(0, 1, n, 0), "principal")],
    (2, "A"): _classes_2a,
    (1, "B"): _classes_b,
    (1, "C"): _classes_c,
    (1, "D"): lambda n: _classes_by_parity(n, n - 1, forks=True),
    (2, "D"): _classes_2d,
}


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
    if diagram.spec in _EXCEPTIONAL:
        raw = [(m, s, "table") for m, s in _EXCEPTIONAL[diagram.spec]]
    else:
        raw = _CLASSICAL[diagram.ident.e, diagram.ident.family](diagram.ident.base_rank)

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
