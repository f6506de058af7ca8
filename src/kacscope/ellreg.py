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

Every classical class is a 0/1 vector with evenly spaced ones.  A fork's
two tips always carry the same value, so the spacing runs along the path
that counts them as one place, and the second tip repeats the first.
Before the first one of period ``k``, an end takes zeros by its kind in the
diagram's record of spine ends (see :mod:`kacscope.affine`): a fork
``(k - 1) // 2``, a heavy end ``k // 2`` and a light end none.  The periods
and orders depend on the two end kinds (``n + 1`` is the node count):

* no record (untwisted ``A``): only the principal class, all ones, of
  order ``n + 1``;
* two light ends (``C_n``), or a fork and a heavy end (``B_n``): for each
  divisor ``k`` of ``n``, period ``k``, of order ``2n/k``;
* two forks (``D_n``): for each even divisor ``k`` of ``N = n`` and each
  odd divisor ``k`` of ``N = n - 1``, period ``k``, of order ``2N/k``;
* two heavy ends (twisted ``D`` on base ``n + 1``, and twisted ``A`` on
  base 3, the same graph): the same with ``N = n`` for even ``k`` and
  ``N = n + 1`` for odd ``k``;
* a light end, then a heavy one (twisted ``A`` on even base ``2n``): for
  each divisor ``p`` of ``W = 2n + 1`` with quotient ``d``, and for
  ``p = 2k`` with ``k`` dividing ``n`` and odd quotient ``d = n/k``:
  period ``p``, of order ``2d``;
* a fork, then a light end (twisted ``A`` on odd base ``2n - 1 >= 5``):
  the same two rules with ``W = 2n - 1``;
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


def _divisors(n: int) -> list[int]:
    return [k for k in range(1, n + 1) if n % k == 0]


# a classical rule: the order, the period and the provenance of one class
_Rule = tuple[int, int, str]


# ---------------------------------------------------------------------------
# classical generators
# ---------------------------------------------------------------------------

# the zeros an end of each kind takes before the first one of period k
_END_ZEROS = {"fork": lambda k: (k - 1) // 2, "heavy": lambda k: k // 2, "light": lambda k: 0}


def _spaced(ends: tuple[str, str], n: int, k: int) -> tuple[int, ...]:
    """The 0/1 vector on ``n + 1`` nodes with ones ``k`` apart between spine
    ends of kinds ``ends``.  A period that does not fit gives a vector of
    the wrong length, which :func:`expected_classes` refuses."""
    left, right = ends
    lead, trail = _END_ZEROS[left](k), _END_ZEROS[right](k)
    gaps = (n - ends.count("fork") - lead - trail) // k
    s = (0,) * lead + ((1,) + (0,) * (k - 1)) * gaps + (1,) + (0,) * trail
    return s[:1] * (left == "fork") + s + s[-1:] * (right == "fork")


def _divisor_rules(n: int) -> list[_Rule]:
    """The B and C rule: period ``k`` for each divisor ``k`` of ``n``."""
    return [(2 * n // k, k, f"divisor k={k} of {n}") for k in _divisors(n)]


def _parity_rules(even_of: int, odd_of: int) -> list[_Rule]:
    """The D-type rule: period ``k`` for each even divisor of ``even_of`` and
    each odd divisor of ``odd_of``."""
    rules = [("even", k, even_of) for k in _divisors(even_of) if k % 2 == 0]
    rules += [("odd", k, odd_of) for k in _divisors(odd_of) if k % 2]
    return [(2 * whole // k, k, f"{parity} divisor k={k} of {whole}") for parity, k, whole in rules]


def _2a_rules(whole: int, n: int) -> list[_Rule]:
    """The twisted A rule: period ``p`` for each divisor ``p`` of ``whole`` with
    quotient ``d``, and ``p = 2k`` for each ``k`` dividing ``n`` with odd ``d = n/k``."""
    rules = [(p, whole // p, whole) for p in _divisors(whole)]
    rules += [(2 * k, n // k, n) for k in _divisors(n) if n // k % 2]
    return [(2 * d, period, f"divisor d={d} of {of}") for period, d, of in rules]


# the kinds of the two spine ends -> the rules (order, period, provenance)
# of their classes, from n = nodes - 1
_CLASSICAL = {
    ("fork", "heavy"): _divisor_rules,
    ("light", "light"): _divisor_rules,
    ("fork", "fork"): lambda n: _parity_rules(n, n - 1),
    ("heavy", "heavy"): lambda n: _parity_rules(n, n + 1),
    ("light", "heavy"): lambda n: _2a_rules(2 * n + 1, n),
    ("fork", "light"): lambda n: _2a_rules(2 * n - 1, n),
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
    elif diagram.ends is None:  # untwisted A
        raw = [(diagram.n_e + 1, (1,) * (diagram.n_e + 1), "principal")]
    else:
        kinds = tuple(end.kind for end in diagram.ends)
        first: dict[tuple[int, ...], tuple[int, str]] = {}
        for m, k, rule in _CLASSICAL[kinds](diagram.n_e):
            first.setdefault(_spaced(kinds, diagram.n_e, k), (m, rule))
        raw = [(m, s, rule) for s, (m, rule) in first.items()]

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
