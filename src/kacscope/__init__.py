"""Exact verification of a sharp lower bound on torsion fixed-point dimensions.

The package constructs the twisted affine Dynkin diagrams attached to a
simple Lie algebra with a (possibly outer) finite-order automorphism,
enumerates the automorphism classes through their Kac coordinates, and
certifies — in exact integer arithmetic — that the fixed subalgebra of an
order-``m`` torsion automorphism occupies at least a ``1/m`` fraction of
``dim(g/t)``, with equality precisely on an explicit classified family.
"""

from .affine import AffineDiagram, Diagram, DiagramId, build_spec, catalog, parse_spec, render_kac
from .dynkin import FiniteFactor, UnsupportedSubdiagramError, factors_type_string
from .ellreg import ClassRow, Crosscheck, crosscheck, expected_classes
from .kac import enumerate_classes, is_admissible, order_of, zero_set
from .reductions import (
    GreekData,
    ReductionTrace,
    graph_f,
    greek_decomposition,
    match_case,
    reduce_to_z,
)
from .thomae import ClassReport, DiagramScan, check_class, f_value, scan_diagram

__version__ = "0.1.0"

__all__ = [
    "AffineDiagram",
    "ClassReport",
    "ClassRow",
    "Crosscheck",
    "Diagram",
    "DiagramId",
    "DiagramScan",
    "FiniteFactor",
    "GreekData",
    "ReductionTrace",
    "UnsupportedSubdiagramError",
    "__version__",
    "build_spec",
    "catalog",
    "check_class",
    "crosscheck",
    "enumerate_classes",
    "expected_classes",
    "f_value",
    "factors_type_string",
    "graph_f",
    "greek_decomposition",
    "is_admissible",
    "match_case",
    "order_of",
    "parse_spec",
    "reduce_to_z",
    "render_kac",
    "scan_diagram",
    "zero_set",
]
