"""Exact verification of a sharp lower bound on torsion fixed-point dimensions.

The package constructs the twisted affine Dynkin diagrams attached to a
simple Lie algebra with a (possibly outer) finite-order automorphism,
enumerates the automorphism classes through their Kac coordinates, and
certifies — in exact integer arithmetic — that the fixed subalgebra of an
order-``m`` torsion automorphism occupies at least a ``1/m`` fraction of
``dim(g/t)``, with equality precisely on an explicit classified family.

Import the modules by name (``from kacscope import affine, thomae``); the
package root holds only ``__version__``.
"""

__version__ = "0.1.0"
