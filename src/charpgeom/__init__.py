"""charpgeom: exact geometry over function fields of odd characteristic.

A workbench for explicit positive-characteristic constructions: function-field
heights and their Northcott failures, inseparable ramified p-coverings with
nondegenerate singularities, formal normal forms at critical points, iterated
blow-up desingularization with smoothness certificates, divisor-class
adjunction on projective bundles over P^2, isotriviality witnesses, Frobenius
factorization, and explicit families violating height inequalities of
Lang/Vojta type.

Everything is exact: finite fields F_{p^m} (p odd), rational function fields
k(t), and integer lattice arithmetic.  Every nontrivial claim a computation
makes is backed by a certificate that re-verifies independently (cofactor
identities, pointwise checks, expansion identities).
"""

import sys
from importlib import util

from . import algebra

__version__ = "0.1.0"

_MODULES = ("heights", "covers", "normalform", "desing", "picard", "cli")
__all__ = ["algebra", *_MODULES, "__version__"]

# Each module is bound here and registered in sys.modules, as if imported,
# but runs only on its first attribute read (importlib.util.LazyLoader).
for _package, _names in ((sys.modules[__name__], _MODULES),
                         (algebra, algebra._EXPORTS)):
    for _name in _names:
        _spec = util.find_spec(f"{_package.__name__}.{_name}")
        _spec.loader = util.LazyLoader(_spec.loader)
        _module = sys.modules[_spec.name] = util.module_from_spec(_spec)
        _spec.loader.exec_module(_module)
        setattr(_package, _name, _module)
