"""Exact arithmetic kernels: finite fields, polynomials, jets, Groebner.
Each export loads its home module on first use (PEP 562), not on import."""

from importlib import import_module

_EXPORTS = {
    "finitefield": ["FF", "FiniteField", "FFElement", "pth_root"],
    "unipoly": ["UPoly", "RatFunc", "RatFuncField", "ratfunc_pth_root"],
    "multipoly": ["MultiPoly", "RatExpr", "parse_poly", "hessian_at", "det"],
    "jets": ["Jet", "jet_compose"],
    "groebner": ["IdealCertificate", "MembershipResult",
                 "groebner_membership_one", "buchberger", "reduce_poly",
                 "grevlex_key", "leading_term", "standard_monomial_count"],
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
