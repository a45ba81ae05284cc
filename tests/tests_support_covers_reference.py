"""Frozen reference: chart sections and monomial substitution on exponent
tuples.

`dehomogenize_charts` and `ratexpr_subs` are `covers.dehomogenize_charts`
and `RatExpr.subs` as they were written on {exponent tuple: element}
dicts, read through `MultiPoly.terms` and rebuilt by the validating
`MultiPoly` constructor.  The versions in `charpgeom` replaced them by
arithmetic on packed keys and coefficient codes; the differential tests
compare the two.  Do not edit: its value is that it does not change.
"""

from charpgeom.algebra.multipoly import MultiPoly, RatExpr


def dehomogenize_charts(form, N):
    """The form on the N + 1 standard charts: X_i = 1 on chart i, which
    drops exponent i from every term of a homogeneous form."""
    if not form.is_homogeneous():
        raise ValueError("dehomogenizing needs a homogeneous form")
    terms = form.terms
    return [MultiPoly(form.domain, N, {e[:i] + e[i + 1:]: c
                                       for e, c in terms.items()})
            for i in range(N + 1)]


def ratexpr_subs(expr, exprs):
    """`expr.subs(exprs)` for monomial fractions a x^u / (b x^v): a term
    c x^e goes to c prod (a_i/b_i)^e_i times x to the power
    sum e_i (u_i - v_i), maybe negative; one shift by the least exponent of
    each variable, over numerator and denominator, clears both."""
    n = expr.num.n
    if len(exprs) != n:
        raise ValueError("substitution needs one expression per variable")
    domain, m = expr.num.domain, exprs[0].num.n
    maps = []
    for r in exprs:
        num, den = r.num.terms, r.den.terms
        if len(num) != 1 or len(den) != 1:
            raise ValueError(f"substitution needs quotients of monomials, not {r!r}")
        (u, a), = num.items()
        (v, b), = den.items()
        maps.append((tuple(x - y for x, y in zip(u, v)),
                     None if a == b else a / b))

    def laurent(poly):
        out, zero = {}, domain.zero
        for e, c in poly.terms.items():
            exps = [0] * m
            for k, (shift, ratio) in zip(e, maps):
                if k:
                    exps = [x + k * y for x, y in zip(exps, shift)]
                    if ratio is not None:
                        c = c * ratio ** k
            exps = tuple(exps)
            out[exps] = out.get(exps, zero) + c
        return out
    num, den = laurent(expr.num), laurent(expr.den)
    low = [min(col) for col in zip(*num, *den)] or [0] * m
    return RatExpr(*(MultiPoly(domain, m, {
        tuple(x - y for x, y in zip(e, low)): c for e, c in part.items()})
        for part in (num, den)))
