"""Exact linear algebra over a field domain.

Entries need `+ - *`, a truth value (nonzero) and `inverse()`; the domain
supplies `zero` and `one`, as FiniteField and RatFuncField do.  One
Gauss-Jordan elimination serves `det`, `solve`, `inverse` and
`rank_and_nullvector`; `mat_vec` and `mat_mul` are the products.
`cofactor_det` is division-free, so it also works over polynomial rings,
and it is the independent cross-check of `det`.
"""


def _gauss_jordan(rows, ncols, domain):
    """Reduce `rows` in place to reduced row echelon form in the first
    `ncols` columns (later columns ride along).  Returns the (row, column)
    pivots and the product of the pivots signed by the row swaps: the
    determinant when `rows` is square and of full rank."""
    pivots = []
    d = domain.one
    for col in range(ncols):
        prow = len(pivots)
        piv = next((r for r in range(prow, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        if piv != prow:
            rows[prow], rows[piv] = rows[piv], rows[prow]
            d = -d
        d = d * rows[prow][col]
        inv = rows[prow][col].inverse()
        rows[prow] = [x * inv for x in rows[prow]]
        for r in range(len(rows)):
            if r != prow and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[prow])]
        pivots.append((prow, col))
    return pivots, d


def det(mat, domain):
    """Exact determinant of a square matrix."""
    rows = [list(row) for row in mat]
    pivots, d = _gauss_jordan(rows, len(rows), domain)
    return d if len(pivots) == len(rows) else domain.zero


def solve(mat, rhs, domain):
    """The solution x of mat * x = rhs as a tuple; None when mat is singular."""
    rows = [list(row) + [b] for row, b in zip(mat, rhs)]
    pivots, _ = _gauss_jordan(rows, len(rows), domain)
    return tuple(row[-1] for row in rows) if len(pivots) == len(rows) else None


def inverse(mat, domain):
    """Inverse of a square matrix as a list of rows; None when singular."""
    n = len(mat)
    rows = [list(row) + [domain.one if i == j else domain.zero
                         for j in range(n)] for i, row in enumerate(mat)]
    pivots, _ = _gauss_jordan(rows, n, domain)
    return [row[n:] for row in rows] if len(pivots) == n else None


def rank_and_nullvector(rows, ncols, domain):
    """Exact rank; when it is below ncols, also a nonzero v with rows * v = 0
    (else None)."""
    mat = [list(row) for row in rows]
    pivots, _ = _gauss_jordan(mat, ncols, domain)
    if len(pivots) == ncols:
        return ncols, None
    pivot_cols = {c for _, c in pivots}
    free = next(c for c in range(ncols) if c not in pivot_cols)
    vec = [domain.zero] * ncols
    vec[free] = domain.one
    for r, c in pivots:
        vec[c] = -mat[r][free]
    return len(pivots), vec


def mat_vec(mat, vec, domain):
    """The product of a matrix, given as a list of rows, and a vector."""
    return [sum((x * y for x, y in zip(row, vec)), domain.zero) for row in mat]


def mat_mul(a, b, domain):
    """The product of two matrices given as lists of rows."""
    cols = list(zip(*b))
    return [mat_vec(cols, row, domain) for row in a]


def cofactor_det(mat):
    """Determinant of a nonempty square matrix by cofactor expansion along
    the first row; division-free."""
    if len(mat) == 1:
        return mat[0][0]
    acc = None
    for j, a in enumerate(mat[0]):
        term = a * cofactor_det([row[:j] + row[j + 1:] for row in mat[1:]])
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc
