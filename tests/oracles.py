"""Reference computations shared by several test files.

Nothing here imports signstab: these are the independent oracles the
engine's answers are checked against.
"""

from fractions import Fraction
from itertools import combinations


def mutated(b, k):
    """Matrix mutation of the full exchange matrix b at k, from the formula."""
    n = len(b)
    return [
        [
            -b[i][j] if k in (i, j)
            else b[i][j] + max(b[i][k], 0) * max(b[k][j], 0)
            - max(-b[i][k], 0) * max(-b[k][j], 0)
            for j in range(n)
        ]
        for i in range(n)
    ]


def _unique_solution(a, b):
    """The unique solution of a z = b (Fraction elimination), or None when
    the system is inconsistent or underdetermined."""
    m = [[Fraction(x) for x in row] + [Fraction(r)] for row, r in zip(a, b)]
    cols = len(a[0])
    rank = 0
    for c in range(cols):
        p = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if p is None:
            return None
        m[rank], m[p] = m[p], m[rank]
        m[rank] = [x / m[rank][c] for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    if any(row[-1] != 0 for row in m[rank:]):
        return None
    return [m[i][-1] for i in range(cols)]


def gordan_empty(rows, dim):
    """The open cone {x : r.x > 0} is empty iff 0 is in conv(rows) (Gordan).
    By Caratheodory some affinely independent subset of at most dim + 1 rows
    then has 0 in its convex hull, with unique barycentric coordinates."""
    for size in range(1, min(len(rows), dim + 1) + 1):
        for subset in combinations(rows, size):
            a = [[r[k] for r in subset] for k in range(dim)] + [[1] * size]
            lam = _unique_solution(a, [0] * dim + [1])
            if lam is not None and all(x >= 0 for x in lam):
                return True
    return False
