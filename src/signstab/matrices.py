"""Small exact matrix helpers used throughout the engine.

Matrices are tuples of tuples (rows).  Nothing here divides: ``charpoly``
stays in the integers, and tropical duality is checked as the integer
product ``G^T C = I``, so no inverse is needed.
"""

from __future__ import annotations

from operator import mul

Matrix = tuple[tuple, ...]


def freeze(rows) -> Matrix:
    return tuple(tuple(row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def is_skew_symmetric(m: Matrix) -> bool:
    n = len(m)
    return all(len(row) == n for row in m) and all(
        m[i][j] == -m[j][i] for i in range(n) for j in range(i, n)
    )


def charpoly(m: Matrix) -> tuple[int, ...]:
    """Coefficients of det(nu*I - M), ascending degree, exact integers.

    Berkowitz's division-free recurrence (Inf. Process. Lett. 18, 1984):
    split the leading (k + 1) x (k + 1) block as [[M_k, c], [r, a]]; the
    polynomial of that block is the lower-triangular Toeplitz matrix of
    (1, -a, -r.c, -r.M_k.c, ..., -r.M_k^(k-1).c) times the polynomial of
    M_k.  O(n^4) integer operations, no modulus and no division.
    """
    p = [1]  # descending degree
    for k, row in enumerate(m):
        # map stops at len(v) == k, so row and lead read only r and M_k;
        # for k = 0, col ends in an unread r.c = 0
        lead = m[:k]
        v = [w[k] for w in lead]
        col = [1, -row[k], -sum(map(mul, row, v))]
        for _ in range(k - 1):
            v = [sum(map(mul, w, v)) for w in lead]
            col.append(-sum(map(mul, row, v)))
        p = [sum(map(mul, p[:i + 1], col[i::-1])) for i in range(k + 2)]
    return tuple(reversed(p))
