"""Small exact matrix helpers used throughout the engine.

Matrices are tuples of tuples (rows).  Nothing here divides except
``charpoly``, whose divisions are exact in the integers; tropical duality
is checked as the integer product ``G^T C = I``, so no inverse is needed.
"""

from __future__ import annotations

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

    Faddeev-LeVerrier over the integers: M_1 = M, c_{n-1} = -tr(M_1),
    M_{k+1} = M (M_k + c_{n-k} I), c_{n-k-1} = -tr(M_{k+1})/(k+1).  For an
    integer M every c is an integer coefficient, so every M_k stays
    integral and each division is exact.
    """
    n = len(m)
    coeffs = [0] * n + [1]
    mk = m
    for k in range(1, n + 1):
        c, rem = divmod(-sum(mk[i][i] for i in range(n)), k)
        if rem:
            raise ValueError("non-integer characteristic coefficient")
        coeffs[n - k] = c
        if k < n:
            shifted = tuple(
                tuple(x + c if i == j else x for j, x in enumerate(row))
                for i, row in enumerate(mk)
            )
            mk = mat_mul(m, shifted)
    return tuple(coeffs)
