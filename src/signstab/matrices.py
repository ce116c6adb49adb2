"""Small exact matrix helpers used throughout the engine.

Matrices are tuples of tuples (rows).  Integer matrices stay integer;
exact division routines go through Fraction and check integrality where
the caller expects it.
"""

from __future__ import annotations

from fractions import Fraction

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


def mat_vec(a: Matrix, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def perm_matrix(sigma) -> Matrix:
    """Matrix of the relabeling x'_{sigma(i)} = x_i: entry 1 at (sigma(i), i)."""
    n = len(sigma)
    m = [[0] * n for _ in range(n)]
    for i, si in enumerate(sigma):
        m[si][i] = 1
    return freeze(m)


def is_skew_symmetric(m: Matrix) -> bool:
    n = len(m)
    return all(len(row) == n for row in m) and all(
        m[i][j] == -m[j][i] for i in range(n) for j in range(i, n)
    )


def det(m: Matrix) -> Fraction:
    """Exact determinant by fraction-free-ish Gaussian elimination."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    sign = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    result = Fraction(sign)
    for i in range(n):
        result *= a[i][i]
    return result


def inverse(m: Matrix) -> Matrix:
    """Exact inverse over Fraction (raises ZeroDivisionError if singular)."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        a[col], a[pivot] = a[pivot], a[col]
        inv_p = 1 / a[col][col]
        a[col] = [x * inv_p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return freeze(tuple(row[n:]) for row in a)


def int_inverse(m: Matrix) -> Matrix:
    """Inverse of a unimodular integer matrix, verified integral."""
    inv = inverse(m)
    out = []
    for row in inv:
        new = []
        for x in row:
            if x.denominator != 1:
                raise ValueError("matrix is not unimodular")
            new.append(x.numerator)
        out.append(tuple(new))
    return tuple(out)


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
