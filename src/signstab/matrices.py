"""Small exact matrix helpers used throughout the engine.

Matrices are tuples of tuples (rows).  Nothing here inverts over the
rationals: ``charpoly`` inverts only modulo primes, and tropical duality
is checked as the integer product ``G^T C = I``, so no inverse is needed.
"""

from __future__ import annotations

Matrix = tuple[tuple, ...]

# Exponents e of Mersenne primes 2^e - 1, ascending: the moduli of
# ``charpoly``.  Each is a proven prime; a modulus is built only when used.
_MERSENNE_EXPONENTS = (
    61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689,
    9941, 11213, 19937, 21701, 23209, 44497, 86243, 110503, 132049, 216091,
    756839, 859433, 1257787, 1398269, 2976221, 3021377, 6972593, 13466917,
    20996011, 24036583, 25964951, 30402457, 32582657, 37156667, 42643801,
    43112609, 57885161,
)


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

    With R = ||M||_inf >= rho(M), every coefficient is bounded:
    |c_{n-k}| = |e_k(eigenvalues)| <= C(n, k) R^k <= (1 + R)^n.  The
    polynomial is computed modulo the table's Mersenne primes, in ascending
    order, until their product exceeds twice that bound; the residues are
    combined by CRT and read as symmetric residues, which are the exact
    coefficients.  One 61-bit prime covers n * bits(1 + R) <= 59, as for
    every 12 x 12 sphere3b presentation matrix (R <= 11).  A bound past the
    whole table, n * bits(1 + R) of about 3.4e8, is a ValueError.
    """
    n = len(m)
    r = max((sum(map(abs, row)) for row in m), default=0)
    # 2 (1 + R)^n < 2^need, and a prime 2^e - 1 exceeds 2^(e - 1)
    need = n * (1 + r).bit_length() + 1
    if need > sum(e - 1 for e in _MERSENNE_EXPONENTS):
        raise ValueError("characteristic polynomial bound past the modulus table")
    coeffs, modulus = [0] * (n + 1), 1
    for e in _MERSENNE_EXPONENTS:
        p = (1 << e) - 1
        inv = pow(modulus, -1, p)
        coeffs = [c + modulus * ((x - c) * inv % p)
                  for c, x in zip(coeffs, _charpoly_mod(m, p))]
        modulus *= p
        need -= e - 1
        if need <= 0:
            break
    half = modulus // 2
    return tuple(c - modulus if c > half else c for c in coeffs)


def _charpoly_mod(m: Matrix, p: int) -> list[int]:
    """det(nu*I - M) mod the prime p, ascending, entries in [0, p).

    M is reduced to upper Hessenberg form H by similarity over F_p: at
    column j, a row and column swap brings a nonzero entry to the
    subdiagonal (a column with none below the diagonal is already
    reduced), and row i gets row j + 1 times u subtracted while column
    j + 1 gets column i times u added.  The polynomials P_k of H's leading
    k x k blocks then follow the Hessenberg recurrence
    P_k = (nu - h_{k-1,k-1}) P_{k-1}
          - sum_i (h_{k-1,k-2} ... h_{k-i,k-1-i}) h_{k-1-i,k-1} P_{k-1-i},
    which stops at the first zero subdiagonal factor.  O(n^3) operations.
    """
    n = len(m)
    a = [[x % p for x in row] for row in m]
    for j in range(n - 2):
        k = j + 1
        piv = next((i for i in range(k, n) if a[i][j]), None)
        if piv is None:
            continue
        if piv != k:
            a[piv], a[k] = a[k], a[piv]
            for row in a:
                row[piv], row[k] = row[k], row[piv]
        rk = a[k]
        inv = pow(rk[j], -1, p)
        for i in range(k + 1, n):
            ri = a[i]
            if ri[j]:
                u = ri[j] * inv % p
                ri[j:] = [(x - u * y) % p for x, y in zip(ri[j:], rk[j:])]
                for row in a:
                    row[k] = (row[k] + u * row[i]) % p
    polys = [[1]]
    for k in range(1, n + 1):
        prev = polys[-1]
        h = a[k - 1][k - 1]
        new = [0, *prev]
        for c, x in enumerate(prev):
            new[c] -= h * x
        sub = 1  # h_{k-1,k-2} ... h_{k-i,k-1-i}
        for i in range(1, k):
            sub = sub * a[k - i][k - 1 - i] % p
            if not sub:
                break
            f = sub * a[k - 1 - i][k - 1]
            for c, x in enumerate(polys[k - 1 - i]):
                new[c] -= f * x
        polys.append([x % p for x in new])
    return polys[-1]
