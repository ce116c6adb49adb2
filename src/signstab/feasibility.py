"""Exact feasibility of homogeneous linear systems with strict/weak/equality
constraints, with integer witness points.

The open-cone question "is there x with r.x > 0 for all rows r" drives the
realizable-sign enumeration.  By Motzkin's transposition theorem (Gordan's
when every row is strict) exactly one of these holds:

* some x has S x > 0, W x >= 0, E x = 0;
* some y_S, y_W >= 0 with sum(y_S) = 1 and a free y_E have
  S^T y_S + W^T y_W + E^T y_E = 0.

One phase-1 simplex on the second (transposed) system decides which: a zero
optimum leaves the multiplier y in the basis, a positive optimum leaves a
witness x in the duals of the artificial columns.  The tableau has dim + 1
rows and one column per constraint (two per equality).  Pivoting is
fraction-free (every entry an integer over the running pivot) with Bland's
rule, and both certificates are re-checked exactly in integers before the
answer is returned; a failed check raises ArithmeticError.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _primitive(row):
    """Scale a rational row by a positive factor to a primitive integer row."""
    if not all(type(x) is int for x in row):
        fracs = [Fraction(x) for x in row]
        den = lcm(*(f.denominator for f in fracs))
        row = [f.numerator * (den // f.denominator) for f in fracs]
    g = gcd(*row)
    return tuple(x // g for x in row) if g > 1 else tuple(row)


def _phase1(columns, norm, dim):
    """Fraction-free phase-1 simplex for sum_j y_j columns[j] = 0,
    sum_j norm[j] y_j = 1, y >= 0, started from dim + 1 artificials.

    Returns (tableau, basis, cost, piv): every entry is an integer over the
    final pivot piv > 0, cost[j] is piv times minus the reduced cost of
    column j and cost[-1] is piv times the optimum.
    """
    nv = len(columns)
    m = dim + 1
    total = nv + m
    tableau = []
    for i in range(m):
        row = [c[i] for c in columns] if i < dim else list(norm)
        row.extend(1 if i == k else 0 for k in range(m))
        row.append(1 if i == dim else 0)
        tableau.append(row)
    basis = list(range(nv, total))
    cost = [sum(col) for col in zip(*tableau)]
    for j in range(nv, total):
        cost[j] -= 1
    prev = 1
    while True:
        enter = next((j for j in range(total) if cost[j] > 0), None)
        if enter is None:
            return tableau, basis, cost, prev
        leave = None
        for i in range(m):
            t = tableau[i][enter]
            if t <= 0:
                continue
            if leave is None:
                leave = i
                continue
            lhs = tableau[i][total] * tableau[leave][enter]
            rhs = tableau[leave][total] * t
            if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                leave = i
        if leave is None:
            raise ArithmeticError("phase-1 objective unbounded below")
        piv = tableau[leave][enter]
        prow = tableau[leave]
        for i in range(m):
            if i == leave:
                continue
            row = tableau[i]
            f = row[enter]
            if f:
                tableau[i] = [(piv * a - f * b) // prev for a, b in zip(row, prow)]
            elif piv != prev:
                tableau[i] = [(piv * a) // prev for a in row]
        f = cost[enter]
        if f:
            cost = [(piv * a - f * b) // prev for a, b in zip(cost, prow)]
        elif piv != prev:
            cost = [(piv * a) // prev for a in cost]
        basis[leave] = enter
        prev = piv


def _solve(strict, weak, eq, dim):
    """Witness for {S x > 0, W x >= 0, E x = 0} on primitive integer rows,
    or None when an exactly checked multiplier proves the system empty."""
    if not strict:
        return [0] * dim
    columns = strict + weak + eq + [tuple(-x for x in r) for r in eq]
    norm = [1] * len(strict) + [0] * (len(columns) - len(strict))
    tableau, basis, cost, piv = _phase1(columns, norm, dim)
    nv = len(columns)
    if cost[-1] == 0:
        y = [0] * nv
        for i, b in enumerate(basis):
            if b < nv:
                y[b] = tableau[i][-1]
        if (
            min(y) < 0
            or sum(y[: len(strict)]) != piv
            or any(sum(yj * c[k] for yj, c in zip(y, columns)) for k in range(dim))
        ):
            raise ArithmeticError("empty-cone multiplier failed exact check")
        return None
    x = [-(cost[nv + k] + piv) for k in range(dim)]
    g = gcd(*x)
    if g > 1:
        x = [v // g for v in x]

    def dot(r):
        return sum(c * v for c, v in zip(r, x))

    if (
        any(dot(r) <= 0 for r in strict)
        or any(dot(r) < 0 for r in weak)
        or any(dot(r) for r in eq)
    ):
        raise ArithmeticError("cone witness failed exact check")
    return x


# -- public API ---------------------------------------------------------------


def open_cone_witness(rows, dim):
    """An integer x with r.x > 0 for every row, or None if the open cone is
    empty.  Rows may be empty (any point works, the origin is returned)."""
    return _solve([_primitive(r) for r in rows], [], [], dim)


def mixed_cone_witness(strict, weak, eq, dim):
    """Witness for the mixed system {s.x > 0, w.x >= 0, e.x = 0}."""
    return _solve(
        [_primitive(r) for r in strict],
        [_primitive(r) for r in weak],
        [_primitive(r) for r in eq],
        dim,
    )


def verify_open(rows, x) -> bool:
    return all(sum(Fraction(c) * xi for c, xi in zip(r, x)) > 0 for r in rows)
