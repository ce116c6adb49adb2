"""Exact feasibility of homogeneous linear systems with strict/weak/equality
constraints, with integer witness points and empty-cone multipliers.

The open-cone question "is there x with r.x > 0 for all rows r" drives the
realizable-sign enumeration.  By Motzkin's transposition theorem (Gordan's
when every row is strict) exactly one of these holds:

* some x has S x > 0, W x >= 0, E x = 0;
* some y_S, y_W >= 0 with sum(y_S) = 1 and a free y_E have
  S^T y_S + W^T y_W + E^T y_E = 0.

One phase-1 simplex on the second (transposed) system decides which: a zero
optimum leaves the multiplier y in the basis, a positive optimum leaves a
witness x in the duals of the artificial columns.  The tableau has dim + 1
rows and one column per constraint (an equality is two opposite weak
rows).  Pivoting is fraction-free (every entry an integer over the running
pivot) with Bland's rule.

The tableau grows one constraint at a time (:meth:`Tableau.extend`).  A
new constraint is one new column; the current basis stays primal feasible,
so the simplex goes on from where it stopped instead of starting phase 1
again.  When the new column prices out, the basis is still optimal and
the witness is unchanged.  When the grown system is empty, ``extend``
hands back its multiplier as ((row, y), ...) over the support, every
y > 0.  For open cones that multiplier is a Gordan certificate for every
cone that contains its rows, so a caller may keep it and prune such a
cone without a solve, after :func:`check_gordan` checks it again.

Every witness is checked exactly on every row of its system, and every
multiplier is checked exactly before a system is declared empty; a failed
check raises ArithmeticError.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def _primitive(row):
    """Scale a rational row by a positive factor to a primitive integer row."""
    if not all(type(x) is int for x in row):
        fracs = [Fraction(x) for x in row]
        den = lcm(*(f.denominator for f in fracs))
        row = [f.numerator * (den // f.denominator) for f in fracs]
    g = gcd(*row)
    return tuple(x // g for x in row) if g > 1 else tuple(row)


class Tableau:
    """Fraction-free phase-1 tableau of the transposed system of a list of
    constraints, with the witness of the constraints when they are feasible.

    ``rows`` holds dim + 1 integer rows laid out as [rhs, artificial block
    piv*B^-1 (dim + 1 columns), one column per constraint]; ``cost`` is the
    cost row in the same layout (piv times minus the reduced costs, so
    ``cost[0]`` is piv times the phase-1 optimum); ``basis`` names the
    basic column of each row and ``piv`` is the last pivot.  ``cons`` lists
    the constraints as (row, strict) pairs and ``witness`` is a primitive
    integer point checked on every one of them.  A tableau is never changed
    after it is built: :meth:`extend` returns a new one.
    """

    __slots__ = ("rows", "cost", "basis", "piv", "cons", "witness")

    def __init__(self, rows, cost, basis, piv, cons, witness):
        self.rows = rows
        self.cost = cost
        self.basis = basis
        self.piv = piv
        self.cons = cons
        self.witness = witness

    @classmethod
    def empty(cls, dim: int) -> "Tableau":
        """The tableau of no constraints: every artificial is basic."""
        m = dim + 1
        rows = [[int(i == dim)] + [int(i == k) for k in range(m)]
                for i in range(m)]
        return cls(rows, [1] + [0] * m, list(range(1, m + 1)), 1, (),
                   (-1,) * dim)

    def extend(self, row, strict: bool = True) -> "Tableau | tuple":
        """The tableau of these constraints plus row.x > 0 (or row.x >= 0
        when not strict), for an integer row.  When the grown system is
        empty, its exactly checked multiplier instead: a tuple of
        (row, y) pairs over the support, every y > 0."""
        piv, m = self.piv, len(self.rows)
        # (0; row; strict) against [rhs, artificial block, ...]: map stops
        # at the end of the artificial block
        col = (0, *row, int(strict))
        rows = [r + [sum(map(mul, r, col))] for r in self.rows]
        price = sum(map(mul, self.cost, col)) + piv * sum(col)
        cost = self.cost + [price]
        cons = self.cons + ((row, strict),)
        if price <= 0:
            # the basis stays optimal, so the witness is the parent's
            _check_witness([(row, strict)], self.witness)
            return Tableau(rows, cost, self.basis, piv, cons, self.witness)
        basis = list(self.basis)
        piv = _optimize(rows, cost, basis, piv, m + 1)
        if cost[0] == 0:
            return _multiplier(rows, basis, piv, cons, m + 1)
        x = [-(c + piv) for c in cost[1:m]]
        g = gcd(*x)
        if g > 1:
            x = [v // g for v in x]
        _check_witness(cons, x)
        return Tableau(rows, cost, basis, piv, cons, tuple(x))


def _check_witness(cons, x):
    for row, strict in cons:
        d = sum(map(mul, row, x))
        if d <= 0 if strict else d < 0:
            raise ArithmeticError("cone witness failed exact check")


def _optimize(rows, cost, basis, prev, first):
    """Bland-rule simplex on the tableau in place, entering only constraint
    columns (index >= first), until no cost entry is positive or the
    phase-1 optimum reaches zero.  Returns the final pivot."""
    m = len(rows)
    while cost[0] > 0:
        enter = next((j for j in range(first, len(cost)) if cost[j] > 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            t = rows[i][enter]
            if t <= 0:
                continue
            if leave is None:
                leave = i
                continue
            lhs = rows[i][0] * rows[leave][enter]
            rhs = rows[leave][0] * t
            if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                leave = i
        if leave is None:
            raise ArithmeticError("phase-1 objective unbounded below")
        piv = rows[leave][enter]
        prow = rows[leave]
        for i in range(m):
            if i == leave:
                continue
            r = rows[i]
            f = r[enter]
            if f:
                rows[i] = [(piv * a - f * b) // prev for a, b in zip(r, prow)]
            elif piv != prev:
                rows[i] = [(piv * a) // prev for a in r]
        f = cost[enter]
        if f:
            cost[:] = [(piv * a - f * b) // prev for a, b in zip(cost, prow)]
        elif piv != prev:
            cost[:] = [(piv * a) // prev for a in cost]
        basis[leave] = enter
        prev = piv
    return prev


def _multiplier(rows, basis, piv, cons, first):
    """The basic multiplier of a zero optimum as ((row, y), ...) over its
    support, after an exact Gordan/Motzkin check: the strict entries sum to
    piv, and :func:`check_gordan` holds."""
    support = []
    strict_sum = 0
    for r, b in zip(rows, basis):
        y = r[0]
        if b < first or not y:
            continue
        row, strict = cons[b - first]
        strict_sum += y if strict else 0
        support.append((row, y))
    if strict_sum != piv:
        raise ArithmeticError("empty-cone multiplier failed exact check")
    check_gordan(support)
    return tuple(support)


def check_gordan(multiplier) -> None:
    """Exact check of a multiplier ((row, y), ...): the support is not
    empty, every y > 0 and sum_j y_j row_j = 0.  When its rows are strict,
    this proves empty every open cone that holds them (Gordan).  Raises
    ArithmeticError otherwise."""
    if not multiplier:
        raise ArithmeticError("empty-cone multiplier has no support")
    total = [0] * len(multiplier[0][0])
    for row, y in multiplier:
        if y <= 0:
            raise ArithmeticError("empty-cone multiplier is not positive")
        total = [t + y * c for t, c in zip(total, row)]
    if any(total):
        raise ArithmeticError("empty-cone multiplier failed exact check")


def _grow(cons, dim):
    if not any(strict for _, strict in cons):
        return [0] * dim
    t = Tableau.empty(dim)
    for row, strict in cons:
        t = t.extend(row, strict)
        if type(t) is not Tableau:
            return None
    return list(t.witness)


# -- public API ---------------------------------------------------------------


def open_cone_witness(rows, dim):
    """An integer x with r.x > 0 for every row, or None if the open cone is
    empty.  Rows may be empty (any point works, the origin is returned)."""
    return _grow([(_primitive(r), True) for r in rows], dim)


def mixed_cone_witness(strict, weak, eq, dim):
    """Witness for the mixed system {s.x > 0, w.x >= 0, e.x = 0}."""
    eq = [_primitive(r) for r in eq]
    return _grow(
        [(_primitive(r), True) for r in strict]
        + [(_primitive(r), False) for r in weak]
        + [(r, False) for r in eq]
        + [(tuple(-x for x in r), False) for r in eq],
        dim,
    )
