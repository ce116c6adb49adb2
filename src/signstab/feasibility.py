"""Exact feasibility of homogeneous open cones, with integer witness points
and empty-cone multipliers.

The open-cone question "is there x with r.x > 0 for all rows r" drives the
realizable-sign enumeration.  By Gordan's theorem exactly one of these
holds:

* some x has r.x > 0 for every row r;
* some y >= 0 with sum(y) = 1 has sum_r y_r r = 0.

One phase-1 simplex on the second (transposed) system decides which: a zero
optimum leaves the multiplier y in the basis, a positive optimum leaves a
witness x in the duals of the artificial columns.  The system has dim + 1
equations and one column (row, 1) per row of the cone.  Pivoting is
fraction-free (every entry an integer over the running pivot) with Bland's
rule.

The simplex is the revised one (Dantzig and Orchard-Hays, 1954), in exact
integers: the tableau keeps only the right-hand side and the artificial
block piv*B^-1, dim + 2 integers a row at every depth, and the cost row
keeps piv times the phase-1 duals.  A cone column is never stored.  When a
pivot needs one, it is piv*B^-1 (row, 1), and its price, piv times minus
its reduced cost, is the duals' product with (row, 1).  These are the
integers a tableau that stored every column would hold, so the pivots,
witnesses and multipliers are the same.

The tableau grows one row at a time (:meth:`Tableau.extend`).  A new row
is one new column; the current basis stays primal feasible, so the simplex
goes on from where it stopped instead of starting phase 1 again.  The
duals are minus the witness times its ``scale``, the gcd it was divided
by, so one product witness.row both prices the new column and checks the
witness on it.  When the new column prices out, the basis is still optimal
and the witness is unchanged.  When the grown cone is empty, ``extend``
hands back its multiplier as ((row, y), ...) over the support, every
y > 0.  That multiplier is a Gordan certificate for every cone that
contains its rows, so a caller may keep it and prune such a cone without a
solve, after :func:`check_gordan` checks it again.

A pivot's update of the rows is made only when something reads them.  The
pivots before the last of a solve are applied as the next one needs them.
The last one updates only the right-hand side when the cone is empty,
since the multiplier reads nothing else; when it is not, the new tableau
keeps it pending and applies it the first time its rows are read, which
is when a child pivots on from it.

Every witness is checked exactly on every row of its cone, and every
multiplier is checked exactly before a cone is declared empty; a failed
check raises ArithmeticError.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from .errors import DimensionMismatchError


class Tableau:
    """Fraction-free revised phase-1 tableau of the transposed system of an
    open cone's rows, with the witness of the cone when it is not empty.

    ``rows`` holds dim + 1 integer rows laid out as [rhs, artificial block
    piv*B^-1 (dim + 1 columns)], dim + 2 integers each, with no column
    for any row of the cone.  ``cost`` is piv*c_B*B^-1 in the same
    layout: ``cost[0]`` is piv times the phase-1 optimum and the rest is
    piv times the duals, so a cone row prices at ``cost . (0, row, 1)``.
    ``piv`` is the last pivot.  ``cons`` is the tuple of the cone's rows,
    and cone row j is column dim + 2 + j: ``basis`` names the basic column
    of each row, an artificial (1 to dim + 1) or a cone column.
    ``witness`` is a primitive integer point checked on every row of
    ``cons``: minus the duals of the first dim artificials, divided by
    their gcd ``scale`` (1 for :meth:`empty`), so that
    ``cost[1:dim + 1] == -scale*witness`` and a cone row prices at
    ``cost[dim + 1] - scale*(witness . row)``.

    The rows are computed when first read.  The last pivot of the solve
    that built a tableau is kept pending, as its leaving row, entering
    column, pivot and previous pivot; ``rows`` applies it the first time
    it is read, once for the tableau and every child that shares its rows,
    and a tableau that no child pivots on from never applies it.  No value
    a caller can read ever changes: :meth:`extend` returns a new tableau,
    which may share the parent's lists.
    """

    __slots__ = ("_rows", "_pending", "cost", "basis", "piv", "cons",
                 "witness", "scale")

    def __init__(self, rows, cost, basis, piv, cons, witness, scale=1,
                 pending=()):
        self._rows = rows
        self._pending = pending
        self.cost = cost
        self.basis = basis
        self.piv = piv
        self.cons = cons
        self.witness = witness
        self.scale = scale

    @classmethod
    def empty(cls, dim: int) -> "Tableau":
        """The tableau of no rows: every artificial is basic."""
        m = dim + 1
        rows = [[int(i == dim)] + [int(i == k) for k in range(m)]
                for i in range(m)]
        return cls(rows, [1] * (m + 1), list(range(1, m + 1)), 1, (),
                   (-1,) * dim)

    @property
    def rows(self) -> list:
        pending = self._pending
        if pending:
            _pivot_rows(self._rows, *pending)
            pending.clear()
        return self._rows

    def extend(self, row) -> "Tableau | tuple":
        """The tableau of this cone plus row.x > 0, for an integer row of
        length dim.  When the grown cone is empty, its exactly checked
        multiplier instead: a tuple of (row, y) pairs over the support,
        every y > 0."""
        m = len(self.basis)
        if len(row) != m - 1:
            raise DimensionMismatchError(
                f"cone row has length {len(row)}, expected {m - 1}")
        # (0; row; 1) against the cost row is cost[m] - scale*(witness.row)
        dot = sum(map(mul, self.witness, row))
        price = self.cost[m] - self.scale * dot
        cons = self.cons + (row,)
        if price <= 0:
            # the basis stays optimal, so the witness is the parent's
            if dot <= 0:
                raise ArithmeticError("cone witness failed exact check")
            return Tableau(self._rows, self.cost, self.basis, self.piv, cons,
                           self.witness, self.scale, self._pending)
        rows, basis = list(self.rows), list(self.basis)
        cost, pending = _optimize(rows, self.cost, basis, self.piv, cons,
                                  price)
        leave, entering, piv, prev = pending
        if cost[0] == 0:
            # the multiplier reads the right-hand side alone
            b = rows[leave][0]
            rhs = [(piv * r[0] - f * b) // prev for r, f in zip(rows, entering)]
            rhs[leave] = b
            return _multiplier(rhs, basis, piv, cons, m + 1)
        x = [-c for c in cost[1:m]]
        g = gcd(*x) or 1
        if g > 1:
            x = [v // g for v in x]
        _check_witness(cons, x)
        return Tableau(rows, cost, basis, piv, cons, tuple(x), g, pending)


def _check_witness(cons, x):
    for row in cons:
        if sum(map(mul, row, x)) <= 0:
            raise ArithmeticError("cone witness failed exact check")


def _pivot_rows(rows, leave, entering, piv, prev):
    """The fraction-free update of every row but the leaving one, in place,
    by the pivot ``piv`` on the entering column over the previous pivot."""
    prow = rows[leave]
    for i, f in enumerate(entering):
        if i == leave:
            continue
        if f:
            rows[i] = [(piv * a - f * b) // prev for a, b in zip(rows[i], prow)]
        elif piv != prev:
            rows[i] = [(piv * a) // prev for a in rows[i]]


def _optimize(rows, cost, basis, prev, cons, price):
    """Bland-rule simplex on ``rows`` in place, entering only cone columns,
    until no cone column prices positive or the phase-1 optimum reaches
    zero.  The last row of ``cons`` enters first, at ``price``: every other
    column prices out at the parent's optimum.  Returns the new cost row
    and the last pivot, not yet applied to ``rows``, as (leaving row,
    entering column, pivot, previous pivot)."""
    m = len(rows)
    first = m + 1
    j = len(cons) - 1
    basic = set(basis)
    while True:
        col = (0, *cons[j], 1)
        entering = [sum(map(mul, r, col)) for r in rows]
        leave = None
        for i, t in enumerate(entering):
            if t <= 0:
                continue
            if leave is None:
                leave = i
                continue
            lhs = rows[i][0] * entering[leave]
            rhs = rows[leave][0] * t
            if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                leave = i
        if leave is None:
            raise ArithmeticError("phase-1 objective unbounded below")
        piv = entering[leave]
        cost = [(piv * a - price * b) // prev
                for a, b in zip(cost, rows[leave])]
        basic.discard(basis[leave])
        basis[leave] = first + j
        basic.add(first + j)
        pending = [leave, entering, piv, prev]
        if cost[0] <= 0:
            return cost, pending
        # Bland: the first cone column that prices positive enters next; a
        # basic column prices zero
        duals, last = cost[1:m], cost[m]
        for j, row in enumerate(cons):
            if first + j in basic:
                continue
            price = sum(map(mul, duals, row)) + last
            if price > 0:
                break
        else:
            return cost, pending
        _pivot_rows(rows, *pending)
        prev = piv


def _multiplier(rhs, basis, piv, cons, first):
    """The basic multiplier of a zero optimum as ((row, y), ...) over its
    support, read off the right-hand side, after an exact Gordan check: the
    weights sum to piv, and :func:`check_gordan` holds."""
    support = []
    total = 0
    for y, b in zip(rhs, basis):
        if b < first or not y:
            continue
        total += y
        support.append((cons[b - first], y))
    if total != piv:
        raise ArithmeticError("empty-cone multiplier failed exact check")
    check_gordan(support)
    return tuple(support)


def check_gordan(multiplier) -> None:
    """Exact check of a multiplier ((row, y), ...): the support is not
    empty, every y > 0 and sum_j y_j row_j = 0.  This proves empty every
    open cone that holds its rows (Gordan).  Raises ArithmeticError
    otherwise."""
    if not multiplier:
        raise ArithmeticError("empty-cone multiplier has no support")
    total = [0] * len(multiplier[0][0])
    for row, y in multiplier:
        if y <= 0:
            raise ArithmeticError("empty-cone multiplier is not positive")
        total = [t + y * c for t, c in zip(total, row)]
    if any(total):
        raise ArithmeticError("empty-cone multiplier failed exact check")
