"""Orbit iteration, strict and weak sign-stability detection, exact
enumeration of realizable sign sequences, characteristic polynomials,
spectral radii, cluster stretch factors, and exact eigenpair checks.

Every walk along a path runs on its :class:`~signstab.seeds.CompiledPath`:
an orbit lap is ``CompiledPath.walk`` on one primitive integer point,
divided by its gcd once per lap, and keeps the lap's normalized row in
integers, until a row repeats exactly and the rest of the orbit replays
its cycle; the sign tree left-multiplies the running presentation product
one compiled step at a time.

Realizable sign sequences come from one exact search over the sign tree
(:func:`realizable_branches`), which enumeration, the block-structure
check and the stretch-factor table all walk.  It is one recursive
generator that takes its whole state as arguments, so a search leaves no
reference cycle behind.  Each realizable sequence comes with the primitive
integer witness the search found, and that tuple of ints is the one
witness form every caller receives.  Each node keeps the feasibility
tableau of its open cone; a child prices its one new row against its
parent's tableau and either shares that tableau and inherits its witness,
or pivots on from the parent's basis.  An empty child leaves a Gordan
multiplier behind, and the search keeps it: any later child whose cone
holds all of that multiplier's rows is pruned by it, checked again
exactly, without a solve.  Nothing is sampled, so enumeration depends on
no random seed.

Every spectral radius is read off the exact integer characteristic
polynomial in one pass: its repeated roots are removed exactly, and
floats enter only at the roots of the square-free part.  The root of a
square-free part of degree 1 is an exact integer; a pure-Python
Aberth-Ehrlich iteration finds the roots of any other, and Newton steps
in exact arithmetic polish the top one (see :func:`root_radius`).  Each
distinct matrix and each distinct polynomial takes that pass once a
process: :func:`char_poly` and :func:`root_radius` keep bounded LRU caches.
Floats are never used for sign decisions; exactness claims are routed
through verify_eigenpair or polynomial evaluation in Q(sqrt(d)), which is
one Horner pass in the integers (:meth:`IntPoly.__call__`).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import count, cycle, islice
from operator import mul, neg
from typing import Optional, Sequence

from . import matrices as mx
from .errors import (
    DimensionMismatchError,
    FormatError,
    LoopRequiredError,
    MagnitudeError,
    NotRealizableError,
    SignstabError,
)
from .feasibility import Tableau, check_gordan
from .scalars import (FrozenRecord, QuadExt, Record, Scalar, scalar_ints,
                      scalar_sign)
from .seeds import CompiledPath, MutationPath, PermStep, Seed, is_loop
from .tropical import (
    SignSeq,
    TropPoint,
    check_point,
    check_sign,
    check_sign_entries,
    is_strict,
    normalize_ints,
    point_from_ints,
    point_to_ints,
    sign_str,
)


# -- orbits -------------------------------------------------------------------


class OrbitReport(Record):
    """Signs and normalized points along the forward orbit of a loop.

    signs[i] is the sign of the path at phi^i(w) and rows[i] the
    normalized point phi^{i+1}(w) as an integer row (A, B, D): coordinate
    j is (A_j + B_j*sqrt(d)) / D, with B None for a rational orbit
    (``tropical.normalize_ints``).  Once the orbit repeats exactly, its
    later rows and signs are the same tuple objects as the lap they repeat
    (:func:`iterate_orbit`).  ``iterations`` pairs them as exact points,
    built when read.  Detection fields are empirical: they look at
    the trailing `window` signs only.
    """

    _fields = ("point", "signs", "rows", "d", "window", "detected_stable",
               "detected_weak_stable", "stabilization_index",
               "all_zero_warning")

    def __init__(self, point: TropPoint, signs: list[SignSeq],
                 rows: list[tuple], d: int, window: int,
                 detected_stable: Optional[SignSeq] = None,
                 detected_weak_stable: Optional[SignSeq] = None,
                 stabilization_index: Optional[int] = None,
                 all_zero_warning: bool = False):
        self.point = point
        self.signs = signs
        self.rows = rows
        self.d = d
        self.window = window
        self.detected_stable = detected_stable
        self.detected_weak_stable = detected_weak_stable
        self.stabilization_index = stabilization_index
        self.all_zero_warning = all_zero_warning

    @property
    def iterations(self) -> list[tuple[SignSeq, TropPoint]]:
        """(sign, exact normalized point) per lap."""
        d = self.d
        return [(s, point_from_ints((a, b), d, den))
                for s, (a, b, den) in zip(self.signs, self.rows)]


def iterate_orbit(
    path: MutationPath,
    w: Sequence[Scalar],
    n_max: int,
    window: Optional[int] = None,
) -> OrbitReport:
    """Iterate the loop n_max times from w, normalizing between iterations.

    Each lap walks one primitive integer point (the walk commutes with
    positive scaling) and keeps its normalized row in integers.  The walk
    stops at the first exact repeat: each lap's row is compared with one
    anchor row, moved to laps 1, 2, 4, 8, ... (Brent, 1980).  A lap whose
    row equals the anchor's is on the anchor's ray, and the next sign and
    row depend only on the ray, so the remaining laps replay the rows and
    signs since the anchor, as the same tuple objects, without walking.
    An orbit that never repeats pays one tuple comparison per lap.
    """
    if not is_loop(path):
        raise LoopRequiredError("orbit iteration needs a mutation loop")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if window is None:
        window = max(2, n_max // 2)
    w = check_point(path.initial, w)
    point, d, _ = point_to_ints(w)
    walk = path.compiled.walk
    signs, rows = [], []
    anchor, anchor_lap = None, 0
    for lap in range(1, n_max + 1):
        sign, _, point = walk(point, d)
        point, row = normalize_ints(point, d)
        signs.append(sign)
        rows.append(row)
        if row == anchor:
            period, rest = lap - anchor_lap, n_max - lap
            signs.extend(islice(cycle(signs[-period:]), rest))
            rows.extend(islice(cycle(rows[-period:]), rest))
            break
        if not lap & (lap - 1):
            anchor, anchor_lap = row, lap
    report = OrbitReport(point=w, signs=signs, rows=rows, d=d, window=window)
    report.detected_stable = detect_stable_sign(report, window)
    weak = detect_weak_stable_sign(report, window)
    report.detected_weak_stable = weak
    report.all_zero_warning = all(e == 0 for e in weak)
    report.stabilization_index = _stabilization_index(signs)
    return report


def _stabilization_index(signs) -> Optional[int]:
    if len(signs) < 2:
        return None
    last = signs[-1]
    idx = len(signs) - 1
    while idx > 0 and signs[idx - 1] == last:
        idx -= 1
    return idx if idx < len(signs) - 1 else None


def detect_stable_sign(report: OrbitReport, window: int) -> Optional[SignSeq]:
    """Common strict sign of the last `window` iterations, if constant:
    the weak stable sign when the orbit has `window` signs and that sign
    is strict."""
    weak = detect_weak_stable_sign(report, window)
    if len(report.signs) >= window and is_strict(weak):
        return weak
    return None


def detect_weak_stable_sign(report: OrbitReport, window: int) -> SignSeq:
    """Entrywise: the constant value over the last `window` iterations
    where constant, else 0; all zeros when there are fewer than `window`
    iterations, as detect_stable_sign then detects nothing."""
    if window < 2:
        raise ValueError("window must be >= 2")
    signs = report.signs
    h = len(signs[0]) if signs else 0
    if len(signs) < window:
        return (0,) * h
    tail = signs[-window:]
    out = []
    for i in range(h):
        vals = {s[i] for s in tail}
        out.append(vals.pop() if len(vals) == 1 else 0)
    return tuple(out)


def sign_geq(a: SignSeq, b: SignSeq) -> bool:
    """a >= b in the zeroing order: b arises from a by zeroing strict
    entries.  ``tropical.check_sign_entries`` checks both."""
    if len(a) != len(b):
        raise DimensionMismatchError("sign sequences of different length")
    check_sign_entries(a)
    check_sign_entries(b)
    return all(y == 0 or y == x for x, y in zip(a, b))


# -- realizable sign sequences ------------------------------------------------


def realizable_branches(
    path: MutationPath,
    stable: Optional[SignSeq] = None,
    max_branch: Optional[int] = None,
):
    """Every realizable strict sign sequence eps of the path, as
    (eps, integer witness, presentation matrix E^eps), in sign-tree order.

    With ``stable`` only the strict completions of it are searched: a strict
    entry fixes that flip's side and a zero entry takes both.  Each tree
    node carries the running product and the feasibility tableau of its
    open cone.  A flip splits on the sign of the mutating functional; each
    child extends its parent's tableau by that one row, which shares the
    parent's tableau when the row prices out and otherwise pivots on from
    the parent's basis, or is pruned when its cone is certified empty.
    Every multiplier that proves a cone empty is kept for the rest of the
    search, filed under each row of its support: a child whose new row the
    parent's witness does not already satisfy is pruned without a solve
    when a kept multiplier's rows all lie in its cone, after that
    multiplier is checked again exactly.  ``max_branch`` bounds the number
    of nodes visited, and ``tropical.check_sign`` checks ``stable``.
    """
    if max_branch is not None and max_branch < 1:
        raise ValueError("max_branch must be >= 1")
    if stable is None:
        stable = (0,) * path.h
    check_sign(path, stable)
    n = path.compiled.n
    visits = count() if max_branch is None else iter(range(max_branch))
    return _sign_tree(path.compiled.steps, stable, visits, {}, 0,
                      list(mx.identity(n)), Tableau.empty(n), ())


def _sign_tree(steps, stable, visits, multipliers, step_idx, matrix, tableau,
               prefix):
    """The realizable branches below the node that took the first step_idx
    steps with the signs in prefix (see :func:`realizable_branches`): matrix
    is its running product, a list of rows relabeled here in place, and
    tableau its open cone, whose rows are tableau.cons.  Each visit takes
    one item of visits; multipliers files each kept multiplier under each
    row of its support."""
    if next(visits, None) is None:
        raise SignstabError("branch budget exhausted (max_branch)")
    while step_idx < len(steps) and type(steps[step_idx]) is PermStep:
        CompiledPath.apply_left(matrix, steps[step_idx])
        step_idx += 1
    if step_idx == len(steps):
        yield prefix, tableau.witness, mx.freeze(matrix)
        return
    step = steps[step_idx]
    functional = matrix[step.kp]
    g = math.gcd(*functional)
    primitive = (tuple(f // g for f in functional) if g > 1
                 else tuple(functional))
    dot = sum(map(mul, primitive, tableau.witness))
    fixed = stable[len(prefix)]
    for side in (fixed,) if fixed else (1, -1):
        row = primitive if side > 0 else tuple(map(neg, primitive))
        kept = multipliers.get(row, ()) if side * dot <= 0 else ()
        cone = set(tableau.cons) if kept else None
        for others, multiplier in kept:
            if others <= cone:  # the multiplier proves this cone empty
                check_gordan(multiplier)
                break
        else:
            child = tableau.extend(row)
            if type(child) is not Tableau:
                support = {r for r, _ in child}
                for r in support:
                    multipliers.setdefault(r, []).append((support - {r}, child))
                continue
            child_matrix = list(matrix)
            CompiledPath.apply_left(child_matrix, step, side)
            yield from _sign_tree(steps, stable, visits, multipliers,
                                  step_idx + 1, child_matrix, child,
                                  prefix + (side,))


def enumerate_realizable_signs_with_witnesses(
    path: MutationPath,
    max_branch: Optional[int] = None,
) -> dict[SignSeq, tuple[int, ...]]:
    """All realizable strict sign sequences, each with the sign tree's
    primitive integer witness (see :func:`realizable_branches`)."""
    return {
        eps: witness
        for eps, witness, _ in realizable_branches(path, max_branch=max_branch)
    }


def enumerate_realizable_signs(
    path: MutationPath,
    max_branch: Optional[int] = None,
) -> set[SignSeq]:
    return {eps for eps, _, _ in realizable_branches(path, max_branch=max_branch)}


# -- polynomials ---------------------------------------------------------------


class IntPoly(FrozenRecord):
    """Integer polynomial, coefficients in ascending degree."""

    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        c = tuple(int(x) for x in coeffs)
        while len(c) > 1 and c[-1] == 0:
            c = c[:-1]
        if not c:
            c = (0,)
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        """p(x), exact, for an int, Fraction or QuadExt x: an int, a
        Fraction or a QuadExt over x's radicand, as x is.  Any other x,
        such as a float, is a TypeError.

        One Horner pass in the integers: with x = (a + b*sqrt(d)) / den
        (``scalars.scalar_ints``), den^n * p(x) = u + v*sqrt(d) for
        n = deg p, and the result is built once from u, v and den^n.  As
        sqrt(d) is irrational, p(x) = 0 exactly when u = v = 0.
        """
        if not isinstance(x, (int, Fraction, QuadExt)):
            raise TypeError(f"cannot evaluate a polynomial at {x!r}: "
                            "not an int, Fraction or QuadExt")
        a, b, den, d = scalar_ints(x)
        bd = b * d
        coeffs = self.coeffs
        u, v, scale = coeffs[-1], 0, 1
        for c in coeffs[-2::-1]:
            scale *= den
            u, v = u * a + v * bd + c * scale, u * b + v * a
        if isinstance(x, int):
            return u
        if isinstance(x, Fraction):
            return Fraction(u, scale)
        return QuadExt._of(Fraction(u, scale), Fraction(v, scale), d)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return IntPoly(tuple(out))

    def divides_into(self, other: "IntPoly"):
        """other / self when self is monic; None if not exactly divisible."""
        if self.coeffs[-1] != 1:
            raise ValueError("divisor must be monic")
        rem = list(other.coeffs)
        if len(rem) < len(self.coeffs):
            return None if any(rem) else IntPoly((0,))
        quot = [0] * (len(rem) - len(self.coeffs) + 1)
        for i in range(len(quot) - 1, -1, -1):
            q = rem[i + self.degree]
            quot[i] = q
            if q:
                for j, c in enumerate(self.coeffs):
                    rem[i + j] -= q * c
        if any(rem):
            return None
        return IntPoly(tuple(quot))

    def __str__(self):
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mono = "1" if i == 0 else ("nu" if i == 1 else f"nu^{i}")
            if i > 0 and abs(c) == 1:
                term = mono if c == 1 else f"-{mono}"
            else:
                try:
                    term = f"{c}" if i == 0 else f"{c}*{mono}"
                except ValueError:  # past Python's int-to-text digit limit
                    raise MagnitudeError(
                        "a polynomial coefficient is past Python's int-to-text "
                        "digit limit (4,300 digits by default)") from None
            terms.append(term)
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out


# Bounds of the two process-wide spectral caches.  A batch of 100 random
# frozen-block loops asks 546 times for a polynomial of one of 12 distinct
# matrices and for a radius of one of 10 distinct polynomials; sphere3b's
# stretch table asks 16 times, of 16 matrices and 3 polynomials.  256
# entries hold all of either batch, and hold a long run over ever new
# inputs to 256 matrices and polynomials.
CHAR_POLY_CACHE_SIZE = 256
ROOT_RADIUS_CACHE_SIZE = 256


def char_poly(m: mx.Matrix) -> IntPoly:
    """det(nu*I - M), exact integer coefficients: Berkowitz's
    division-free recurrence in the integers (:func:`matrices.charpoly`).

    Polynomials are kept in a process-wide LRU cache of
    CHAR_POLY_CACHE_SIZE entries, keyed by the matrix as a tuple of tuples
    (``matrices.freeze``): a list of lists works too, and changing it later
    leaves the cache as it was.  ``char_poly.cache_info()`` and
    ``char_poly.cache_clear()`` read and empty it.  Equal numbers hash
    alike, so an entry whose value is an integer, such as ``Fraction(2)``,
    gives the polynomial of its integer on a miss as on a hit; any other
    entry is a FormatError, and a matrix that is not square is a
    DimensionMismatchError.
    """
    return _frozen_char_poly(mx.freeze(m))


@functools.lru_cache(maxsize=CHAR_POLY_CACHE_SIZE)
def _frozen_char_poly(m: mx.Matrix) -> IntPoly:
    if any(len(row) != len(m) for row in m):
        raise DimensionMismatchError("char_poly: matrix is not square")
    if any(type(x) is not int for row in m for x in row):
        m = tuple(tuple(map(_integer_entry, row)) for row in m)
    return IntPoly(mx.charpoly(m))


def _integer_entry(x) -> int:
    """The int equal to the matrix entry x, or a FormatError naming it."""
    try:
        n = int(x.a if type(x) is QuadExt else x)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != x:
        raise FormatError(f"char_poly: matrix entry {x!r} is not an integer")
    return n


char_poly.cache_info = _frozen_char_poly.cache_info
char_poly.cache_clear = _frozen_char_poly.cache_clear


def cyclotomic_like_product(cycle_lengths: Sequence[int]) -> IntPoly:
    """Product of (nu^c - 1) over the given cycle lengths, each an int at
    least 1: any other length is a ValueError."""
    out = IntPoly((1,))
    for c in cycle_lengths:
        if type(c) is not int:
            raise ValueError(f"cycle length {c!r} is not an int")
        if c < 1:
            raise ValueError(f"cycle length {c} is below 1")
        factor = [0] * (c + 1)
        factor[0], factor[c] = -1, 1
        out = out * IntPoly(tuple(factor))
    return out


# -- spectral radius ----------------------------------------------------------


def _pseudo_rem(a: tuple, b: tuple) -> list:
    """Remainder of lc(b)^e * a on division by b, e = deg a - deg b + 1."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(r) > db:
        lr, shift = r[-1], len(r) - 1 - db
        r = [lb * x for x in r]
        for j, c in enumerate(b):
            r[shift + j] -= lr * c
        r.pop()
    return r


def _primitive(coeffs) -> tuple[int, ...]:
    """Coefficients divided by their content, leading coefficient positive."""
    c = IntPoly(tuple(coeffs)).coeffs
    g = math.gcd(*c)
    if c[-1] < 0:
        g = -g
    return tuple(x // g for x in c) if g else c


def _squarefree_part(p: IntPoly) -> IntPoly:
    """p / gcd(p, p') for monic p: each distinct root of p once.

    The gcd comes from the primitive pseudo-remainder sequence.  By Gauss's
    lemma a primitive factor of a monic integer polynomial is monic up to
    sign, so the gcd divides p exactly over the integers.
    """
    a = p.coeffs
    b = tuple(i * c for i, c in enumerate(a))[1:]
    while any(b):
        a, b = b, _primitive(_pseudo_rem(a, b))
    return IntPoly(_primitive(a)).divides_into(p)


def _aberth_roots(coeffs, radius):
    """All roots of a square-free polynomial by the Aberth-Ehrlich iteration
    (Aberth 1973; Ehrlich 1967) in complex floats, from a circle of the
    given radius.  coeffs are descending and coeffs[0] is 1.  A root is
    updated in place until its own correction is below 1e-15 of
    max(1, modulus), or is below 1e-8 of it and no smaller than its last
    one: then the correction is rounding noise, and iterating on would only
    circle."""
    n = len(coeffs) - 1
    tail = coeffs[1:]
    last = [math.inf] * n
    # the angle offset keeps the start off the real axis and not symmetric
    # under conjugation, where real coefficients would trap an iterate
    z = [radius * complex(math.cos(t), math.sin(t))
         for t in (2 * math.pi * j / n + 0.4 for j in range(n))]
    active = range(n)
    for _ in range(100):
        moving = []
        for j in active:
            zj = z[j]
            p, dp = 1.0, 0.0
            for c in tail:  # p = q(zj) and dp = q'(zj) in one Horner pass
                dp = dp * zj + p
                p = p * zj + c
            if p == 0:
                continue
            # sum of 1 / (zj - zk) over the other roots: a zero difference
            # is zj itself
            pull = sum([1 / d for zk in z if (d := zj - zk)])
            w = p / (dp - p * pull)
            z[j] = zj - w
            size, step = max(1.0, abs(zj)), abs(w)
            noise = step < 1e-8 * size and step >= last[j]
            if step > 1e-15 * size and not noise:
                moving.append(j)
            last[j] = step
        if not moving:
            break
        active = moving
    return z


def _polish(coeffs, z, s):
    """Newton steps on q from its root near 2^s z, in exact Gaussian-integer
    arithmetic on a grid 80 bits below |z|: the point is 2^g (x + iy), and
    each step is rounded to the grid once, so no Horner rounding enters.
    Keeps the iterate with the smallest |q|; returns its modulus, correctly
    rounded, and the length of its Newton step |q/q'|."""
    n = len(coeffs) - 1
    e = math.frexp(abs(z))[1] - 80
    x, y = round(math.ldexp(z.real, -e)), round(math.ldexp(z.imag, -e))
    g = e + s
    # Horner on b at x + iy gives a = t q(2^g (x + iy)) and da = t 2^g q'(..)
    # for one power of two t, so a / da is the Newton step in grid units
    if g >= 0:
        b = [c << g * k for k, c in enumerate(coeffs)]
    else:
        b = [c << -g * (n - k) for k, c in enumerate(coeffs)]
    best = None
    for _ in range(4):
        ar, ai, dr, di = b[-1], 0, 0, 0
        for c in reversed(b[:-1]):
            dr, di = dr * x - di * y + ar, dr * y + di * x + ai
            ar, ai = ar * x - ai * y + c, ar * y + ai * x
        den = dr * dr + di * di
        sr, si = ar * dr + ai * di, ai * dr - ar * di  # the step times den
        if best is None or ar * ar + ai * ai < best[0]:
            best = ar * ar + ai * ai, x, y, sr, si, den
        ur, ui = (2 * sr + den) // (2 * den), (2 * si + den) // (2 * den)
        if not (ur or ui):
            break
        x, y = x - ur, y - ui
    _, x, y, sr, si, den = best
    r = math.isqrt(x * x + y * y)
    if r * r == x * x + y * y:
        modulus = math.ldexp(r, g)
    else:  # a sticky bit below r makes the one rounding to float correct
        modulus = math.ldexp(2 * r + 1, g - 1)
    return modulus, math.ldexp(abs(complex(sr / den, si / den)), g)


@functools.lru_cache(maxsize=ROOT_RADIUS_CACHE_SIZE)
def root_radius(p: IntPoly) -> tuple[float, float]:
    """Largest root modulus of the monic integer polynomial p.

    Returns (estimate, reported bound).  Repeated roots are removed exactly
    first, so the root finder sees only the simple roots of the square-free
    part q.  When q has degree 1 it is nu + c, whose one root -c is exact:
    the estimate is |c| and the bound is the relative floor below alone.
    A polynomial whose only root is 0 gives (0.0, 0.0).

    Otherwise q is rescaled exactly by a power of two 2^s, picked from the
    Fujiwara bound, so that its roots have modulus near 1 and Horner's rule
    does not overflow.  The Aberth-Ehrlich iteration, started on a circle of
    half the Fujiwara bound, proposes every root in complex floats; Newton
    steps in exact arithmetic polish the top one, keeping the iterate z with
    the smallest |q(z)|, and its modulus is rounded once.  Some root of q
    lies within deg(q) * |q(z)/q'(z)| of z; the bound is that distance plus
    the floor 1e-11 * max(1, estimate) for float64 rounding.

    A coefficient of q past the float range, or a radius or bound that
    overflows, is a MagnitudeError: the result is never NaN or infinite.

    Results are kept in a process-wide LRU cache of ROOT_RADIUS_CACHE_SIZE
    entries, keyed by the polynomial; an error is not kept, so it is raised
    again on every call.
    """
    q = _squarefree_part(p)
    n = q.degree
    try:
        coeffs = [float(c) for c in q.coeffs]
        if n < 2:  # q = 1, or q = nu + c, whose one root -c is exact
            est = abs(coeffs[0]) if n else 0.0
            return (est, 1e-11 * max(1.0, est)) if est else (0.0, 0.0)
        # 2^s is at most max |a_k|^(1/(n-k)), and within a factor 4 of it,
        # so the roots of q(2^s nu) / 2^(sn) have modulus between 1/n and 8
        s = max((abs(a).bit_length() - 1) // (n - k)
                for k, a in enumerate(q.coeffs[:-1]))
        desc = [math.ldexp(c, s * (k - n)) for k, c in enumerate(coeffs)][::-1]
        # every root lies within twice this radius (Fujiwara's bound)
        radius = max(abs(c / (2 if k == n else 1)) ** (1 / k)
                     for k, c in enumerate(desc[1:], 1))
        roots = _aberth_roots(desc, radius)
        if not math.isfinite(sum(map(abs, roots))):
            # possible only at a degree in the hundreds: 4^n > 1e308
            raise OverflowError("Horner's rule overflowed")
        est, step = _polish(q.coeffs, max(roots, key=abs), s)
        bound = n * step + 1e-11 * max(1.0, est)
    except OverflowError:
        bound = math.inf
    if bound == math.inf:
        raise MagnitudeError(
            "a characteristic polynomial coefficient or its spectral radius "
            "is past the float range, so no float spectral radius can be "
            "computed"
        )
    return est, bound


def spectral_radius(m: mx.Matrix) -> tuple[float, float]:
    """rho(M) as (estimate, reported bound): root_radius of char_poly(M)."""
    return root_radius(char_poly(m))


# -- stretch factor -----------------------------------------------------------


class StretchReport(Record):
    _fields = ("value", "table", "radii_all_equal", "exact_verified",
               "exact_value")

    def __init__(self, value: float,
                 table: list[tuple[SignSeq, float, float]],
                 radii_all_equal: bool,
                 exact_verified: Optional[bool] = None,
                 exact_value: Optional[Scalar] = None):
        self.value = value
        self.table = table
        self.radii_all_equal = radii_all_equal
        self.exact_verified = exact_verified
        self.exact_value = exact_value


def stretch_factor(
    path: MutationPath,
    eps_stab: SignSeq,
    candidate: Optional[Scalar] = None,
) -> StretchReport:
    """lambda = max spectral radius of E_gamma^eps over realizable strict
    completions eps >= eps_stab.  When eps_stab is strict this is the
    cluster stretch factor of the loop.

    The table lists the completions in binary order of their entries at
    the zeros of eps_stab, the last zero most significant and - before +.
    """
    if not is_loop(path):
        raise LoopRequiredError("stretch factor needs a mutation loop")
    zeros = check_sign(path, eps_stab)[::-1]
    branches = sorted(
        realizable_branches(path, stable=eps_stab),
        key=lambda branch: [branch[0][i] for i in zeros],
    )
    polys = [char_poly(matrix) for _, _, matrix in branches]
    if not polys:
        raise NotRealizableError(
            f"no realizable strict completion of {sign_str(eps_stab)}"
        )
    table = [(eps, *root_radius(p)) for (eps, _, _), p in zip(branches, polys)]
    value = max(rho for _, rho, _ in table)
    tol = max(bound for _, _, bound in table) + 1e-9
    radii_all_equal = all(abs(rho - value) <= tol for _, rho, _ in table)
    report = StretchReport(value, table, radii_all_equal)
    if candidate is not None:
        ok = all(p(candidate) == 0 for p in set(polys))
        report.exact_verified = ok and abs(float(candidate) - value) <= 1e-9
        if report.exact_verified:
            report.exact_value = candidate
    return report


# -- eigenpairs and cones -------------------------------------------------------


def verify_eigenpair(m: mx.Matrix, lam: Scalar, x: Sequence[Scalar]) -> bool:
    """Exact check M x = lambda x with x != 0: the zero vector is no
    eigenvector, whatever lambda is."""
    if len(m) != len(x):
        raise DimensionMismatchError("matrix and vector sizes differ")
    for row in m:
        if len(row) != len(x):
            raise DimensionMismatchError("matrix is not square")
    if all(xi == 0 for xi in x):
        return False
    for i, row in enumerate(m):
        lhs = sum((c * xi for c, xi in zip(row, x)), start=Fraction(0))
        if lhs != lam * x[i]:
            return False
    return True


def canonical_cone_membership(seed: Seed, w: Sequence[Scalar]) -> str:
    """Classify against Omega_can: interior of the all-positive or
    all-negative orthant, else outside."""
    w = check_point(seed, w)
    signs = {scalar_sign(x) for x in w}
    if signs == {1}:
        return "plus_interior"
    if signs == {-1}:
        return "minus_interior"
    return "outside"
