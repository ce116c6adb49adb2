"""Tropical points, the signed piecewise-linear X-transformation, transport
along mutation paths, sign sequences, and presentation matrices.

A tropical point is a tuple of exact scalars (``Fraction`` or ``QuadExt``)
indexed by the seed's unfrozen indices in increasing order.  Frozen
coordinates do not exist here.

Every walk along a path runs on the path's
:class:`~signstab.seeds.CompiledPath`, so B moves along a path once, not
on every call, and it runs on plain ints: ``point_to_ints``
writes a point as (A + B*sqrt(d))/D with integer vectors A, B and one
denominator D, and ``point_from_ints`` turns a walked integer point back
into exact scalars (``QuadExt``s for a point over Q(sqrt(d)),
``Fraction``s for a rational one) for ``transport`` and
``normalize_point``.  An orbit row never becomes exact scalars on its way
to a report: ``normalize_ints`` gives it as integers (A, B, D), and
``io.row_json`` renders those.  The one-step functions are the one-flip case:
``trop_mutate`` is ``transport`` and ``edge_matrix`` is
``presentation_matrix_for_sign`` on the path ``(Flip(k),)``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from . import matrices as mx
from .errors import (DimensionMismatchError, FormatError, NonStrictSignError,
                     RadicandMismatchError)
from .scalars import QuadExt, Scalar, quad_sign
from .seeds import Flip, MutationPath, Seed

TropPoint = tuple[Scalar, ...]
SignSeq = tuple[int, ...]

_SIGN_TO_CHAR = {1: "+", 0: "0", -1: "-"}
_CHAR_TO_SIGN = {"+": 1, "0": 0, "-": -1}


def sign_str(eps: SignSeq) -> str:
    return "".join(_SIGN_TO_CHAR[e] for e in eps)


def parse_sign_str(text: str) -> SignSeq:
    cleaned = text.replace(",", "").replace(" ", "")
    try:
        return tuple(_CHAR_TO_SIGN[c] for c in cleaned)
    except KeyError as exc:
        raise FormatError(f"bad sign character in {text!r}") from exc


def is_strict(eps: SignSeq) -> bool:
    return all(e != 0 for e in eps)


def exact_point(w: Sequence) -> TropPoint:
    """w with every int made a Fraction; any coordinate that is not an int,
    a Fraction or a QuadExt is a FormatError."""
    out = []
    for x in w:
        if type(x) is int:
            x = Fraction(x)
        elif not isinstance(x, (Fraction, QuadExt)):
            raise FormatError(f"coordinate {x!r} is not an exact scalar "
                              "(int, Fraction or QuadExt)")
        out.append(x)
    return tuple(out)


def check_point(seed: Seed, w: Sequence[Scalar]) -> TropPoint:
    """w as an exact point of the seed's unfrozen coordinates."""
    if len(w) != seed.n_uf:
        raise DimensionMismatchError(
            f"point has {len(w)} coordinates, seed has {seed.n_uf} unfrozen"
        )
    return exact_point(w)


def check_sign(path: MutationPath, eps: SignSeq) -> tuple[int, ...]:
    """The zero positions of eps, a sign sequence of the path: one entry
    per flip, else a DimensionMismatchError, and each entry the int -1, 0
    or 1, else a ValueError naming it and its flip position."""
    if len(eps) != path.h:
        raise DimensionMismatchError(
            f"sign sequence length {len(eps)} differs from h = {path.h}"
        )
    for i, e in enumerate(eps):
        if type(e) is not int or e not in (1, 0, -1):
            raise ValueError(
                f"sign entry {e!r} at flip position {i} is not -1, 0 or 1")
    return tuple(i for i, e in enumerate(eps) if e == 0)


# -- integer points ---------------------------------------------------------------
#
# An integer point is (a, b), the point a + b*sqrt(d) for a radicand d kept
# beside it: a and b are tuples of ints, and b is None for a rational point.
# CompiledPath.walk carries it along a path.  A row (a, b, D) adds one
# nonzero denominator D of either sign: the point (a + b*sqrt(d)) / D.  An
# orbit keeps its normalized rows in this form, and a report renders each
# coordinate by its value alone straight from the ints (``io.row_json``).
# Built back into exact scalars (``point_from_ints``), every coordinate of a
# point over Q(sqrt(d)) is a QuadExt and every coordinate of a rational
# point a Fraction.


def point_to_ints(w: TropPoint):
    """(integer point, d, D) with w_i = (a_i + b_i*sqrt(d)) / D and D > 0,
    for an exact point w; d is 0 for a rational point.  Coordinates over
    two different radicands are a RadicandMismatchError."""
    d = 0
    for x in w:
        if isinstance(x, QuadExt):
            if d and x.d != d:
                raise RadicandMismatchError(
                    f"cannot mix sqrt({x.d}) with sqrt({d})")
            d = x.d
    if not d:
        den = math.lcm(*(x.denominator for x in w))
        return (_scaled(w, den), None), 0, den
    ra = [x.a if isinstance(x, QuadExt) else x for x in w]
    rb = [x.b if isinstance(x, QuadExt) else Fraction(0) for x in w]
    den = math.lcm(*(x.denominator for x in ra + rb))
    return (_scaled(ra, den), _scaled(rb, den)), d, den


def _scaled(xs, den: int) -> tuple[int, ...]:
    return tuple(x.numerator * (den // x.denominator) for x in xs)


def point_from_ints(point, d: int, den: int) -> TropPoint:
    """The exact point (a + b*sqrt(d)) / den of an integer point, den != 0."""
    a, b = point
    if b is None:
        return tuple(Fraction(x, den) for x in a)
    return tuple(QuadExt._of(Fraction(x, den), Fraction(y, den), d)
                 for x, y in zip(a, b))


def normalize_ints(point, d: int):
    """(primitive point, normalized row) of an integer point.

    The primitive point is the point divided by the gcd of its entries; a
    positive scaling, so it walks to the same signs.  The normalized row
    is x_i / |x_m|, with m the first index of largest absolute value, as
    (A, B, D) with x_i / |x_m| = (A_i + B_i*sqrt(d)) / D: B is None for a
    rational point and D may be negative.  The zero point normalizes to
    itself, with D = 1.
    """
    a, b = point
    g = math.gcd(*a) if b is None else math.gcd(*a, *b)
    if g == 0:
        return point, (a, b, 1)
    if g > 1:
        a = tuple(x // g for x in a)
        b = None if b is None else tuple(y // g for y in b)
    if b is None:
        return (a, b), (a, b, max(map(abs, a)))
    # |x_i| = ua_i + ub_i*sqrt(d)
    signs = [quad_sign(x, y, d) for x, y in zip(a, b)]
    ua = [s * x for s, x in zip(signs, a)]
    ub = [s * y for s, y in zip(signs, b)]
    m = 0
    for i in range(1, len(a)):
        if quad_sign(ua[i] - ua[m], ub[i] - ub[m], d) > 0:
            m = i
    # x / |x_m| = x * (ua_m - ub_m*sqrt(d)) / (ua_m**2 - d*ub_m**2), whose
    # denominator may be negative
    am, bm = ua[m], ub[m]
    return (a, b), (tuple(x * am - d * y * bm for x, y in zip(a, b)),
                    tuple(y * am - x * bm for x, y in zip(a, b)),
                    am * am - d * bm * bm)


def normalize_point(w: TropPoint) -> TropPoint:
    """Divide by the largest absolute coordinate (exact); fixes rays."""
    point, d, _ = point_to_ints(exact_point(w))
    a, b, den = normalize_ints(point, d)[1]
    return point_from_ints((a, b), d, den)


# -- walks ------------------------------------------------------------------------


def trop_mutate(seed: Seed, k: int, w: Sequence[Scalar]) -> TropPoint:
    """Signed tropical X-transformation at direction k:

    x'_k = -x_k and x'_i = x_i + [sgn(x_k) * b_ik]_+ * x_k for i != k.
    """
    return transport(MutationPath(seed, (Flip(k),)), w)[0]


def transport(path: MutationPath, w: Sequence[Scalar]):
    """Carry a point along the path.

    Returns (final point, list of points before each step).
    """
    point, d, den = point_to_ints(check_point(path.initial, w))
    _, before, end = path.compiled.walk(point, d)
    return (point_from_ints(end, d, den),
            [point_from_ints(p, d, den) for p in before])


def sign_of_path(path: MutationPath, w: Sequence[Scalar]) -> SignSeq:
    """Sign of the mutating coordinate just before each flip."""
    point, d, _ = point_to_ints(check_point(path.initial, w))
    return path.compiled.walk(point, d)[0]


def edge_matrix(seed: Seed, k: int, eps: int) -> mx.Matrix:
    """Linear branch of the tropical transformation on the half-space
    sgn(x_k) = eps: E_kk = -1, E_ik = [eps*b_ik]_+, identity elsewhere."""
    return presentation_matrix_for_sign(MutationPath(seed, (Flip(k),)), (eps,))


def presentation_matrix_for_sign(path: MutationPath, eps: SignSeq) -> mx.Matrix:
    """E_gamma^eps: the product, in application order (right to left), of edge
    matrices at the recorded seeds and permutation matrices, for a strict
    sign sequence eps: a zero entry is a NonStrictSignError."""
    zeros = check_sign(path, eps)
    if zeros:
        raise NonStrictSignError(zeros)
    return mx.freeze(path.compiled.branch(eps))


def presentation_matrix_at_point(path: MutationPath, w: Sequence[Scalar]) -> mx.Matrix:
    """Presentation matrix at a differentiable point (strict sign required)."""
    return presentation_matrix_for_sign(path, sign_of_path(path, w))
