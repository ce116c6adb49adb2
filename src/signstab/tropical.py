"""Tropical points, the signed piecewise-linear X-transformation, transport
along mutation paths, sign sequences, and presentation matrices.

A tropical point is a tuple of exact scalars indexed by the seed's unfrozen
indices in increasing order.  Frozen coordinates do not exist here.

Every walk along a path runs on the path's
:class:`~signstab.seeds.CompiledPath`, so the seeds along a path are built
once, not on every call.  The one-step functions are the one-flip case:
``trop_mutate`` is ``transport`` and ``edge_matrix`` is
``presentation_matrix_for_sign`` on the path ``(Flip(k),)``.
"""

from __future__ import annotations

from typing import Sequence

from . import matrices as mx
from .errors import DimensionMismatchError, FormatError, NonStrictSignError
from .scalars import Scalar, scalar_sign
from .seeds import Flip, MutationPath, Seed
from .seeds import mutate_b  # noqa: F401  (perfbench/tracing.py patches this binding)

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


def check_point(seed: Seed, w: Sequence[Scalar]) -> TropPoint:
    if len(w) != seed.n_uf:
        raise DimensionMismatchError(
            f"point has {len(w)} coordinates, seed has {seed.n_uf} unfrozen"
        )
    return tuple(w)


def check_strict_sign(path: MutationPath, eps: SignSeq) -> None:
    """Require a strict sign sequence with one entry per flip of the path."""
    if len(eps) != path.h:
        raise DimensionMismatchError(
            f"sign sequence length {len(eps)} differs from h = {path.h}"
        )
    if not is_strict(eps):
        raise NonStrictSignError(
            tuple(i for i, e in enumerate(eps) if e == 0),
            "a strict sign sequence is required",
        )


def trop_mutate(seed: Seed, k: int, w: Sequence[Scalar]) -> TropPoint:
    """Signed tropical X-transformation at direction k:

    x'_k = -x_k and x'_i = x_i + [sgn(x_k) * b_ik]_+ * x_k for i != k.
    """
    seed.require_unfrozen(k)
    return transport(MutationPath(seed, (Flip(k),)), w)[0]


def transport(path: MutationPath, w: Sequence[Scalar]):
    """Carry a point along the path.

    Returns (final point, list of points before each step).
    """
    w = check_point(path.initial, w)
    _, before, end = path.compiled.walk(w, scalar_sign)
    return end, before


def sign_of_path(path: MutationPath, w: Sequence[Scalar]) -> SignSeq:
    """Sign of the mutating coordinate just before each flip."""
    w = check_point(path.initial, w)
    return path.compiled.walk(w, scalar_sign)[0]


def edge_matrix(seed: Seed, k: int, eps: int) -> mx.Matrix:
    """Linear branch of the tropical transformation on the half-space
    sgn(x_k) = eps: E_kk = -1, E_ik = [eps*b_ik]_+, identity elsewhere."""
    if eps not in (1, -1):
        raise NonStrictSignError((0,), "edge matrix requires a strict sign")
    return presentation_matrix_for_sign(MutationPath(seed, (Flip(k),)), (eps,))


def presentation_matrix_for_sign(path: MutationPath, eps: SignSeq) -> mx.Matrix:
    """E_gamma^eps: the product, in application order (right to left), of edge
    matrices at the recorded seeds and permutation matrices."""
    check_strict_sign(path, eps)
    return mx.freeze(path.compiled.branch(eps)[1])


def presentation_matrix_at_point(path: MutationPath, w: Sequence[Scalar]) -> mx.Matrix:
    """Presentation matrix at a differentiable point (strict sign required)."""
    eps = sign_of_path(path, w)
    if not is_strict(eps):
        raise NonStrictSignError(tuple(i for i, e in enumerate(eps) if e == 0))
    return presentation_matrix_for_sign(path, eps)


def normalize_point(w: TropPoint) -> TropPoint:
    """Divide by the largest absolute coordinate (exact); fixes rays."""
    if not w:
        return w
    biggest = None
    for x in w:
        ax = -x if scalar_sign(x) < 0 else x
        if biggest is None or scalar_sign(ax - biggest) > 0:
            biggest = ax
    if biggest is None or scalar_sign(biggest) == 0:
        return w
    return tuple(x / biggest for x in w)

