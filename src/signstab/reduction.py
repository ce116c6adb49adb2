"""Reduction cones, compatibility of path edges, reduced-subsequence
extraction, hereditariness verification, freezing, and block-structure
checks for cluster reduction.

Compatibility is tested on cone generators only: a flip direction is
compatible when its coordinate vanishes at that vertex for every
generator, read off the generators' sign sequences from the path walk
(``sign_of_path``), with no exact scalar built.  The reduced seed pattern
itself is user input, never synthesized here.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DimensionMismatchError, FrozenIndexError, SplitViolationError
from .scalars import FrozenRecord, Record, Scalar
from .seeds import Flip, FlipStep, MutationPath, Seed
from .stability import (
    IntPoly,
    cyclotomic_like_product,
    realizable_branches,
    spectral_radius,
)
from .tropical import SignSeq, TropPoint, check_point, sign_of_path, transport


class Cone(FrozenRecord):
    """Rational polyhedral cone spanned by generator points (initial chart)."""

    _fields = ("generators",)

    def __init__(self, generators: tuple[TropPoint, ...]):
        gens = tuple(tuple(g) for g in generators)
        if not gens:
            raise ValueError("cone needs at least one generator")
        if len({len(g) for g in gens}) != 1:
            raise DimensionMismatchError("generators of mixed dimension")
        object.__setattr__(self, "generators", gens)


def generator_coordinate_trace(path: MutationPath, cone: Cone):
    """Per-flip list of the mutating coordinate of each generator.

    Useful for spot-checking transported cone data against known values.
    """
    walks = [transport(path, g)[1] for g in cone.generators]
    return [
        [before[i][step.kp] for before in walks]
        for i, step in enumerate(path.compiled.steps)
        if type(step) is FlipStep
    ]


def compatibility(path: MutationPath, cone: Cone) -> tuple[list[bool], bool]:
    """(edge_compatibility, cone_sign_caveat) from one walk per generator."""
    signs = [sign_of_path(path, g) for g in cone.generators]
    return [not any(col) for col in zip(*signs)], len(set(signs)) > 1


def edge_compatibility(path: MutationPath, cone: Cone) -> list[bool]:
    """Per flip: does the mutating coordinate vanish on every generator,
    that is, is every generator's sign there 0."""
    return compatibility(path, cone)[0]


def cone_sign_caveat(path: MutationPath, cone: Cone) -> bool:
    """True when the generators have differing sign sequences.

    Compatibility is decided on generators; when their sign histories
    disagree the cone straddles walls and per-generator transport, while
    still exact, no longer describes one linear regime for the whole cone.
    """
    return compatibility(path, cone)[1]


class HereditaryReport(Record):
    _fields = ("passes", "compatible_positions", "violations")

    def __init__(self, passes: bool, compatible_positions: list[int],
                 violations: list[int]):
        self.passes = passes
        self.compatible_positions = compatible_positions
        self.violations = violations


def hereditary_check(
    path: MutationPath, cone: Cone, eps_stab: SignSeq
) -> HereditaryReport:
    """Every cone-compatible flip position must carry a strict stable sign."""
    if len(eps_stab) != path.h:
        raise DimensionMismatchError("stable sign has wrong length")
    compat = edge_compatibility(path, cone)
    positions = [i for i, c in enumerate(compat) if c]
    violations = [i for i in positions if eps_stab[i] == 0]
    return HereditaryReport(not violations, positions, violations)


def reduced_subsequence(path: MutationPath, cone: Cone) -> list[tuple[int, int]]:
    """(flip position, flip index) at the cone-compatible flips, in order.

    This is the horizontal skeleton of the reduced path; the vertical tail
    is left to the caller.
    """
    flips = path.flip_indices()
    compat = edge_compatibility(path, cone)
    return [(i, flips[i]) for i, c in enumerate(compat) if c]


def freeze(seed: Seed, frozen_out: Sequence[int]) -> Seed:
    """Cluster reduction: declare the given unfrozen directions frozen."""
    frozen_out = frozenset(frozen_out)
    if not frozen_out <= seed.unfrozen:
        raise FrozenIndexError("can only freeze unfrozen indices")
    return Seed(seed.b, seed.unfrozen - frozen_out)


def project_point(seed: Seed, w: Sequence[Scalar], j_uf: Sequence[int]) -> TropPoint:
    """Coordinate restriction onto the unfrozen subset j_uf."""
    w = check_point(seed, w)
    j_uf = frozenset(j_uf)
    if not j_uf <= seed.unfrozen:
        raise DimensionMismatchError("projection target not unfrozen")
    order = seed.unfrozen_order
    return tuple(w[p] for p, idx in enumerate(order) if idx in j_uf)


class BlockReport(Record):
    _fields = ("ok", "zero_block_exact", "sign_count", "max_radius_diff",
               "details")

    def __init__(self, ok: bool, zero_block_exact: bool, sign_count: int,
                 max_radius_diff: float,
                 details: list[tuple[SignSeq, float, float]]):
        self.ok = ok
        self.zero_block_exact = zero_block_exact
        self.sign_count = sign_count
        self.max_radius_diff = max_radius_diff
        self.details = details


def block_structure_check(
    path: MutationPath,
    frozen_out: Sequence[int],
    tolerance: float = 1e-9,
    rng_seed: int = 0,
) -> BlockReport:
    """Check the block form of presentation matrices for a J-only loop.

    With K = frozen_out, J = unfrozen minus K must be nonempty, every flip
    must lie in J and every permutation must keep J and K.  An edge matrix
    differs from the identity only in its flipped column, so the K columns
    of each realizable E are unit vectors e_sigma(k), sigma a permutation of
    K: checked exactly, else ArithmeticError.  Then char_poly(E) =
    char_poly(E_J) * prod(nu^c - 1) over sigma's cycles, and |det E_J| =
    |det E| = 1 gives rho(E_J) >= 1, so rho(E) = rho(E_J), written twice per
    sign in details.  tolerance and rng_seed have no effect: no float is
    compared, and the signs are enumerated exactly, without sampling.
    """
    seed = path.initial
    k_set = frozenset(frozen_out)
    if not k_set <= seed.unfrozen:
        raise FrozenIndexError("frozen_out must be unfrozen in the seed")
    j_set = seed.unfrozen - k_set
    if not j_set:
        raise SplitViolationError("frozen_out leaves J empty")
    for step in path.steps:
        if isinstance(step, Flip):
            if step.k not in j_set:
                raise SplitViolationError(f"flip at {step.k} leaves J")
        elif any((step.sigma[i] in j_set) != (i in j_set) for i in seed.unfrozen):
            raise SplitViolationError("permutation mixes J and K")
    order = seed.unfrozen_order
    j_pos = [p for p, idx in enumerate(order) if idx in j_set]
    k_pos = [p for p, idx in enumerate(order) if idx in k_set]
    k_units = sorted(tuple(int(p == q) for p in range(len(order))) for q in k_pos)
    details = []
    for eps, _, e in sorted(realizable_branches(path), key=lambda b: b[0]):
        if sorted(tuple(row[q] for row in e) for q in k_pos) != k_units:
            raise ArithmeticError(f"sign {eps}: E's K columns are not K's unit vectors")
        rho = spectral_radius(tuple(tuple(e[p][q] for q in j_pos) for p in j_pos))[0]
        details.append((eps, rho, rho))
    return BlockReport(True, True, len(details), 0.0, details)


def permutation_factor_check(p: IntPoly, cycle_lengths: Sequence[int]) -> bool:
    """Does the product of (nu^c - 1) over cycle lengths divide p exactly."""
    if p.coeffs[-1] != 1:
        raise ValueError("characteristic polynomial must be monic")
    factor = cyclotomic_like_product(cycle_lengths)
    return factor.divides_into(p) is not None
