"""Local train-track machinery: switch conditions on abstract trivalent
tracks, and the local Dehn-Thurston measure formulas for pants and
annulus pieces.

Only the local pieces are implemented; gluing tracks into a surface-wide
atlas is out of scope.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .scalars import FrozenRecord, pos_part


class TrainTrack(FrozenRecord):
    """Trivalent graph: each switch joins one incoming edge to two outgoing."""

    _fields = ("edges", "switches", "boundary_edges")

    def __init__(self, edges: tuple[str, ...],
                 switches: tuple[tuple[str, tuple[str, str]], ...],
                 boundary_edges: frozenset[str]):
        edges = tuple(edges)
        switches = tuple((e0, (e1, e2)) for e0, (e1, e2) in switches)
        boundary_edges = frozenset(boundary_edges)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "switches", switches)
        object.__setattr__(self, "boundary_edges", boundary_edges)
        known = set(edges)
        for e0, (e1, e2) in switches:
            for e in (e0, e1, e2):
                if e not in known:
                    raise ValueError(f"unknown edge {e!r} in switch")
        if not boundary_edges <= known:
            raise ValueError("unknown boundary edge")


Measure = Mapping[str, Fraction]


class DTCoords(FrozenRecord):
    """Intersection/twisting pairs per pants curve plus signed values per
    puncture; each (m, t) pair is defined up to the antipodal map."""

    _fields = ("curve_pairs", "puncture_values")

    def __init__(self, curve_pairs: tuple[tuple[Fraction, Fraction], ...],
                 puncture_values: tuple[Fraction, ...] = ()):
        object.__setattr__(
            self,
            "curve_pairs",
            tuple((Fraction(m), Fraction(t)) for m, t in curve_pairs),
        )
        object.__setattr__(
            self,
            "puncture_values",
            tuple(Fraction(v) for v in puncture_values),
        )

    def normalized(self) -> "DTCoords":
        """Antipodal representative of each pair: t >= 0, tie broken m >= 0."""
        pairs = []
        for m, t in self.curve_pairs:
            if t < 0 or (t == 0 and m < 0):
                m, t = -m, -t
            pairs.append((m, t))
        return DTCoords(tuple(pairs), self.puncture_values)


def validate_measure(track: TrainTrack, measure: Measure):
    """Check nu(e0) = nu(e1) + nu(e2) at every switch, exactly.

    Returns (ok, violating switch list).
    """
    for e in measure:
        if e not in track.edges:
            raise ValueError(f"measure on unknown edge {e!r}")
    bad = []
    for idx, (e0, (e1, e2)) in enumerate(track.switches):
        v0 = Fraction(measure.get(e0, 0))
        if v0 != Fraction(measure.get(e1, 0)) + Fraction(measure.get(e2, 0)):
            bad.append(idx)
    return not bad, bad


def pants_measures(m1, m2, m3) -> tuple[Fraction, ...]:
    """Edge measures (e11, e12, e13, e22, e23, e33) of the standard pants
    track: 2*nu(e11) = [m1-m2-m3]_+ and cyclic/connector variants.

    Inputs may be negative (signed puncture values); the brackets clamp.
    """
    m1, m2, m3 = Fraction(m1), Fraction(m2), Fraction(m3)
    half = Fraction(1, 2)
    return (
        half * pos_part(m1 - m2 - m3),
        half * pos_part(m1 + m2 - m3),
        half * pos_part(m1 - m2 + m3),
        half * pos_part(-m1 + m2 - m3),
        half * pos_part(-m1 + m2 + m3),
        half * pos_part(-m1 - m2 + m3),
    )


def pants_boundary_sums(measures: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Boundary sums (e12+e13, e12+e23, e13+e23) of pants edge measures."""
    _, e12, e13, _, e23, _ = (Fraction(x) for x in measures)
    return (e12 + e13, e12 + e23, e13 + e23)


def in_triangle_regime(m1, m2, m3) -> bool:
    m1, m2, m3 = Fraction(m1), Fraction(m2), Fraction(m3)
    return m1 <= m2 + m3 and m2 <= m1 + m3 and m3 <= m1 + m2


def annulus_solve(m, t) -> tuple[str, Fraction, Fraction]:
    """Annulus piece from (m, t) up to the antipodal map.

    Normalize so t >= 0 (tie: m >= 0); the family sign is the sign of the
    normalized m (zero counts as '+'), and the two edge measures are |m|
    and t.
    """
    m, t = Fraction(m), Fraction(t)
    if t < 0 or (t == 0 and m < 0):
        m, t = -m, -t
    family = "-" if m < 0 else "+"
    return family, abs(m), t
