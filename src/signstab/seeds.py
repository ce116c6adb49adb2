"""Seeds, matrix mutation, paths in the labeled exchange graph, compiled
paths, C/G-matrices, and exchange matrices of ideal triangulations.

Only skew-symmetric seeds are accepted.  Frozen rows and columns of B are
carried along but ignored by every tropical computation, which works on
the unfrozen block.

A path is compiled once, the first time it is used, into a
:class:`CompiledPath`, the path's action on unfrozen positions: B moves
inside its ``build``, in one in-place pass over integer rows, and
``mutate_b`` and ``apply_perm`` are the one-step case.  Every later walk
(points, presentation products, sign cones, C/G-matrices, the one-step
functions on a one-flip path) runs on it.  It is the one place that
applies a flip's ``[+-b_ik]_+`` update or a relabeling, to B or to
anything else, except the g-vector flip.

Points walk on plain ints.  The tropical X-transformation is positively
homogeneous of degree 1 with integer coefficients on each linear piece,
so a point (A + B*sqrt(d))/D is carried as the integer vectors A and B,
each flip acts on both with the same coefficients, and the sign of
a + b*sqrt(d) is decided in integers; ``Fraction`` and ``QuadExt`` values
are built only where a caller hands a point back (see
:mod:`signstab.tropical`).
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from . import matrices as mx
from .errors import (
    FrozenIndexError,
    SignCoherenceError,
    SplitViolationError,
)
from .scalars import FrozenRecord, quad_sign


class Seed(FrozenRecord):
    """Skew-symmetric integer exchange matrix with an unfrozen index subset."""

    _fields = ("b", "unfrozen")

    def __init__(self, b: mx.Matrix, unfrozen: frozenset[int]):
        b = mx.freeze(b)
        unfrozen = tuple(unfrozen)  # checked before hashing: [0] is unhashable
        if any(type(x) is not int for row in b for x in row):
            raise ValueError("exchange matrix entries must be integers")
        if any(type(i) is not int for i in unfrozen):
            raise ValueError("unfrozen indices must be integers")
        unfrozen = frozenset(unfrozen)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "unfrozen", unfrozen)
        n = len(b)
        if not mx.is_skew_symmetric(b):
            raise ValueError("exchange matrix must be skew-symmetric")
        if not all(0 <= i < n for i in unfrozen):
            raise ValueError("unfrozen indices out of range")

    @property
    def n(self) -> int:
        return len(self.b)

    @property
    def unfrozen_order(self) -> tuple[int, ...]:
        return tuple(sorted(self.unfrozen))

    @property
    def n_uf(self) -> int:
        return len(self.unfrozen)

    def unfrozen_block(self) -> mx.Matrix:
        order = self.unfrozen_order
        return tuple(tuple(self.b[i][j] for j in order) for i in order)


class Flip(FrozenRecord):
    """A flip at index k, an int: any other k is a ValueError that names
    its type and does not echo it."""

    _fields = ("k",)

    def __init__(self, k: int):
        object.__setattr__(self, "k", k)
        if type(k) is not int:
            raise ValueError(f"flip index is a {type(k).__name__}, not an int")


class Permute(FrozenRecord):
    """A relabeling sigma of the indices, a permutation of range(n) as ints:
    any other sigma is a ValueError that names an entry's position and
    type, or the range, and does not echo the entry."""

    _fields = ("sigma",)

    def __init__(self, sigma: tuple[int, ...]):
        sigma = tuple(sigma)
        object.__setattr__(self, "sigma", sigma)
        for i, x in enumerate(sigma):
            if type(x) is not int:
                raise ValueError(f"perm entry at position {i} is a "
                                 f"{type(x).__name__}, not an int")
        if sorted(sigma) != list(range(len(sigma))):
            raise ValueError(f"not a permutation of range({len(sigma)})")


PathStep = Flip | Permute


class MutationPath(FrozenRecord):
    _fields = ("initial", "steps")

    def __init__(self, initial: Seed, steps: tuple[PathStep, ...] = ()):
        steps = tuple(steps)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "steps", steps)
        for t, step in enumerate(steps):
            if not isinstance(step, (Flip, Permute)):
                raise ValueError(f"step {t} is {type(step).__name__}, "
                                 "not a Flip or a Permute")

    @property
    def h(self) -> int:
        """Number of horizontal (flip) steps."""
        return sum(1 for s in self.steps if isinstance(s, Flip))

    def flip_indices(self) -> tuple[int, ...]:
        return tuple(s.k for s in self.steps if isinstance(s, Flip))

    @cached_property
    def compiled(self) -> "CompiledPath":
        """The path's action on unfrozen positions, built on first use."""
        return CompiledPath.build(self)


def mutate_b(seed: Seed, k: int) -> Seed:
    """Matrix mutation in direction k (unfrozen): the end seed of the
    one-flip path."""
    return one_step(seed, Flip(k), _end_seed)


def apply_perm(seed: Seed, sigma: tuple[int, ...]) -> Seed:
    """Relabeled seed, b'_{sigma(i) sigma(j)} = b_{ij}: the end seed of the
    one-relabeling path."""
    return one_step(seed, Permute(sigma), _end_seed)


def _end_seed(path: MutationPath) -> Seed:
    return path.compiled.end


def one_step(seed: Seed, step: PathStep, run):
    """run(path) on the one-step path (step,) from seed: the one way that
    ``mutate_b``, ``apply_perm``, ``trop_mutate`` and ``edge_matrix`` take
    their step.  run checks its own arguments before it compiles the path,
    and a compile error loses the "step 0: " of its position, since the
    caller named no path."""
    try:
        return run(MutationPath(seed, (step,)))
    except (FrozenIndexError, SplitViolationError) as exc:
        raise type(exc)(str(exc).removeprefix("step 0: ")) from None


def seeds_along(path: MutationPath) -> list[Seed]:
    """Seeds at every vertex of the path; element i precedes step i."""
    out = [path.initial]
    for step in path.steps:
        out.append(mutate_b(out[-1], step.k) if isinstance(step, Flip)
                   else apply_perm(out[-1], step.sigma))
    return out


def is_loop(path: MutationPath) -> bool:
    """End matrix equal to start matrix, entrywise."""
    return path.compiled.end.b == path.initial.b


# -- compiled paths ------------------------------------------------------------


class FlipStep(NamedTuple):
    """A flip at unfrozen position kp.

    cols[s], for s = 1 and s = -1, lists the pairs (i, [s*b_ik]_+) with a
    positive coefficient, i != kp, at the seed the flip starts from; cols[0]
    is empty, so a zero sign changes nothing but the mutating coordinate.
    """

    kp: int
    cols: tuple[tuple[tuple[int, int], ...], ...]


class PermStep(NamedTuple):
    """A relabeling: unfrozen position i moves to position perm[i]."""

    perm: tuple[int, ...]


class CompiledPath(FrozenRecord):
    """A mutation path as linear data on unfrozen positions.

    Built once per path (see ``MutationPath.compiled``) in one pass over
    one mutable copy of the full exchange matrix B, frozen rows included:
    each flip checks its index is unfrozen, records its FlipStep and
    updates only the rows with b_ik != 0; each relabeling checks its
    length and the unfrozen/frozen split, records its PermStep and
    relabels the rows and columns.  These are the one check of a path's
    steps against its seed: a FrozenIndexError or SplitViolationError
    names the step's position ("step 3: ...").  The end seed is the one
    Seed built, so B is validated once.  ``mutate_b`` and ``apply_perm``
    are the one-step case.
    """

    _fields = ("n", "steps", "end")

    def __init__(self, n: int, steps: tuple[FlipStep | PermStep, ...],
                 end: Seed):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "end", end)

    @classmethod
    def build(cls, path: MutationPath) -> "CompiledPath":
        seed = path.initial
        unfrozen = seed.unfrozen
        order = seed.unfrozen_order
        pos = {idx: p for p, idx in enumerate(order)}
        b = [list(row) for row in seed.b]
        steps = []
        for t, step in enumerate(path.steps):
            if isinstance(step, Permute):
                sigma = step.sigma
                if len(sigma) != len(b):
                    raise SplitViolationError(
                        f"step {t}: permutation length differs from seed size")
                for i, s in enumerate(sigma):
                    if (i in unfrozen) != (s in unfrozen):
                        raise SplitViolationError(
                            f"step {t}: permutation maps index {i} across "
                            "the unfrozen/frozen split")
                steps.append(PermStep(tuple(pos[sigma[i]] for i in order)))
                b = [list(_moved(row, sigma)) for row in _moved(b, sigma)]
                continue
            k = step.k
            if k not in unfrozen:
                raise FrozenIndexError(
                    f"step {t}: index {k} is frozen or out of range")
            column = [(p, b[i][k]) for p, i in enumerate(order) if i != k]
            plus = tuple((p, x) for p, x in column if x > 0)
            minus = tuple((p, -x) for p, x in column if x < 0)
            steps.append(FlipStep(pos[k], ((), plus, minus)))
            # b_ij += sgn(b_ik) * [b_ik * b_kj]_+ on the rows with b_ik != 0,
            # then row k and column k change sign
            krow = b[k]
            for row in b:
                bik = row[k]
                if bik:
                    for j, bkj in enumerate(krow):
                        if bik * bkj > 0:
                            row[j] += abs(bik) * bkj
            b[k] = [-x for x in krow]
            for row in b:
                row[k] = -row[k]
        return cls(len(order), tuple(steps), Seed(b, seed.unfrozen))

    def walk(self, point, d=0):
        """Carry an integer point along the path.

        point is (a, b): the point a + b*sqrt(d) as tuples of ints (see
        ``tropical.point_to_ints``); b is None for a rational point.  At a
        flip with s the sign of coordinate k: a'_k = -a_k and
        a'_i = a_i + [s*b_ik]_+ * a_k, the same for b.  Returns (the sign
        at each flip, the point before each step, the end point).
        """
        a, b = point
        signs = []
        before = []
        for step in self.steps:
            before.append((a, b))
            if type(step) is PermStep:
                a = _moved(a, step.perm)
                if b is not None:
                    b = _moved(b, step.perm)
                continue
            kp, cols = step
            if b is None:
                s = (a[kp] > 0) - (a[kp] < 0)
            else:
                s = quad_sign(a[kp], b[kp], d)
            signs.append(s)
            col = cols[s]
            a = _flipped(a, kp, col)
            if b is not None:
                b = _flipped(b, kp, col)
        return tuple(signs), before, (a, b)

    @staticmethod
    def apply_left(m: list, step: FlipStep | PermStep, eps: int = 0):
        """Left-multiply the matrix m, a list of rows, by the step's matrix
        in place: the edge matrix of sign eps at a flip (E_kk = -1,
        E_ik = [eps*b_ik]_+), the permutation matrix at a relabeling.
        Rows are replaced, never mutated, so a shallow copy of m is a
        separate matrix."""
        if type(step) is PermStep:
            m[:] = _moved(m, step.perm)
            return
        kp, cols = step
        krow = m[kp]
        for i, c in cols[eps]:
            m[i] = [x + c * y for x, y in zip(m[i], krow)]
        m[kp] = [-x for x in krow]

    def live_steps(self) -> tuple[FlipStep | PermStep, ...]:
        """The steps with every update of a row that no later flip reads
        taken out, for a search that reads row kp of the product at each
        flip and no row after the last step.

        One backward walk from the empty set of rows the end reads: a flip
        reads row kp of the product before it, and a relabeling moves row i
        to perm[i], so it needs row i exactly when row perm[i] is read after
        it.  Each FlipStep keeps only the pairs (i, c) whose row i is read
        after the flip, and a relabeling after which no row is read is
        dropped.  Left-multiplying by the kept steps with ``apply_left``
        gives, at each flip, the row kp that the full steps give; every
        other row may be stale.
        """
        live = set()
        kept = []
        for step in reversed(self.steps):
            if type(step) is PermStep:
                if not live:
                    continue
                live = {i for i, p in enumerate(step.perm) if p in live}
            else:
                kp, cols = step
                step = FlipStep(kp, tuple(
                    tuple((i, c) for i, c in col if i in live) for col in cols))
                live.add(kp)
            kept.append(step)
        return tuple(reversed(kept))

    def branch(self, eps) -> list:
        """The presentation matrix of the strict sign sequence eps: the
        product of all step matrices in application order."""
        m = list(mx.identity(self.n))
        signs = iter(eps)
        for step in self.steps:
            s = next(signs) if type(step) is FlipStep else 0
            self.apply_left(m, step, s)
        return m


def _moved(v: tuple, perm: tuple[int, ...]) -> tuple:
    """v relabeled: entry i moves to position perm[i]."""
    out = [None] * len(v)
    for i, p in enumerate(perm):
        out[p] = v[i]
    return tuple(out)


def _flipped(v: tuple, kp: int, col) -> tuple:
    """v_k -> -v_k and v_i -> v_i + c * v_k for each (i, c) in col."""
    out = list(v)
    vk = v[kp]
    out[kp] = -vk
    for i, c in col:
        out[i] += c * vk
    return tuple(out)


def _column_sign(col) -> int:
    """Common sign of a sign-coherent integer column."""
    has_pos = any(x > 0 for x in col)
    has_neg = any(x < 0 for x in col)
    if has_pos and has_neg:
        raise SignCoherenceError(f"column {list(col)} is not sign-coherent")
    if not has_pos and not has_neg:
        raise SignCoherenceError("zero C-matrix column")
    return 1 if has_pos else -1


def c_matrix(path: MutationPath) -> mx.Matrix:
    """C-matrix of the end vertex relative to the start (unfrozen block)."""
    return cg_matrices(path)[0]


def g_matrix(path: MutationPath) -> mx.Matrix:
    """G-matrix of the end vertex relative to the start (unfrozen block)."""
    return cg_matrices(path)[1]


def cg_matrices(path: MutationPath) -> tuple[mx.Matrix, mx.Matrix]:
    """(C, G) of the end vertex relative to the start, from one run of the
    sign-coherent C/G recurrences along the path.

    The c-vectors are the rows of C^T, carried by the path's own steps.  At
    a flip in direction k with tropical sign eps (the common sign of c_k):
    c'_k = -c_k and c'_j = c_j + [eps*b_kj]_+ c_k.  By skew-symmetry the
    coefficient is [-eps*b_jk]_+, so the update is the edge matrix of sign
    -eps applied to C^T (``CompiledPath.apply_left``).  The g-vectors, the
    rows of G^T, keep their own recurrence, g'_k = -g_k + sum_j
    [-eps*b_jk]_+ g_j, so that tropical duality G^T C = I checks one rule
    against the other.  A relabeling moves c- and g-vectors the way it
    moves the B-indices (the rows of C^T and G^T; the initial basis stays
    put); moving the initial basis instead would desynchronize the vectors
    from the b-entries used at later flips and break sign coherence.
    """
    compiled = path.compiled
    ct = list(mx.identity(compiled.n))
    gt = list(ct)
    for step in compiled.steps:
        if type(step) is PermStep:
            CompiledPath.apply_left(ct, step)
            CompiledPath.apply_left(gt, step)
            continue
        kp, cols = step
        eps = _column_sign(ct[kp])
        gt[kp] = [sum((c * gt[jp][i] for jp, c in cols[-eps]), -x)
                  for i, x in enumerate(gt[kp])]
        CompiledPath.apply_left(ct, step, -eps)
    return mx.transpose(ct), mx.transpose(gt)


# -- triangulations ----------------------------------------------------------


class Triangulation(FrozenRecord):
    """Ideal triangulation given by arc labels and clockwise triangle triples.

    Every non-frozen arc must bound exactly two triangle slots and every
    frozen (boundary) arc exactly one; repeated arcs inside one triangle
    (self-folded) are rejected.
    """

    _fields = ("arcs", "frozen_arcs", "triangles")

    def __init__(self, arcs: tuple[str, ...], frozen_arcs: frozenset[str],
                 triangles: tuple[tuple[str, str, str], ...]):
        arcs = tuple(arcs)
        frozen_arcs = frozenset(frozen_arcs)
        triangles = tuple(tuple(t) for t in triangles)
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "frozen_arcs", frozen_arcs)
        object.__setattr__(self, "triangles", triangles)
        known = set(arcs)
        if len(arcs) != len(known):
            raise ValueError("duplicate arc labels")
        if not frozen_arcs <= known:
            raise ValueError("frozen arcs not among arcs")
        counts = {a: 0 for a in arcs}
        for tri in triangles:
            if len(tri) != 3:
                raise ValueError(f"triangle {tri} does not have three sides")
            if len(set(tri)) != 3:
                raise ValueError(f"self-folded triangle {tri} is unsupported")
            for a in tri:
                if a not in counts:
                    raise ValueError(f"unknown arc {a!r} in triangle {tri}")
                counts[a] += 1
        for a, cnt in counts.items():
            want = 1 if a in frozen_arcs else 2
            if cnt != want:
                raise ValueError(
                    f"arc {a!r} occurs in {cnt} triangle slots, expected {want}"
                )


def b_from_triangulation(tri: Triangulation) -> Seed:
    """Exchange matrix B = sum over triangles of B(t).

    b_ab(t) = +1 when the triangle t has a and b as consecutive sides in the
    clockwise order, -1 for counter-clockwise.  Arc order in ``tri.arcs``
    fixes the index order of the seed; unfrozen = non-frozen arcs.
    """
    index = {a: i for i, a in enumerate(tri.arcs)}
    n = len(tri.arcs)
    b = [[0] * n for _ in range(n)]
    for t in tri.triangles:
        for a, bb in zip(t, t[1:] + t[:1]):
            i, j = index[a], index[bb]
            b[i][j] += 1
            b[j][i] -= 1
    unfrozen = frozenset(
        i for i, a in enumerate(tri.arcs) if a not in tri.frozen_arcs
    )
    return Seed(b, unfrozen)
