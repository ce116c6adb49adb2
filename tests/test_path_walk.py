"""Whole-path functions against the step-by-step reference walk of
``oracles``.

The reference walk calls no signstab step function: it mutates and
relabels B, steps and relabels points and multiplies edge and
permutation matrices with the formulas in ``oracles``.  The seeds are
random, with frozen indices and split-preserving Permute steps, and the
points are rational or lie in Q(sqrt 5).  The reference walk takes a
Q(sqrt 5) point as the oracle's own numbers (``samples.quads``: every
coordinate an ``oracles.Quad``), so its signs come from ``oracles.sign``
and never from the engine.  Points are compared coordinate by coordinate
with their kinds: every coordinate walked or normalized from a point with
a QuadExt coordinate is a QuadExt, compared with the oracle's Quad on
(a, b, d), and every one from a rational point a Fraction.
"""

import itertools
import json
import random
from fractions import Fraction

from oracles import Quad, mat_vec, sign
from samples import quads, reference_walk

from signstab import io as sio
from signstab import (
    Cone,
    Flip,
    MutationPath,
    Permute,
    QuadExt,
    Seed,
    cone_sign_caveat,
    edge_compatibility,
    generator_coordinate_trace,
    is_loop,
    iterate_orbit,
    presentation_matrix_for_sign,
    seeds_along,
    sign_of_path,
    transport,
)

CASES = 240
DATA = "tests/data"


def _random_path(rng):
    n = rng.randint(2, 6)
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            b[i][j] = rng.randint(-3, 3)
            b[j][i] = -b[i][j]
    unfrozen = sorted(rng.sample(range(n), rng.randint(1, n)))
    frozen = [i for i in range(n) if i not in unfrozen]
    steps = []
    for _ in range(rng.randint(0, 8)):
        if rng.random() < 0.25:
            sigma = list(range(n))
            for block in (unfrozen, frozen):
                images = list(block)
                rng.shuffle(images)
                for i, img in zip(block, images):
                    sigma[i] = img
            steps.append(Permute(tuple(sigma)))
        else:
            steps.append(Flip(rng.choice(unfrozen)))
    return MutationPath(Seed(b, frozenset(unfrozen)), tuple(steps))


def _random_scalar(rng, quadratic):
    a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    if quadratic and rng.random() < 0.7:
        return QuadExt(a, Fraction(rng.randint(-3, 3), rng.randint(1, 3)), 5)
    return a


def _random_point(rng, n, quadratic):
    return tuple(_random_scalar(rng, quadratic) for _ in range(n))


def _typed(w):
    """A point as comparable values: (a, b, d) for a coordinate over
    Q(sqrt d), the engine's QuadExt or the oracle's Quad, and the type
    beside the value for a rational one."""
    return tuple((x.a, x.b, x.d) if isinstance(x, (QuadExt, Quad))
                 else (type(x), x) for x in w)


def test_whole_path_functions_match_step_by_step_walk():
    rng = random.Random(2024)
    frozen_cases = perm_cases = compatible = 0
    for case in range(CASES):
        path = _random_path(rng)
        walk = reference_walk(path)
        n = path.initial.n_uf
        frozen_cases += n < path.initial.n
        perm_cases += any(isinstance(s, Permute) for s in path.steps)
        points = [_random_point(rng, n, quadratic=case % 2 == 1)
                  for _ in range(3)]
        # a point on walls: zero coordinates give zero signs
        points.append(tuple(Fraction(rng.choice((0, 0, 1, -2))) for _ in range(n)))
        befores = []
        for w in points:
            signs, before, end = walk.points(quads(w))
            befores.append(before)
            assert sign_of_path(path, w) == signs, case
            got_end, got_before = transport(path, w)
            assert _typed(got_end) == _typed(end), case
            assert list(map(_typed, got_before)) == list(map(_typed, before)), case
            if 0 not in signs:
                # E^eps is the linear branch the walk took at w
                m = presentation_matrix_for_sign(path, signs)
                assert mat_vec(m, quads(w)) == end, case
        sign_set = list(itertools.product((1, -1), repeat=path.h))
        for eps in rng.sample(sign_set, min(4, len(sign_set))):
            want = walk.branch(eps)[1]
            assert presentation_matrix_for_sign(path, eps) == want, case
        assert is_loop(path) == (walk.bs[-1] == path.initial.b)
        assert [s.b for s in seeds_along(path)] == walk.bs, case
        assert path.compiled.end.b == walk.bs[-1], case
        flips = [(t, kp) for t, (kp, _) in enumerate(walk.moves)
                 if kp is not None]
        # the four points as one cone, and the wall point alone
        for gens, gen_befores in ((points, befores), (points[-1:], befores[-1:])):
            cone = Cone(tuple(gens))
            want = [[before[t][kp] for before in gen_befores] for t, kp in flips]
            got = generator_coordinate_trace(path, cone)
            assert list(map(_typed, got)) == list(map(_typed, want)), case
            signs = [[sign(x) for x in row] for row in want]
            compat = [not any(row) for row in signs]
            compatible += sum(compat)
            assert edge_compatibility(path, cone) == compat, case
            assert cone_sign_caveat(path, cone) == (len(set(zip(*signs))) > 1), case
    assert frozen_cases >= 50 and perm_cases >= 50 and compatible >= 50


def _normalized(w):
    """w divided by its first coordinate of largest absolute value, by the
    oracle's arithmetic and signs on the coordinates themselves; zero
    stays as it is."""
    big = None
    for x in w:
        ax = -x if sign(x) < 0 else x
        if big is None or sign(ax - big) > 0:
            big = ax
    if big is None or sign(big) == 0:
        return w
    return tuple(x / big for x in w)


def _reference_orbit(path, w, laps):
    walk = reference_walk(path)
    rows = []
    w = quads(w)
    for _ in range(laps):
        signs, _, w = walk.points(w)
        w = _normalized(w)
        rows.append((signs, _typed(w)))
    return rows


def _there_and_back(path):
    """The path followed by its reverse: a loop with frozen indices and
    relabelings whose tropical map is the identity."""
    back = [s if isinstance(s, Flip) else
            Permute(tuple(sorted(range(len(s.sigma)), key=s.sigma.__getitem__)))
            for s in reversed(path.steps)]
    return MutationPath(path.initial, path.steps + tuple(back))


def _rational_top_point(rng, n):
    """A Q(sqrt 5) point whose largest coordinate is rational."""
    w = [QuadExt(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                 Fraction(rng.randint(-3, 3), rng.randint(1, 3)), 5)
         for _ in range(n)]
    w[rng.randrange(n)] = Fraction(rng.choice((-1, 1)) * rng.randint(20, 40),
                                   rng.randint(1, 2))
    return tuple(w)


def _zero_b_point(rng, n):
    """Small integers, some of them QuadExts with b = 0: ties for the
    largest coordinate between a Fraction and a QuadExt of one value."""
    return tuple(QuadExt(a, 0, 5) if rng.random() < 0.5 else Fraction(a)
                 for a in (rng.randint(-2, 2) for _ in range(n)))


def test_orbits_match_step_by_step_walk():
    rng = random.Random(77)
    # Q(sqrt 5) points whose coordinates all have b = 0: every lap
    # normalizes by a coordinate with b_m = 0, and the rows stay QuadExts
    pinned = [(Fraction(-1), QuadExt(-1, 0, 5)), (Fraction(1), QuadExt(-2, 0, 5))]
    loops = [(MutationPath(Seed([[0, -m], [m, 0]], frozenset({0, 1})),
                           (Flip(0), Permute((1, 0)))), 25, pinned)
             for m in (1, 2, 3, 4)]
    loops.append((sio.load_path(f"{DATA}/sphere3b_path.json"), 12, []))
    for _ in range(20):
        loops.append((_there_and_back(_random_path(rng)), 3, []))
    for path, laps, extra in loops:
        assert is_loop(path)
        n = path.initial.n_uf
        points = extra + [
            _random_point(rng, n, quadratic=False),
            _random_point(rng, n, quadratic=True),
            _rational_top_point(rng, n),
            _rational_top_point(rng, n),
            _zero_b_point(rng, n),
            _zero_b_point(rng, n),
            (Fraction(0),) * n,
        ]
        for w in points:
            want = _reference_orbit(path, w, laps)
            got = iterate_orbit(path, w, laps).iterations
            assert [(s, _typed(p)) for s, p in got] == want, (path, w)


# periodic loops: (path, period of the normalized orbit, start points)
def _periodic_cases(rng):
    order5 = MutationPath(Seed([[0, -1], [1, 0]], frozenset({0, 1})),
                          (Flip(0), Permute((1, 0))))
    cases = [(order5, 5, [_random_point(rng, 2, quadratic=False),
                          _random_point(rng, 2, quadratic=True),
                          (Fraction(0), Fraction(0))])]
    for _ in range(6):
        path = _there_and_back(_random_path(rng))
        n = path.initial.n_uf
        cases.append((path, 1, [_random_point(rng, n, quadratic=False),
                                _random_point(rng, n, quadratic=True)]))
    sphere = sio.load_path(f"{DATA}/sphere3b_path.json")
    with open(f"{DATA}/sphere3b_points.json", encoding="utf-8") as fh:
        raw = json.load(fh)
    scale = Fraction(rng.randint(1, 99), rng.randint(1, 99))
    cases.append((sphere, 1, [tuple(scale * x for x in sio.point_from_obj(raw[k]))
                              for k in ("L_plus", "L_minus")]))
    return cases


def _reference_detection(signs, window):
    """(stable sign, weak stable sign, stabilization index) of a sign list,
    by the definitions: the trailing `window` signs and the last run."""
    h = len(signs[0])
    if len(signs) < window:
        stable, weak = None, (0,) * h
    else:
        tail = signs[-window:]
        same = all(s == tail[0] for s in tail)
        stable = tail[0] if same and 0 not in tail[0] else None
        weak = tuple(col[0] if len(set(col)) == 1 else 0 for col in zip(*tail))
    start = min(i for i in range(len(signs))
                if all(s == signs[-1] for s in signs[i:]))
    return stable, weak, (start if start < len(signs) - 1 else None)


def test_periodic_orbits_match_step_by_step_walk():
    """Orbits that repeat exactly stop walking and replay their cycle: every
    lap and detection field still matches the step-by-step walk, for orbit
    lengths on either side of the period and windows across the repeat."""
    rng = random.Random(23)
    for path, p, points in _periodic_cases(rng):
        for w in points:
            longest = _reference_orbit(path, w, 3 * p + 2)
            for n_max in sorted({1, 2, p - 1, p, p + 1, 3 * p + 2} - {0}):
                want = longest[:n_max]
                signs = [s for s, _ in want]
                for window in [None, *sorted({2, p + 1, n_max, n_max + 1} - {1})]:
                    report = iterate_orbit(path, w, n_max, window=window)
                    got = [(s, _typed(q)) for s, q in report.iterations]
                    assert got == want, (path, w, n_max)
                    assert len(report.rows) == len(report.signs) == n_max
                    detected = (report.detected_stable,
                                report.detected_weak_stable,
                                report.stabilization_index)
                    assert detected == _reference_detection(
                        signs, report.window), (path, w, n_max, window)
