"""Whole-path functions against a step-by-step walk built in this file.

The reference walk uses only the public one-step functions (trop_mutate,
mutate_b, apply_perm, edge_matrix), a coordinate relabeling written here,
and matrix products written here.  The seeds are random, with frozen
indices and split-preserving Permute steps, and the points are rational
or lie in Q(sqrt 5).
"""

import itertools
import random
from fractions import Fraction

from signstab import (
    Cone,
    Flip,
    MutationPath,
    Permute,
    QuadExt,
    Seed,
    apply_perm,
    edge_matrix,
    generator_coordinate_trace,
    is_loop,
    mutate_b,
    presentation_matrix_for_sign,
    scalar_sign,
    sign_of_path,
    transport,
    trop_mutate,
)

CASES = 240


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


def _relabel(seed, sigma, w):
    """x'_{sigma(i)} = x_i on the unfrozen coordinates."""
    order = sorted(seed.unfrozen)
    out = [None] * len(order)
    for p, idx in enumerate(order):
        out[order.index(sigma[idx])] = w[p]
    return tuple(out)


def _relabel_matrix(seed, sigma):
    order = sorted(seed.unfrozen)
    n = len(order)
    return [[int(order.index(sigma[order[q]]) == p) for q in range(n)]
            for p in range(n)]


def _mul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def _reference_walk(path, w):
    """(signs, points before each step, end point, flip positions)."""
    seed = path.initial
    order = sorted(seed.unfrozen)
    signs, before, flips = [], [], []
    for step in path.steps:
        before.append(w)
        if isinstance(step, Flip):
            kp = order.index(step.k)
            flips.append((len(before) - 1, kp))
            signs.append(scalar_sign(w[kp]))
            w = trop_mutate(seed, step.k, w)
            seed = mutate_b(seed, step.k)
        else:
            w = _relabel(seed, step.sigma, w)
            seed = apply_perm(seed, step.sigma)
    return tuple(signs), before, w, flips


def _reference_presentation(path, eps):
    seed = path.initial
    n = seed.n_uf
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    signs = iter(eps)
    for step in path.steps:
        if isinstance(step, Flip):
            m = _mul([list(r) for r in edge_matrix(seed, step.k, next(signs))], m)
            seed = mutate_b(seed, step.k)
        else:
            m = _mul(_relabel_matrix(seed, step.sigma), m)
            seed = apply_perm(seed, step.sigma)
    return tuple(tuple(row) for row in m), seed


def test_whole_path_functions_match_step_by_step_walk():
    rng = random.Random(2024)
    frozen_cases = perm_cases = 0
    for case in range(CASES):
        path = _random_path(rng)
        n = path.initial.n_uf
        frozen_cases += n < path.initial.n
        perm_cases += any(isinstance(s, Permute) for s in path.steps)
        points = [_random_point(rng, n, quadratic=case % 2 == 1)
                  for _ in range(3)]
        # a point on walls: zero coordinates give zero signs
        points.append(tuple(Fraction(rng.choice((0, 0, 1, -2))) for _ in range(n)))
        walks = []
        for w in points:
            signs, before, end, flips = _reference_walk(path, w)
            walks.append((before, flips))
            assert sign_of_path(path, w) == signs, case
            got_end, got_before = transport(path, w)
            assert got_end == end and got_before == before, case
            if 0 not in signs:
                # E^eps is the linear branch the walk took at w
                m = presentation_matrix_for_sign(path, signs)
                assert tuple(sum((c * x for c, x in zip(row, w)), Fraction(0))
                             for row in m) == end, case
        sign_set = list(itertools.product((1, -1), repeat=path.h))
        for eps in rng.sample(sign_set, min(4, len(sign_set))):
            want, end_seed = _reference_presentation(path, eps)
            assert presentation_matrix_for_sign(path, eps) == want, case
        assert is_loop(path) == (end_seed.b == path.initial.b)
        cone = Cone(tuple(points))
        want = [[before[i][kp] for before, _ in walks] for i, kp in walks[0][1]]
        assert generator_coordinate_trace(path, cone) == want, case
    assert frozen_cases >= 50 and perm_cases >= 50
