"""Realizable-sign enumeration beyond criterion 13's reach, against an
oracle that shares no code with the engine.

Criterion 13 covers rank <= 3 and at most 4 flips.  Here the seeds have 3
to 6 unfrozen indices, up to 2 frozen ones, and up to 8 flips mixed with
split-preserving Permute steps.  The path is walked by the reference walk
of ``oracles.py``: B by the mutation formula, points by the tropical step
formula, and sign-cone rows by multiplying out the edge and relabeling
matrices.  Then

* every reported witness, walked by the oracle, has exactly its reported
  sign, so every reported sequence is realizable;
* for every strict sequence not reported, the first prefix that no
  reported sequence shares has an open sign cone that the
  Gordan/Caratheodory oracle of ``oracles.py`` proves empty, so no
  unreported sequence is realizable;
* the search that reads every leaf matrix (``realizable_branches``) and
  enumeration's search, which keeps only the product rows a later flip
  reads, give the same signs and witnesses in the same order and stop at
  the same node budget, and each leaf matrix is the oracle's product.
"""

import gc
import random

import pytest
from oracles import gordan_empty
from samples import reference_walk

from signstab import (
    Flip,
    MutationPath,
    Permute,
    Seed,
    SignstabError,
    enumerate_realizable_signs,
    enumerate_realizable_signs_with_witnesses,
    parse_sign_str,
    realizable_branches,
    stretch_factor,
)

CASES = 80


def _random_path(rng):
    n_uf = rng.randint(3, 6)
    n = n_uf + rng.randint(0, 2)
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            b[i][j] = rng.randint(-2, 2)
            b[j][i] = -b[i][j]
    unfrozen = sorted(rng.sample(range(n), n_uf))
    frozen = [i for i in range(n) if i not in unfrozen]
    steps = []
    flips = rng.randint(1, 8)
    while flips:
        if rng.random() < 0.2:
            sigma = list(range(n))
            for block in (unfrozen, frozen):
                images = list(block)
                rng.shuffle(images)
                for i, img in zip(block, images):
                    sigma[i] = img
            steps.append(Permute(tuple(sigma)))
        else:
            steps.append(Flip(rng.choice(unfrozen)))
            flips -= 1
    return MutationPath(Seed(b, frozenset(unfrozen)), tuple(steps))


def test_sign_tree_matches_oracle_with_frozen_indices_and_perms():
    rng = random.Random(606)
    frozen_cases = perm_cases = deep_cases = empty_prefixes = 0
    for case in range(CASES):
        path = _random_path(rng)
        n = path.initial.n_uf
        frozen_cases += n < path.initial.n
        perm_cases += any(isinstance(s, Permute) for s in path.steps)
        deep_cases += path.h >= 7
        walk = reference_walk(path)
        found = enumerate_realizable_signs_with_witnesses(path)
        for eps, w in found.items():
            assert walk.points(w)[0] == eps, (case, eps, w)
        prefixes = {eps[:k] for eps in found for k in range(path.h + 1)}
        for prefix in prefixes:
            if len(prefix) == path.h:
                continue
            for side in (1, -1):
                child = prefix + (side,)
                if child not in prefixes:
                    empty_prefixes += 1
                    rows = walk.branch(child)[0]
                    assert gordan_empty(rows, n), (case, child)
        branches = list(realizable_branches(path))
        for eps, _, matrix in branches:
            assert matrix == walk.branch(eps)[1], (case, eps)
        assert [(eps, w) for eps, w, _ in branches] == list(found.items())
        # the budget counts one node per realizable prefix, root included
        for search in (enumerate_realizable_signs_with_witnesses,
                       lambda *a, **k: list(realizable_branches(*a, **k))):
            search(path, max_branch=len(prefixes))
            with pytest.raises(SignstabError):
                search(path, max_branch=len(prefixes) - 1)
    assert frozen_cases >= 10 and perm_cases >= 10 and deep_cases >= 5
    assert empty_prefixes >= 100


@pytest.mark.parametrize("max_branch", [0, -3])
def test_max_branch_below_one_rejected(max_branch):
    path = MutationPath(Seed([[0, 1], [-1, 0]], {0, 1}), (Flip(0),))
    with pytest.raises(ValueError):
        enumerate_realizable_signs_with_witnesses(path, max_branch=max_branch)


def test_sign_tree_leaves_no_garbage_cycle(sphere_path, sphere_points):
    """A sign-tree search, finished, dropped after its first branch or
    stopped by its budget, is freed by reference counting alone."""
    eps_stab = parse_sign_str(sphere_points["eps_stab"])
    searches = {
        "enumerate": lambda: enumerate_realizable_signs_with_witnesses(
            sphere_path),
        "stretch": lambda: stretch_factor(sphere_path, eps_stab),
        "first branch": lambda: next(realizable_branches(sphere_path)),
        "max_branch": lambda: enumerate_realizable_signs(sphere_path,
                                                         max_branch=50),
    }
    stopped = []
    for name, search in searches.items():
        gc.collect()
        gc.disable()
        try:
            try:
                search()
            except SignstabError:
                stopped.append(name)
            assert gc.collect() == 0, name
        finally:
            gc.enable()
    assert stopped == ["max_branch"]
