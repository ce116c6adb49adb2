"""Seeds shared by several test files, and the reference walk of a path.

Test modules import these from here, never from one another.
"""

from oracles import PathWalk

from signstab import Flip, Seed

A2 = Seed([[0, 1], [-1, 0]], {0, 1})


def kronecker(ell: int) -> Seed:
    return Seed([[0, -ell], [ell, 0]], {0, 1})


def random_seed(rng, max_rank=5, max_entry=3, frozen=0):
    n = rng.randint(2, max_rank) + frozen
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            b[i][j] = rng.randint(-max_entry, max_entry)
            b[j][i] = -b[i][j]
    return Seed(b, frozenset(range(n - frozen)))


def plain_steps(path):
    """The steps of a MutationPath as plain data: k for a flip at k, the
    tuple sigma for a relabeling."""
    return [s.k if isinstance(s, Flip) else s.sigma for s in path.steps]


def reference_walk(path) -> PathWalk:
    """The oracle walk of a MutationPath, which it sees as plain data."""
    return PathWalk(path.initial.b, path.initial.unfrozen, plain_steps(path))
