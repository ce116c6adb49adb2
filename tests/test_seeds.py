import random

import pytest

from oracles import det, framed_c_matrix, inverse
from samples import A2, kronecker, plain_steps, random_seed

from signstab import (
    Flip,
    FrozenIndexError,
    MutationPath,
    Permute,
    Seed,
    SignCoherenceError,
    SplitViolationError,
    Triangulation,
    apply_perm,
    b_from_triangulation,
    c_matrix,
    g_matrix,
    is_loop,
    mutate_b,
    seeds_along,
)
from signstab.matrices import is_skew_symmetric, transpose
from signstab.seeds import CompiledPath, FlipStep


def random_flip_path(rng, seed, length):
    steps = [Flip(rng.choice(sorted(seed.unfrozen))) for _ in range(length)]
    return MutationPath(seed, tuple(steps))


def test_mutate_example():
    assert mutate_b(A2, 0).b == ((0, -1), (1, 0))


def test_mutate_kronecker_sign_flip():
    assert mutate_b(kronecker(4), 0).b == ((0, 4), (-4, 0))


def test_mutate_involution_random():
    rng = random.Random(1)
    for _ in range(50):
        s = random_seed(rng)
        k = rng.choice(sorted(s.unfrozen))
        assert mutate_b(mutate_b(s, k), k).b == s.b
        assert is_skew_symmetric(mutate_b(s, k).b)


def test_mutate_frozen_rejected():
    s = Seed([[0, 1], [-1, 0]], {0})
    with pytest.raises(FrozenIndexError):
        mutate_b(s, 1)
    with pytest.raises(FrozenIndexError):
        mutate_b(s, 5)


def test_compile_names_the_failing_step():
    # the compile is the one check of a path's steps against its seed
    with pytest.raises(FrozenIndexError, match="^step 1: index 5 is frozen"):
        MutationPath(A2, (Flip(0), Flip(5))).compiled
    frozen = Seed([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], {0, 1})
    with pytest.raises(SplitViolationError, match="^step 2: permutation length"):
        MutationPath(frozen, (Flip(0), Flip(1), Permute((1, 0)))).compiled
    with pytest.raises(SplitViolationError,
                       match="^step 1: permutation maps index 0 across"):
        MutationPath(frozen, (Flip(1), Permute((2, 1, 0)))).compiled
    # the one-step functions name no position: their caller gave no path
    with pytest.raises(FrozenIndexError, match="^index 2 is frozen"):
        mutate_b(frozen, 2)
    with pytest.raises(SplitViolationError, match="^permutation maps index 0"):
        apply_perm(frozen, (2, 1, 0))


@pytest.mark.parametrize("step", [5, (1, 0), "flip", None, Seed([[0]], {0})])
def test_path_rejects_a_step_that_is_not_a_flip_or_a_permute(step):
    with pytest.raises(ValueError, match=r"^step 1 is \w+, not a Flip or a Permute$"):
        MutationPath(A2, (Flip(0), step, Flip(1)))


def test_apply_perm_examples():
    assert apply_perm(A2, (0, 1)).b == A2.b
    assert apply_perm(A2, (1, 0)).b == ((0, -1), (1, 0))


def test_apply_perm_group_action():
    rng = random.Random(2)
    for _ in range(30):
        s = random_seed(rng)
        sigma = list(range(s.n))
        rng.shuffle(sigma)
        inv = [0] * s.n
        for i, v in enumerate(sigma):
            inv[v] = i
        assert apply_perm(apply_perm(s, tuple(sigma)), tuple(inv)).b == s.b


def test_apply_perm_split_violation():
    s = Seed([[0, 1], [-1, 0]], {0})
    with pytest.raises(SplitViolationError):
        apply_perm(s, (1, 0))
    # a permutation of the wrong length
    for sigma in ((0,), (0, 1, 2)):
        with pytest.raises(SplitViolationError):
            apply_perm(s, sigma)


@pytest.mark.parametrize("sigma", [(0, 0), (1, 1), (0, 2)])
def test_apply_perm_rejects_non_permutation(sigma):
    with pytest.raises(ValueError, match="not a permutation"):
        apply_perm(A2, sigma)


def test_seeds_along():
    assert [s.b for s in seeds_along(MutationPath(A2, ()))] == [A2.b]
    path = MutationPath(A2, (Flip(0), Flip(1), Flip(0)))
    bs = [s.b for s in seeds_along(path)]
    assert bs == [
        ((0, 1), (-1, 0)),
        ((0, -1), (1, 0)),
        ((0, 1), (-1, 0)),
        ((0, -1), (1, 0)),
    ]


def test_kronecker_loop():
    path = MutationPath(kronecker(3), (Flip(0), Permute((1, 0))))
    assert seeds_along(path)[-1].b == kronecker(3).b
    assert is_loop(path)
    assert not is_loop(MutationPath(A2, (Flip(0),)))
    assert is_loop(MutationPath(A2, ()))


def test_c_matrix_examples():
    assert c_matrix(MutationPath(A2, ())) == ((1, 0), (0, 1))
    assert c_matrix(MutationPath(A2, (Flip(0),))) == ((-1, 1), (0, 1))
    assert c_matrix(MutationPath(A2, (Flip(0), Flip(1)))) == ((0, -1), (1, -1))


def test_g_matrix_examples():
    assert g_matrix(MutationPath(A2, ())) == ((1, 0), (0, 1))
    assert g_matrix(MutationPath(A2, (Flip(0),))) == ((-1, 0), (1, 1))
    assert g_matrix(MutationPath(A2, (Flip(0), Flip(1)))) == ((-1, -1), (1, 0))


def test_tropical_duality_random():
    rng = random.Random(3)
    for _ in range(120):
        s = random_seed(rng, max_rank=5)
        path = random_flip_path(rng, s, rng.randint(0, 8))
        c = c_matrix(path)
        g = g_matrix(path)
        assert g == transpose(inverse(c))
        assert det(c) in (1, -1)


def test_c_matrix_sign_coherence_violation_detected():
    # No skew-symmetric seed gives these steps: the first flip adds nothing
    # to column 1, the second adds column 1 to column 0, which leaves
    # column 0 = (-1, 1) mixed in sign when the third flip reads it.
    path = MutationPath(Seed([[0, 0], [0, 0]], {0, 1}),
                        (Flip(0), Flip(1), Flip(0)))
    steps = (FlipStep(0, ((), (), ())),
             FlipStep(1, ((), (), ((0, 1),))),
             FlipStep(0, ((), (), ())))
    vars(path)["compiled"] = CompiledPath(2, steps, path.initial)
    with pytest.raises(SignCoherenceError, match="not sign-coherent"):
        c_matrix(path)


def test_permutation_steps_in_cg():
    path = MutationPath(kronecker(3), (Flip(0), Permute((1, 0))))
    c = c_matrix(path)
    g = g_matrix(path)
    assert g == transpose(inverse(c))


def test_cg_with_frozen_indices_match_framed_mutation():
    """C from matrix mutation of the framed full B, frozen rows included,
    and G^T C = I, on paths with frozen indices and relabelings."""
    rng = random.Random(11)
    for case in range(200):
        s = random_seed(rng, max_rank=4, frozen=rng.randint(1, 2))
        n = s.n
        unfrozen = sorted(rng.sample(range(n), s.n_uf))
        frozen = [i for i in range(n) if i not in unfrozen]
        steps = []
        for _ in range(rng.randint(0, 8)):
            if rng.random() < 0.25:
                sigma = list(range(n))
                for block in (unfrozen, frozen):
                    images = rng.sample(block, len(block))
                    for i, img in zip(block, images):
                        sigma[i] = img
                steps.append(Permute(tuple(sigma)))
            else:
                steps.append(Flip(rng.choice(unfrozen)))
        path = MutationPath(Seed(s.b, frozenset(unfrozen)), tuple(steps))
        c = c_matrix(path)
        assert c == framed_c_matrix(s.b, unfrozen, plain_steps(path)), case
        assert g_matrix(path) == transpose(inverse(c)), case


# -- triangulations -----------------------------------------------------------


def test_single_clockwise_triangle_all_frozen():
    tri = Triangulation(("a", "b", "c"), frozenset("abc"), (("a", "b", "c"),))
    seed = b_from_triangulation(tri)
    assert seed.b == ((0, 1, -1), (-1, 0, 1), (1, -1, 0))
    assert seed.unfrozen == frozenset()


def test_square_with_diagonal():
    tri = Triangulation(
        ("d", "p", "q", "r", "s"),
        frozenset("pqrs"),
        (("p", "d", "s"), ("d", "q", "r")),
    )
    seed = b_from_triangulation(tri)
    i = {a: n for n, a in enumerate(("d", "p", "q", "r", "s"))}
    row_d = seed.b[i["d"]]
    assert row_d[i["p"]] == -1
    assert row_d[i["s"]] == 1
    assert row_d[i["q"]] == 1
    assert row_d[i["r"]] == -1
    assert seed.unfrozen == frozenset({i["d"]})


def test_self_folded_rejected():
    with pytest.raises(ValueError):
        Triangulation(("a", "b"), frozenset(), (("a", "a", "b"),))


def test_arc_incidence_violations():
    with pytest.raises(ValueError):
        Triangulation(("a", "b", "c"), frozenset(), (("a", "b", "c"),))
    with pytest.raises(ValueError):
        Triangulation(
            ("a", "b", "c", "d"),
            frozenset("d"),
            (("a", "b", "c"), ("a", "b", "d")),
        )


def test_sphere_triangulation_loads(data_dir):
    from signstab.io import load_triangulation

    tri = load_triangulation(data_dir / "sphere3b_triangulation.json")
    seed = b_from_triangulation(tri)
    assert seed.n == 18
    assert seed.n_uf == 12
    assert is_skew_symmetric(seed.b)
    assert seed.b[0][1] == -1 and seed.b[0][6] == 1 and seed.b[0][8] == -1
