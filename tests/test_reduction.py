import random
import re
from fractions import Fraction

import pytest

from signstab import (
    Cone,
    DimensionMismatchError,
    Flip,
    FrozenIndexError,
    IntPoly,
    MutationPath,
    Permute,
    Seed,
    SplitViolationError,
    block_structure_check,
    char_poly,
    edge_compatibility,
    enumerate_realizable_signs,
    freeze,
    hereditary_check,
    mutate_b,
    permutation_factor_check,
    presentation_matrix_for_sign,
    project_point,
    reduced_subsequence,
    sign_of_path,
    spectral_radius,
    trop_mutate,
)

from oracles import charpoly, det, poly_mul
from samples import kronecker, random_seed, reference_walk

F = Fraction


def frac(*xs):
    return tuple(F(x) for x in xs)


def test_annulus_single_flip_compatibility(annulus_seed, annulus_cone):
    uf = Seed(annulus_seed.unfrozen_block(), frozenset(range(6)))
    at_1 = MutationPath(uf, (Flip(0),))
    at_2 = MutationPath(uf, (Flip(1),))
    assert edge_compatibility(at_1, annulus_cone) == [True]
    assert edge_compatibility(at_2, annulus_cone) == [False]
    assert reduced_subsequence(at_2, annulus_cone) == []
    assert reduced_subsequence(at_1, annulus_cone) == [(0, 0)]


def test_zero_cone_everything_compatible():
    seed = kronecker(3)
    path = MutationPath(seed, (Flip(0), Flip(1), Flip(0)))
    zero = Cone((frac(0, 0),))
    assert edge_compatibility(path, zero) == [True, True, True]
    assert reduced_subsequence(path, zero) == [(0, 0), (1, 1), (2, 0)]
    report = hereditary_check(path, zero, (1, -1, 1))
    assert report.passes and report.violations == []


def test_hereditary_zero_at_compatible_position_fails():
    seed = kronecker(3)
    path = MutationPath(seed, (Flip(0), Flip(1)))
    zero = Cone((frac(0, 0),))
    report = hereditary_check(path, zero, (1, 0))
    assert not report.passes
    assert report.violations == [1]


def test_hereditary_length_mismatch():
    seed = kronecker(3)
    path = MutationPath(seed, (Flip(0),))
    with pytest.raises(DimensionMismatchError):
        hereditary_check(path, Cone((frac(0, 0),)), (1, 1))


def test_compatible_flip_keeps_generator_on_wall():
    # transporting a generator across a compatible flip leaves the
    # mutating coordinate at zero (both branches agree there)
    rng = random.Random(21)
    for _ in range(40):
        s = random_seed(rng, max_rank=4)
        k = rng.choice(sorted(s.unfrozen))
        kp = s.unfrozen_order.index(k)
        g = [F(rng.randint(-4, 4)) for _ in range(s.n_uf)]
        g[kp] = F(0)
        moved = trop_mutate(s, k, tuple(g))
        assert moved[kp] == 0


def test_freeze():
    seed = random_seed(random.Random(22), max_rank=4)
    assert freeze(seed, ()).unfrozen == seed.unfrozen
    smaller = freeze(seed, (0,))
    assert smaller.unfrozen == seed.unfrozen - {0}
    assert smaller.b == seed.b
    with pytest.raises(FrozenIndexError):
        mutate_b(smaller, 0)
    with pytest.raises(FrozenIndexError):
        freeze(smaller, (0,))


def test_project_point():
    seed = Seed(
        [[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]],
        {0, 1, 2, 3},
    )
    w = frac(1, 2, 3, 4)
    assert project_point(seed, w, (0, 1, 2, 3)) == w
    assert project_point(seed, w, (0, 2)) == frac(1, 3)
    with pytest.raises(DimensionMismatchError):
        project_point(seed, w, (0, 9))


def test_freeze_respects_sign_enumeration():
    # J-only paths see the same realizable signs before and after freezing
    rng = random.Random(23)
    for _ in range(15):
        s = random_seed(rng, max_rank=4)
        if s.n_uf < 3:
            continue
        j = sorted(s.unfrozen)[:2]
        path_steps = tuple(Flip(rng.choice(j)) for _ in range(3))
        full = MutationPath(s, path_steps)
        reduced = MutationPath(freeze(s, set(s.unfrozen) - set(j)), path_steps)
        full_signs = enumerate_realizable_signs(full)
        red_signs = enumerate_realizable_signs(reduced)
        assert red_signs == full_signs


def block_seed(ell_j: int, ell_k: int) -> Seed:
    return Seed(
        [
            [0, -ell_j, 0, 0],
            [ell_j, 0, 0, 0],
            [0, 0, 0, -ell_k],
            [0, 0, ell_k, 0],
        ],
        {0, 1, 2, 3},
    )


def test_block_structure_kronecker_example():
    seed = block_seed(3, 5)
    sigma = (1, 0, 2, 3)
    path = MutationPath(seed, (Flip(0), Permute(sigma)))
    report = block_structure_check(path, frozen_out=(2, 3))
    assert report.ok and report.zero_block_exact
    assert report.max_radius_diff == 0.0
    golden = (3 + 5 ** 0.5) / 2
    by_sign = {eps: (rho_full, rho_j) for eps, rho_full, rho_j in report.details}
    assert abs(by_sign[(1,)][0] - golden) <= 1e-9
    assert abs(by_sign[(1,)][1] - golden) <= 1e-9


def test_block_structure_takes_one_radius_per_distinct_matrix():
    from signstab.stability import root_radius

    char_poly.cache_clear()
    root_radius.cache_clear()
    # a palindrome and then one Kronecker lap: 4 signs, 2 E_J's
    steps = (Flip(0), Flip(1), Flip(1), Flip(0), Flip(0), Permute((1, 0, 2, 3)))
    path = MutationPath(block_seed(3, 2), steps)
    report = block_structure_check(path, frozen_out=(2, 3))
    assert report.ok and report.sign_count == 4
    polys, radii = char_poly.cache_info(), root_radius.cache_info()
    blocks = set()
    for eps, rho_full, rho_j in report.details:
        e = presentation_matrix_for_sign(path, eps)
        e_j = tuple(tuple(row[:2]) for row in e[:2])
        blocks.add(e_j)
        # the full matrix's radius is the same float, without being taken
        assert rho_full == rho_j == spectral_radius(e_j)[0] == spectral_radius(e)[0]
    assert len(blocks) == 2
    # one lookup each per sign, of E_J only; one polynomial per distinct
    # E_J, one radius per distinct polynomial
    assert (polys.hits + polys.misses, polys.misses) == (4, 2)
    distinct_polys = {char_poly(m) for m in blocks}
    assert (radii.hits + radii.misses, radii.misses) == (4, len(distinct_polys))


def _oracle_block_form(path, frozen_out, eps):
    """E^eps rebuilt by the reference walk, and the cycle lengths of the
    permutation sigma of K that its K columns e_sigma(k) make, after the
    block theorem is checked on it: |det E| = 1 and charpoly(E) =
    charpoly(E_J) * prod(nu^c - 1) over sigma's cycles."""
    e = reference_walk(path).branch(eps)[1]
    order = sorted(path.initial.unfrozen)
    n = len(order)
    k_pos = [p for p, idx in enumerate(order) if idx in frozen_out]
    j_pos = [p for p in range(n) if p not in k_pos]
    sigma = {}
    for q in k_pos:
        column = [row[q] for row in e]
        assert sorted(column) == [0] * (n - 1) + [1]
        sigma[q] = column.index(1)
    assert sorted(sigma.values()) == k_pos
    assert abs(det(e)) == 1
    lengths, seen = [], set()
    for start in k_pos:
        q, c = start, 0
        while q not in seen:
            seen.add(q)
            q, c = sigma[q], c + 1
        lengths += [c] if c else []
    factor = (1,)
    for c in lengths:
        factor = poly_mul(factor, (-1,) + (0,) * (c - 1) + (1,))
    e_j = [[e[p][q] for q in j_pos] for p in j_pos]
    assert charpoly(e) == poly_mul(charpoly(e_j), factor)
    return e, sorted(lengths)


def test_block_form_theorem_against_oracle_presentations(block_cases):
    cases = list(block_cases)  # criterion 12
    rng = random.Random(32)
    for _ in range(12):  # rank 6, palindromes of 6 to 10 flips inside J
        b = [[0] * 6 for _ in range(6)]
        for i in range(6):
            for j in range(i + 1, 6):
                b[i][j] = rng.randint(-2, 2)
                b[j][i] = -b[i][j]
        j_count = rng.randint(2, 4)
        half = [rng.randrange(j_count) for _ in range(rng.randint(3, 5))]
        steps = tuple(Flip(k) for k in half + half[::-1])
        cases.append((MutationPath(Seed(b, frozenset(range(6))), steps),
                      tuple(range(j_count, 6))))
    # a loop whose permutation swaps K, so that E_K is not the identity
    swap = Seed([[0, -3, 0, 0], [3, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
                frozenset(range(4)))
    cases.append((MutationPath(swap, (Flip(0), Permute((1, 0, 3, 2)))), (2, 3)))
    signs = 0
    for path, frozen_out in cases:
        for eps, _, _ in block_structure_check(path, frozen_out).details:
            e, lengths = _oracle_block_form(path, frozen_out, eps)
            assert e == presentation_matrix_for_sign(path, eps)
            signs += 1
    assert signs > 300
    assert lengths == [2]  # the swap loop's last sign


@pytest.mark.parametrize("e", [
    ((-1, 0, 1, 0), (3, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),  # (J, K) entry
    ((-1, 0, 0, 0), (3, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 1)),  # E_K = diag(2, 1)
    ((-1, 0, 0, 0), (3, 1, 0, 0), (0, 0, 1, 1), (0, 0, 0, 0)),  # both K columns e_2
])
def test_block_structure_raises_on_a_broken_presentation(monkeypatch, e):
    import signstab.reduction

    monkeypatch.setattr(signstab.reduction, "realizable_branches",
                        lambda path: iter([((1,), (1, 0, 0, 0), e)]))
    path = MutationPath(block_seed(3, 5), (Flip(0), Permute((1, 0, 2, 3))))
    with pytest.raises(ArithmeticError, match="K columns"):
        block_structure_check(path, frozen_out=(2, 3))


def test_block_structure_needs_a_nonempty_j():
    path = MutationPath(block_seed(2, 2), (Permute((1, 0, 3, 2)),))
    with pytest.raises(SplitViolationError, match="J empty"):
        block_structure_check(path, frozen_out=(0, 1, 2, 3))


def test_block_structure_no_flips():
    seed = block_seed(2, 2)
    report = block_structure_check(MutationPath(seed, ()), frozen_out=(2, 3))
    assert report.ok
    assert report.details[0][1] == pytest.approx(1.0, abs=1e-9)
    assert report.details[0][2] == pytest.approx(1.0, abs=1e-9)


def test_block_structure_rejects_escaping_flip():
    seed = block_seed(2, 2)
    path = MutationPath(seed, (Flip(2),))
    with pytest.raises(SplitViolationError):
        block_structure_check(path, frozen_out=(2, 3))


def test_block_structure_rejects_mixing_permutation():
    seed = block_seed(2, 2)
    path = MutationPath(seed, (Permute((2, 3, 0, 1)),))
    with pytest.raises(SplitViolationError):
        block_structure_check(path, frozen_out=(2, 3))


def test_permutation_factor_check_examples():
    assert not permutation_factor_check(IntPoly((1, -3, 1)), [1])
    assert permutation_factor_check(IntPoly((1, -2, 1)), [1])
    assert permutation_factor_check(
        char_poly(((0, 0, 1), (1, 0, 0), (0, 1, 0))), [3]
    )


@pytest.mark.parametrize("lengths", [[0], [-1], [2, 0]])
def test_cycle_lengths_below_one_are_an_error(lengths):
    from signstab.stability import cyclotomic_like_product

    # nu^0 - 1 is the zero polynomial, not the factor of any cycle
    message = f"cycle length {min(lengths)} is below 1"
    with pytest.raises(ValueError, match=message):
        cyclotomic_like_product(lengths)
    for p in (IntPoly((-1, 0, 1)), IntPoly((1, -3, 1))):
        with pytest.raises(ValueError, match=message):
            permutation_factor_check(p, lengths)


@pytest.mark.parametrize("lengths", [[1.5], [2.0], ["2"], [True], [1, 2.0]])
def test_cycle_lengths_that_are_not_ints_are_an_error(lengths):
    from signstab.stability import cyclotomic_like_product

    bad = next(c for c in lengths if type(c) is not int)
    message = re.escape(f"cycle length {bad!r} is not an int")
    with pytest.raises(ValueError, match=message):
        cyclotomic_like_product(lengths)
    with pytest.raises(ValueError, match=message):
        permutation_factor_check(IntPoly((-1, 0, 1)), lengths)


def test_sign_restriction_property(sphere_path, sphere_cone):
    # strict full signs restrict to strict signs at compatible positions
    rng = random.Random(24)
    compat = edge_compatibility(sphere_path, sphere_cone)
    positions = [i for i, c in enumerate(compat) if c]
    assert positions
    for _ in range(5):
        w = frac(*(rng.randint(-9, 9) for _ in range(12)))
        eps = sign_of_path(sphere_path, w)
        if 0 in eps:
            continue
        assert all(eps[p] != 0 for p in positions)


def test_cone_sign_caveat(sphere_path, sphere_cone):
    from signstab import cone_sign_caveat

    assert cone_sign_caveat(sphere_path, sphere_cone)  # generators differ
    single = Cone((sphere_cone.generators[0],))
    assert not cone_sign_caveat(sphere_path, single)
