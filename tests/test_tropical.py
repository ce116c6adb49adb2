import random
from fractions import Fraction

import pytest

from oracles import Quad, det, mat_vec, trop_step

from signstab import (
    DimensionMismatchError,
    Flip,
    FormatError,
    FrozenIndexError,
    MutationPath,
    NonStrictSignError,
    Permute,
    QuadExt,
    RadicandMismatchError,
    Seed,
    edge_matrix,
    mutate_b,
    parse_sign_str,
    presentation_matrix_at_point,
    presentation_matrix_for_sign,
    sign_of_path,
    sign_str,
    transport,
    trop_mutate,
)
from signstab.tropical import normalize_point

from samples import A2, kronecker, random_seed

F = Fraction


def frac(*xs):
    return tuple(F(x) for x in xs)


def a2_path():
    return MutationPath(A2, (Flip(0), Flip(1), Flip(0)))


def test_trop_mutate_examples():
    assert trop_mutate(A2, 0, frac(2, 3)) == frac(-2, 3)
    assert trop_mutate(A2, 0, frac(-2, 3)) == frac(2, 1)
    assert trop_mutate(A2, 0, frac(0, 7)) == frac(0, 7)


def test_transport_a2():
    final, mids = transport(a2_path(), frac(1, 1))
    assert mids == [frac(1, 1), frac(-1, 1), frac(-1, -1)]
    assert final == frac(1, -2)


def test_sign_fan_a2():
    path = a2_path()
    spots = {
        (1, 1): "++-",
        (-1, 2): "-++",
        (-2, 1): "--+",
        (-1, -1): "---",
        (2, -1): "+--",
    }
    for point, expected in spots.items():
        assert sign_str(sign_of_path(path, frac(*point))) == expected


def test_sign_parse_roundtrip():
    assert parse_sign_str("+,+,-") == (1, 1, -1)
    assert parse_sign_str("+0-") == (1, 0, -1)
    assert sign_str((1, 0, -1)) == "+0-"


def test_edge_matrix_examples():
    s = Seed([[0, -3], [3, 0]], {0, 1})
    assert edge_matrix(s, 0, 1) == ((-1, 0), (3, 1))
    assert edge_matrix(s, 0, -1) == ((-1, 0), (0, 1))
    with pytest.raises(NonStrictSignError):
        edge_matrix(s, 0, 0)


def test_one_flip_functions_reject_a_frozen_index():
    s = Seed([[0, 1], [-1, 0]], {0})
    for k in (1, 5):  # frozen, out of range
        # one wording for all three: a one-step call names no step position
        message = f"^index {k} is frozen or out of range$"
        with pytest.raises(FrozenIndexError, match=message):
            trop_mutate(s, k, (Fraction(1),))
        with pytest.raises(FrozenIndexError, match=message):
            edge_matrix(s, k, 1)
        with pytest.raises(FrozenIndexError, match=message):
            mutate_b(s, k)
    # the point is checked before the one-flip path is compiled
    with pytest.raises(DimensionMismatchError):
        trop_mutate(s, 1, (Fraction(1), Fraction(2)))


def test_edge_matrices_agree_on_wall():
    rng = random.Random(4)
    for _ in range(30):
        s = random_seed(rng)
        k = rng.choice(sorted(s.unfrozen))
        kp = s.unfrozen_order.index(k)
        w = [F(rng.randint(-5, 5)) for _ in range(s.n_uf)]
        w[kp] = F(0)
        plus = mat_vec(edge_matrix(s, k, 1), w)
        minus = mat_vec(edge_matrix(s, k, -1), w)
        col = [s.b[i][k] for i in s.unfrozen_order]
        assert plus == minus == trop_mutate(s, k, tuple(w))
        assert plus == trop_step(col, kp, w)


def test_presentation_kronecker():
    for ell in (2, 3, 5):
        path = MutationPath(kronecker(ell), (Flip(0), Permute((1, 0))))
        assert presentation_matrix_for_sign(path, (1,)) == ((ell, 1), (-1, 0))
        assert presentation_matrix_for_sign(path, (-1,)) == ((0, 1), (-1, 0))


def test_presentation_empty_path():
    assert presentation_matrix_for_sign(MutationPath(A2, ()), ()) == (
        (1, 0),
        (0, 1),
    )


def test_presentation_at_point():
    path = a2_path()
    m = presentation_matrix_at_point(path, frac(1, 1))
    assert m == presentation_matrix_for_sign(path, (1, 1, -1))
    assert mat_vec(m, frac(1, 1)) == transport(path, frac(1, 1))[0]

    kron = MutationPath(kronecker(3), (Flip(0), Permute((1, 0))))
    assert presentation_matrix_at_point(kron, frac(1, 0)) == ((3, 1), (-1, 0))

    with pytest.raises(NonStrictSignError) as err:
        presentation_matrix_at_point(kron, frac(0, 1))
    assert err.value.positions == (0,)


def test_non_strict_sign_rejected():
    with pytest.raises(NonStrictSignError):
        presentation_matrix_for_sign(a2_path(), (1, 0, 1))


def random_path_with_perms(rng, seed, length):
    steps = []
    order = sorted(seed.unfrozen)
    for _ in range(length):
        if rng.random() < 0.2:
            img = list(order)
            rng.shuffle(img)
            sigma = list(range(seed.n))
            for a, b in zip(order, img):
                sigma[a] = b
            steps.append(Permute(tuple(sigma)))
        else:
            steps.append(Flip(rng.choice(order)))
    return MutationPath(seed, tuple(steps))


def test_branch_consistency_random():
    rng = random.Random(5)
    for _ in range(80):
        s = random_seed(rng, max_rank=4)
        path = random_path_with_perms(rng, s, rng.randint(1, 6))
        w = tuple(F(rng.randint(-7, 7)) for _ in range(s.n_uf))
        eps = sign_of_path(path, w)
        if 0 in eps:
            continue
        m = presentation_matrix_for_sign(path, eps)
        assert mat_vec(m, w) == transport(path, w)[0]
        assert det(m) in (1, -1)


def test_wall_consistency_every_completion():
    rng = random.Random(6)
    checked = 0
    while checked < 25:
        s = random_seed(rng, max_rank=3)
        path = random_path_with_perms(rng, s, rng.randint(1, 5))
        w = list(F(rng.randint(-2, 2)) for _ in range(s.n_uf))
        w[rng.randrange(s.n_uf)] = F(0)
        eps0 = sign_of_path(path, tuple(w))
        zeros = [i for i, e in enumerate(eps0) if e == 0]
        if not zeros:
            continue
        checked += 1
        target = transport(path, tuple(w))[0]
        for mask in range(2 ** len(zeros)):
            eps = list(eps0)
            for bit, pos in enumerate(zeros):
                eps[pos] = 1 if (mask >> bit) & 1 else -1
            m = presentation_matrix_for_sign(path, tuple(eps))
            assert mat_vec(m, tuple(w)) == target


def test_homogeneity():
    rng = random.Random(7)
    for _ in range(40):
        s = random_seed(rng, max_rank=4)
        path = random_path_with_perms(rng, s, rng.randint(1, 6))
        w = tuple(F(rng.randint(-6, 6)) for _ in range(s.n_uf))
        lam = F(rng.randint(1, 9), rng.randint(1, 9))
        scaled = tuple(lam * x for x in w)
        assert sign_of_path(path, scaled) == sign_of_path(path, w)
        assert transport(path, scaled)[0] == tuple(
            lam * x for x in transport(path, w)[0]
        )


def test_linearity_on_sign_cone():
    rng = random.Random(8)
    done = 0
    while done < 25:
        s = random_seed(rng, max_rank=3)
        path = random_path_with_perms(rng, s, rng.randint(1, 5))
        w1 = tuple(F(rng.randint(-6, 6)) for _ in range(s.n_uf))
        w2 = tuple(F(rng.randint(-6, 6)) for _ in range(s.n_uf))
        e1, e2 = sign_of_path(path, w1), sign_of_path(path, w2)
        if e1 != e2 or 0 in e1:
            continue
        a, b = F(rng.randint(1, 5)), F(rng.randint(1, 5))
        combo = tuple(a * x + b * y for x, y in zip(w1, w2))
        if sign_of_path(path, combo) != e1:
            continue
        done += 1
        want = tuple(
            a * x + b * y
            for x, y in zip(transport(path, w1)[0], transport(path, w2)[0])
        )
        assert transport(path, combo)[0] == want


def test_normalize_point():
    assert normalize_point(frac(2, -4)) == frac(F(1, 2), -1)
    assert normalize_point(frac(0, 0)) == frac(0, 0)


def test_normalize_point_is_exact():
    # int coordinates are exact: (2, 1) normalizes to (1, 1/2), not floats
    got = normalize_point((2, 1))
    assert got == frac(1, F(1, 2))
    assert all(type(x) is F for x in got)
    golden = QuadExt(F(1, 2), F(1, 2), 5)
    got = normalize_point((golden, F(-2), 0))
    assert got == (golden * F(1, 2), F(-1), F(0))
    assert [type(x) for x in got] == [QuadExt] * 3  # a point over Q(sqrt 5)
    got = normalize_point((F(1), -2 * golden))
    assert [type(x) for x in got] == [QuadExt, QuadExt]
    assert got[1] == -1 and Quad(got[0].a, got[0].b, 5) * Quad(1, 1, 5) == 1


@pytest.mark.parametrize("bad", [1.0, True, "1", None])
def test_points_take_exact_coordinates_only(bad):
    with pytest.raises(FormatError):
        normalize_point((1, bad))
    with pytest.raises(FormatError):
        transport(a2_path(), (1, bad))
    with pytest.raises(FormatError):
        sign_of_path(a2_path(), (bad, 1))


def test_int_coordinates_become_fractions():
    end, before = transport(a2_path(), (1, 1))
    assert end == frac(1, -2)
    assert all(type(x) is F for w in (end, *before) for x in w)


def test_two_radicands_in_one_point_rejected():
    # the flip at 0 on its negative side never mixes the two coordinates
    path = MutationPath(kronecker(3), (Flip(0),))
    w = (QuadExt(0, -1, 2), QuadExt(0, 1, 5))
    for fn in (transport, sign_of_path):
        with pytest.raises(RadicandMismatchError):
            fn(path, w)
