import random
from fractions import Fraction

import pytest
from oracles import gordan_empty

from signstab.feasibility import (
    Tableau,
    check_gordan,
    mixed_cone_witness,
    open_cone_witness,
)


def verify_open(rows, x) -> bool:
    """Exact check, in Fractions, that x lies in the open cone of rows."""
    return all(sum(Fraction(c) * xi for c, xi in zip(r, x)) > 0 for r in rows)


def test_contradiction_infeasible():
    assert open_cone_witness([(1, 0), (-1, 0)], 2) is None


def test_open_quadrant_feasible():
    w = open_cone_witness([(1, 0), (0, 1)], 2)
    assert w is not None and w[0] > 0 and w[1] > 0


def test_zero_row_infeasible():
    assert open_cone_witness([(0, 0, 0)], 3) is None


def test_no_rows_feasible():
    assert open_cone_witness([], 4) is not None


def test_witness_strictness_high_dim():
    rows = [tuple(1 if i == j else 0 for j in range(10)) for i in range(10)]
    w = open_cone_witness(rows, 10)  # simplex branch
    assert w is not None and verify_open(rows, w)


def random_rows(rng, dim, count):
    return [
        tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(count)
    ]


def test_open_cone_matches_gordan_oracle():
    rng = random.Random(11)
    empties = 0
    for _ in range(400):
        dim = rng.randint(1, 5)
        rows = random_rows(rng, dim, rng.randint(1, 6))
        w = open_cone_witness(rows, dim)
        expect_empty = gordan_empty(rows, dim)
        assert (w is None) == expect_empty, (rows, w)
        if w is None:
            empties += 1
        else:
            assert all(sum(c * x for c, x in zip(r, w)) > 0 for r in rows)
    assert 50 < empties < 350  # both answers are exercised


def test_mixed_constraints():
    # x > 0, y >= 0, x + y = 0 forces y = -x < 0: infeasible
    assert mixed_cone_witness([(1, 0)], [(0, 1)], [(1, 1)], 2) is None
    # x > 0, -x + y >= 0 feasible
    w = mixed_cone_witness([(1, 0)], [(-1, 1)], [], 2)
    assert w is not None
    assert w[0] > 0 and -w[0] + w[1] >= 0
    # equality plane through a strict cone
    w = mixed_cone_witness([(1, 1, 0)], [], [(0, 0, 1)], 3)
    assert w is not None and w[0] + w[1] > 0 and w[2] == 0


def test_weak_only_always_feasible_at_origin():
    w = mixed_cone_witness([], [(1, 2), (-3, 4)], [], 2)
    assert w is not None  # the origin satisfies weak rows


def test_mixed_witness_respects_weak_rows():
    w = mixed_cone_witness([(1, 0)], [(-1, 1)], [], 2)
    assert w is not None
    assert w[0] > 0 and -w[0] + w[1] >= 0
    # two opposite weak rows pin the witness to the line y = x
    w = mixed_cone_witness([(1, 0)], [(-1, 1), (1, -1)], [], 2)
    assert w is not None and w[0] > 0 and w[1] == w[0]
    # weak rows alone can cut a strict cone away
    assert mixed_cone_witness([(1, 1)], [(-1, 0), (0, -1)], [], 2) is None


def test_fraction_rows_supported():
    rows = [(Fraction(1, 2), Fraction(-1, 3)), (Fraction(0), Fraction(2, 7))]
    w = open_cone_witness(rows, 2)
    assert w is not None and verify_open(rows, w)


def test_empty_systems_above_dim_8_are_feasible_at_origin():
    assert mixed_cone_witness([], [(0,) * 9], [], 9) == [0] * 9
    assert mixed_cone_witness([], [], [], 9) == [0] * 9
    assert mixed_cone_witness([], [(0,) * 12], [(0,) * 12], 12) == [0] * 12
    assert open_cone_witness([], 9) == [0] * 9


def test_dense_dim_8_system_solves():
    # pairwise row combination (Fourier-Motzkin) grows doubly exponentially
    # on this system; the transposed simplex answers it directly
    rng = random.Random(3)
    rows = [tuple(rng.randint(-3, 3) for _ in range(8)) for _ in range(16)]
    w = open_cone_witness(rows, 8)
    assert w is not None and verify_open(rows, w)


def test_empty_extend_hands_back_its_gordan_multiplier():
    rng = random.Random(17)
    empties = 0
    for _ in range(300):
        dim = rng.randint(1, 5)
        rows = random_rows(rng, dim, rng.randint(1, 6))
        grown = Tableau.empty(dim)
        for row in rows:
            grown = grown.extend(row)
            if not isinstance(grown, Tableau):
                break
        if isinstance(grown, Tableau):
            assert not gordan_empty(rows, dim)
            continue
        empties += 1
        # positive weights on rows of the system, summing to zero (Gordan)
        multiplier = grown
        assert all(y > 0 and row in rows for row, y in multiplier)
        assert all(sum(y * row[k] for row, y in multiplier) == 0
                   for k in range(dim))
        check_gordan(multiplier)
        (first, y), rest = multiplier[0], multiplier[1:]
        with pytest.raises(ArithmeticError):
            check_gordan(((first, 0),) + rest)
        if any(first):
            with pytest.raises(ArithmeticError):
                check_gordan(((first, y + 1),) + rest)
    assert 30 < empties < 270


def test_check_gordan_rejects_non_certificates():
    check_gordan((((1, 0), 1), ((-1, 0), 1)))
    check_gordan((((1, 2), 2), ((-2, -4), 1)))
    for bad in [(), (((1, 0), 1), ((-1, 1), 1)), (((1, 0), -1), ((-1, 0), -1)),
                (((1, 0), 1), ((-1, 0), 1), ((0, 1), 0))]:
        with pytest.raises(ArithmeticError):
            check_gordan(bad)
