import random
from fractions import Fraction

import pytest
from oracles import gordan_empty

from signstab.feasibility import Tableau, check_gordan


def verify_open(rows, x) -> bool:
    """Exact check, in Fractions, that x lies in the open cone of rows."""
    return all(sum(Fraction(c) * xi for c, xi in zip(r, x)) > 0 for r in rows)


def grow(rows, dim):
    """The tableau of the open cone of rows, grown one row at a time, or
    the multiplier of the first prefix found empty."""
    t = Tableau.empty(dim)
    for row in rows:
        t = t.extend(row)
        if type(t) is not Tableau:
            break
    return t


def open_cone_witness(rows, dim):
    """An integer x with r.x > 0 for every row, or None if the cone is
    empty."""
    t = grow(rows, dim)
    return t.witness if type(t) is Tableau else None


def test_contradiction_infeasible():
    assert open_cone_witness([(1, 0), (-1, 0)], 2) is None


def test_open_quadrant_feasible():
    w = open_cone_witness([(1, 0), (0, 1)], 2)
    assert w is not None and w[0] > 0 and w[1] > 0


def test_zero_row_infeasible():
    assert open_cone_witness([(0, 0, 0)], 3) is None


def test_no_rows_feasible():
    assert open_cone_witness([], 4) is not None
    assert open_cone_witness([], 9) is not None


def test_witness_strictness_high_dim():
    rows = [tuple(1 if i == j else 0 for j in range(10)) for i in range(10)]
    w = open_cone_witness(rows, 10)
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
        grown = grow(rows, dim)
        if type(grown) is Tableau:
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
