import hashlib
import random
from fractions import Fraction

import pytest
from oracles import gordan_empty

from signstab.errors import DimensionMismatchError
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


def test_extend_rejects_a_row_of_the_wrong_length():
    # a longer row was read up to the tableau's dim, so its witness was
    # checked only on the truncated row
    for row in [(1, 0, 5), (0, 0, 1), (1,), ()]:
        with pytest.raises(DimensionMismatchError):
            Tableau.empty(2).extend(row)
    grown = grow([(1, 0), (0, 1)], 2)
    with pytest.raises(DimensionMismatchError):
        grown.extend((1, 1, 1))


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


def random_suite(seed):
    """A seeded suite of systems over dims 1-12: small entries, which make
    many empty cones, and larger ones, where one extend often pivots more
    than once."""
    rng = random.Random(seed)
    for trial in range(240):
        dim = trial % 12 + 1
        spread = 4 if trial % 3 else 30
        count = rng.randint(dim, 3 * dim + 2)
        yield dim, [tuple(rng.randint(-spread, spread) for _ in range(dim))
                    for _ in range(count)]


def walk_suite(seed):
    """Every (parent, row, result) of growing each suite system one row at a
    time, extending each prefix by both sides of its next row and growing
    on from the first side whose cone is not empty."""
    for dim, rows in random_suite(seed):
        t = Tableau.empty(dim)
        for row in rows:
            nxt = None
            for side in (row, tuple(-c for c in row)):
                child = t.extend(side)
                yield t, side, child
                if nxt is None and type(child) is Tableau:
                    nxt = child
            if nxt is None:
                break
            t = nxt


def extend_result_key(child):
    if type(child) is Tableau:
        return ("witness", child.witness)
    return ("multiplier", child)


# sha256 of every extend result over walk_suite(5), recorded on the
# full-width tableau (one stored column per cone row) before the revised
# tableau replaced it: the pivot sequence, hence every witness and every
# multiplier, must not change with the tableau's storage
EXTEND_SUITE_SHA256 = (
    "2c59be438975df4d0f01b56d35877869096b42e940eabe8b29135758f2d8a46d"
)


def test_extend_results_are_pinned_on_a_random_suite():
    digest = hashlib.sha256()
    counts = {"witness": 0, "multiplier": 0, "reentry": 0}
    for parent, row, child in walk_suite(5):
        kind, value = extend_result_key(child)
        counts[kind] += 1
        digest.update(repr((row, kind, value)).encode("ascii"))
        if kind == "witness":
            # the revised tableau stores no cone column
            assert all(len(r) == len(row) + 2 for r in child.rows)
            assert len(child.cost) == len(row) + 2
            # a column already in the cone before row entered the basis:
            # the extend pivoted at least twice (the new column first)
            entered = set(child.basis) - set(parent.basis)
            new_column = len(parent.rows) + len(parent.cons) + 1
            if entered - {new_column}:
                counts["reentry"] += 1
    assert counts["witness"] > 3000 and counts["multiplier"] > 300
    assert counts["reentry"] > 500
    assert digest.hexdigest() == EXTEND_SUITE_SHA256


def grow_from(t, rows):
    """The extend result keys of growing t by rows, up to the first empty
    cone."""
    keys = []
    for row in rows:
        t = t.extend(row)
        keys.append(extend_result_key(t))
        if type(t) is not Tableau:
            break
    return keys


def snapshot(t):
    """A copy of the public state of a tableau."""
    return [list(r) for r in t.rows], list(t.cost), list(t.basis), t.witness


def test_extending_a_tableau_leaves_it_unchanged():
    rng = random.Random(23)
    checked = pivoted = empty = 0
    for trial in range(60):
        dim = trial % 8 + 1
        rows = random_rows(rng, dim, rng.randint(1, 2 * dim))
        later = random_rows(rng, dim, 3)
        parent = grow(rows, dim)
        if type(parent) is not Tableau:
            continue
        before = snapshot(parent)
        # the last row pivoted, so each fresh grow(rows, dim) below is
        # extended before its rows were ever read
        pivoted += grow(rows[:-1], dim).basis != parent.basis
        functional = random_rows(rng, dim, 1)[0]
        sides = [functional, tuple(-c for c in functional)]
        for order in (sides, sides[::-1]):
            shared = grow(rows, dim)
            for side in order:
                child = shared.extend(side)
                fresh = grow(rows, dim).extend(side)
                assert extend_result_key(child) == extend_result_key(fresh)
                if type(child) is Tableau:
                    assert grow_from(child, later) == grow_from(fresh, later)
                else:
                    empty += 1
                checked += 1
            assert snapshot(shared) == before
        assert shared.witness == parent.witness
        assert grow_from(shared, later) == grow_from(parent, later)
    assert checked > 100 and pivoted > 20 and empty > 10


def test_a_witness_that_fails_a_row_that_prices_out_is_caught():
    # dim 2, every artificial basic, and duals that are minus the witness
    # (1, 0); the last artificial's dual -3 makes (1, 0) and (-1, 0) both
    # price out, and the witness fails (-1, 0)
    rows = [[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 1]]
    t = Tableau(rows, [5, -1, 0, -3], [1, 2, 3], 1, (), (1, 0))
    kept = t.extend((1, 0))
    assert type(kept) is Tableau and kept.witness == (1, 0)
    assert kept.cons == ((1, 0),)
    with pytest.raises(ArithmeticError):
        t.extend((-1, 0))
