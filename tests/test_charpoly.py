"""The characteristic polynomial against the Faddeev-LeVerrier oracle.

The engine runs Berkowitz's division-free recurrence over the leading
blocks; the oracle divides exactly by k at step k, and neither shares
code with the other.  The cases cover zero structure (triangular,
Hessenberg with zero subdiagonals, a nonzero last row under a diagonal),
repeated and zero eigenvalues, permutations, entries from one to 4,300
digits, and coefficients that exactly meet the bound
|c| <= (1 + ||M||_inf)^n.
"""

import json
import math
import random
from itertools import product

import pytest

from oracles import charpoly as oracle_charpoly
from oracles import perm_matrix

from signstab import (DimensionMismatchError, char_poly,
                      presentation_matrix_for_sign)
from signstab.cli import main


def freeze(rows):
    return tuple(tuple(row) for row in rows)


def conjugated(rng, m, steps):
    """U m U^-1 for U a product of integer elementary matrices: the same
    characteristic polynomial, with the structure of m hidden."""
    m = [list(row) for row in m]
    n = len(m)
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        for row in m:
            row[j] -= c * row[i]
    return freeze(m)


def assert_matches_oracle(m):
    got = char_poly(m).coeffs
    assert got == oracle_charpoly(m), m
    assert len(got) == len(m) + 1 and got[-1] == 1


def test_random_matrices_up_to_16():
    rng = random.Random(14)
    for n in range(17):
        for density in (0.2, 0.6, 1.0):
            for _ in range(3):
                assert_matches_oracle(freeze(
                    [[rng.randint(-9, 9) if rng.random() < density else 0
                      for _ in range(n)] for _ in range(n)]))


def test_triangular_and_zero_subdiagonal_matrices():
    rng = random.Random(7)
    for n in range(1, 11):
        upper = [[rng.randint(-5, 5) if j >= i else 0 for j in range(n)]
                 for i in range(n)]
        lower = [list(col) for col in zip(*upper)]
        for m in (upper, lower):
            assert_matches_oracle(freeze(m))
        # a Hessenberg matrix with some subdiagonal entries zero
        hess = [[rng.randint(-3, 3) if j >= i - 1 else 0 for j in range(n)]
                for i in range(n)]
        for i in range(1, n, 2):
            hess[i][i - 1] = 0
        assert_matches_oracle(freeze(hess))
        # column j nonzero below the diagonal only in the last row, so each
        # step has to swap its pivot up
        swap = [[0] * n for _ in range(n)]
        for j in range(n):
            swap[j][j] = rng.randint(-3, 3)
            swap[n - 1][j] = rng.choice((-2, -1, 1, 2))
        assert_matches_oracle(freeze(swap))
        assert char_poly(freeze([[0] * n] * n)).coeffs == (0,) * n + (1,)


def test_repeated_eigenvalues():
    rng = random.Random(3)
    for n in range(1, 11):
        # identity blocks c * I_k of repeated values: prod (nu - c)^k
        diag = []
        while len(diag) < n:
            c, k = rng.randint(-3, 3), rng.randint(1, 3)
            diag += [c] * min(k, n - len(diag))
        m = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        assert_matches_oracle(freeze(m))
        assert_matches_oracle(conjugated(rng, m, 3 * n))
        # nilpotent: strictly upper triangular, char poly nu^n
        nil = [[rng.randint(-4, 4) if j > i else 0 for j in range(n)]
               for i in range(n)]
        for m in (nil, conjugated(rng, nil, 3 * n)):
            assert char_poly(freeze(m)).coeffs == (0,) * n + (1,)
            assert_matches_oracle(freeze(m))
        # permutation matrices: products of nu^c - 1 over the cycles
        sigma = list(range(n))
        rng.shuffle(sigma)
        p = perm_matrix(tuple(sigma))
        assert_matches_oracle(p)
        assert_matches_oracle(conjugated(rng, p, 2 * n))


@pytest.mark.parametrize("digits", [12, 19, 40, 120])
def test_entries_past_one_prime(digits):
    """Entries of 12 to 120 digits, so coefficients run far past 2^64."""
    rng = random.Random(digits)
    top = 10 ** digits
    for n in range(1, 9):
        m = freeze([[rng.randint(-top, top) for _ in range(n)]
                    for _ in range(n)])
        assert_matches_oracle(m)


def test_coefficients_at_the_bound():
    """diag(R, ..., R) meets the bound: its coefficients C(n, k) (-R)^k sum
    in absolute value to exactly (1 + R)^n.  R runs over both sides of
    every power of two from 2 to 2^(200 // n - 1), for either sign."""
    for n in (1, 2, 3, 5, 12):
        for bits in range(1, 200 // n):
            for r in (2 ** bits - 2, 2 ** bits - 1, 2 ** bits):
                for sign in (1, -1):
                    m = freeze([[sign * r if i == j else 0 for j in range(n)]
                                for i in range(n)])
                    want = tuple(math.comb(n, k) * (-sign * r) ** (n - k)
                                 for k in range(n + 1))
                    assert char_poly(m).coeffs == want


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_entries_of_4300_digits(n):
    """The largest JSON integers the command line reads are exact too."""
    rng = random.Random(n)
    top = 10 ** 4300 - 1
    m = freeze([[rng.choice((-1, 1)) * rng.randint(top // 10, top)
                 for _ in range(n)] for _ in range(n)])
    assert_matches_oracle(m)


@pytest.mark.parametrize("m", [
    ((1, 2),), ((1,), (2,)), ((1, 2), (3,)), ((1,), (2, 3)),
])
def test_a_matrix_that_is_not_square_is_an_error_cold_and_warm(m):
    char_poly.cache_clear()
    with pytest.raises(DimensionMismatchError, match="not square"):
        char_poly(m)
    assert char_poly(((2,),)).coeffs == (-2, 1)
    with pytest.raises(DimensionMismatchError, match="not square"):
        char_poly(m)


def test_sphere3b_completions(sphere_path):
    stable = "+++00-+--+00-+++"
    zeros = [i for i, s in enumerate(stable) if s == "0"]
    polys = set()
    for fill in product((1, -1), repeat=len(zeros)):
        eps = [{"+": 1, "-": -1, "0": 0}[s] for s in stable]
        for i, e in zip(zeros, fill):
            eps[i] = e
        m = presentation_matrix_for_sign(sphere_path, tuple(eps))
        assert_matches_oracle(m)
        polys.add(char_poly(m).coeffs)
    assert len(polys) == 3


@pytest.mark.parametrize("m", [
    [[3, 1], [-1, 0]],
    [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
    [[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 0]],
    [[5]],
    [[12345678901234567890, 1], [-1, 98765432109876543210]],
    [[(i * 7 + j * 3) % 11 - 5 for j in range(9)] for i in range(9)],
])
def test_charpoly_command_matches_oracle(capsys, m):
    code = main(["--json-only", "charpoly", "--matrix", json.dumps(m)])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["result"]["coefficients_ascending"] == list(
        oracle_charpoly(m))
