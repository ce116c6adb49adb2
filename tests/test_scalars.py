import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signstab import (
    QuadExt,
    RadicandMismatchError,
    format_scalar,
    parse_scalar,
    pos_part,
    quad_sqrt,
    scalar_sign,
)
from signstab import scalars
from signstab.errors import FormatError
from signstab.scalars import quad_sign, square_free_split

GOLDEN_CONJ = QuadExt(Fraction(1, 2), Fraction(-1, 2), 5)  # (1 - sqrt 5)/2


def test_sign_examples():
    assert scalar_sign(QuadExt(0, 0, 5)) == 0
    assert scalar_sign(QuadExt(3, 1, 5)) == 1
    assert scalar_sign(GOLDEN_CONJ) == -1


def test_pos_part_examples():
    assert pos_part(Fraction(-3)) == 0
    assert pos_part(Fraction(7, 2)) == Fraction(7, 2)
    assert pos_part(GOLDEN_CONJ) == 0


def test_sign_balanced_cases():
    # opposite-sign parts decided by comparing a^2 against d*b^2
    v = QuadExt(7, -4, 3)  # 49 vs 48: barely positive
    assert scalar_sign(v) == 1
    assert scalar_sign(QuadExt(-7, 4, 3)) == -1
    assert scalar_sign(QuadExt(2, -1, 2) * QuadExt(2, 1, 2)) == 1  # norm 2


def test_golden_ratio_between_fibonacci_ratios():
    phi = QuadExt(Fraction(1, 2), Fraction(1, 2), 5)
    assert phi > Fraction(8, 5)
    assert phi < Fraction(13, 8)
    assert phi * phi == phi + 1


def test_field_operations():
    x = QuadExt(Fraction(1, 2), Fraction(-3, 4), 5)
    assert x * x.inverse() == 1
    assert (x / x) == 1
    assert x + 0 == x
    assert 1 / x == x.inverse()


def test_radicand_mismatch():
    with pytest.raises(RadicandMismatchError):
        QuadExt(1, 1, 2) + QuadExt(1, 1, 3)
    with pytest.raises(RadicandMismatchError):
        QuadExt(1, 1, 2) * QuadExt(0, 1, 5)


def test_rational_promotion():
    x = QuadExt(1, 1, 5)
    assert x + Fraction(1, 2) == QuadExt(Fraction(3, 2), 1, 5)
    assert 2 * x == QuadExt(2, 2, 5)
    assert QuadExt(Fraction(7, 3), 0, 5) == Fraction(7, 3)


def test_radicand_checked_where_it_enters_only(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return square_free_split(n)

    monkeypatch.setattr(scalars, "square_free_split", counted)
    with pytest.raises(ValueError):
        QuadExt(1, 1, 12)
    x = QuadExt(Fraction(1, 2), Fraction(-3, 4), 999983)
    y = parse_scalar("2-sqrt(999983)")
    assert calls == [12, 999983, 999983, 999983]
    # arithmetic results keep the radicand of their checked operands
    for z in (x + y, x - 1, 2 - x, -x, x * y, 3 * x, x / y, 1 / x,
              x.conjugate(), x.inverse(), pos_part(-x)):
        assert isinstance(z, QuadExt) and z.d == 999983
    assert x * x.inverse() == 1
    assert len(calls) == 4


def _sign_by_isqrt(a, b, d):
    """Sign of a + b*sqrt(d), d not a square, from r = isqrt(d*b*b):
    r < |b|*sqrt(d) < r + 1 when b != 0."""
    if b == 0:
        return (a > 0) - (a < 0)
    r = math.isqrt(d * b * b)
    if b > 0:
        return 1 if a + r >= 0 else -1
    return 1 if a - r >= 1 else -1


def test_quad_sign_against_integer_square_roots():
    rng = random.Random(5)
    for _ in range(3000):
        d = rng.choice((2, 3, 5, 6, 7, 999983))
        b = rng.choice((rng.randint(-10**6, 10**6), rng.randint(-3, 3)))
        near = math.isqrt(d * b * b)
        a = rng.choice((rng.randint(-10**9, 10**9), near, near + 1, -near,
                        -near - 1, 0))
        assert quad_sign(a, b, d) == _sign_by_isqrt(a, b, d), (a, b, d)
        assert scalar_sign(QuadExt(Fraction(a, 7), Fraction(b, 3), d)) \
            == _sign_by_isqrt(3 * a, 7 * b, d)


def test_square_free_split():
    assert square_free_split(12) == (2, 3)
    assert square_free_split(1) == (1, 1)
    assert square_free_split(49) == (7, 1)
    assert square_free_split(0) == (0, 1)


def test_quad_sqrt():
    assert quad_sqrt(12) == QuadExt(0, 2, 3)
    assert quad_sqrt(4) == 2
    assert quad_sqrt(0) == 0
    assert quad_sqrt(Fraction(5, 4)) == QuadExt(0, Fraction(1, 2), 5)


def test_nonsquarefree_radicand_rejected():
    with pytest.raises(ValueError):
        QuadExt(1, 1, 12)
    with pytest.raises(ValueError):
        QuadExt(1, 1, 1)


@pytest.mark.parametrize(
    "text, value",
    [
        ("3", Fraction(3)),
        ("-7/2", Fraction(-7, 2)),
        ("1/2-1/2*sqrt(5)", GOLDEN_CONJ),
        ("1/2+1/2*sqrt(5)", QuadExt(Fraction(1, 2), Fraction(1, 2), 5)),
        ("sqrt(5)", QuadExt(0, 1, 5)),
        ("-sqrt(2)", QuadExt(0, -1, 2)),
        ("2*sqrt(3)", QuadExt(0, 2, 3)),
        ("sqrt(12)", QuadExt(0, 2, 3)),
        ("sqrt(9)", Fraction(3)),
    ],
)
def test_parse_scalar(text, value):
    assert parse_scalar(text) == value


def test_parse_rejects_floats():
    for bad in ("1.5", "1e3", "0.25+0.5*sqrt(5)"):
        with pytest.raises(FormatError):
            parse_scalar(bad)


def test_parse_rejects_bad_radicands():
    assert parse_scalar("sqrt(1000000)") == 1000
    for bad in ("sqrt(1000001)", "1+sqrt(0001000003)", "sqrt(" + "9" * 5000 + ")",
                "sqrt(\u00b2)", "sqrt(-5)", "sqrt()"):
        with pytest.raises(FormatError):
            parse_scalar(bad)


@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
)
def test_format_parse_roundtrip(a, b):
    v = QuadExt(a, b, 5)
    assert parse_scalar(format_scalar(v)) == v
    assert parse_scalar(format_scalar(a)) == a


_frac = st.fractions(min_value=-30, max_value=30, max_denominator=8)
_quads = st.builds(QuadExt, _frac, _frac, st.just(5))


@settings(max_examples=150)
@given(_quads, _quads, _quads)
def test_field_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    if scalar_sign(y) != 0:
        assert (x / y) * y == x


@settings(max_examples=150)
@given(_quads, _quads)
def test_sign_multiplicative(x, y):
    assert scalar_sign(x * y) == scalar_sign(x) * scalar_sign(y)


@settings(max_examples=150)
@given(_quads)
def test_pos_part_identities(x):
    assert pos_part(x) - pos_part(-x) == x
    assert pos_part(x) * pos_part(-x) == 0
