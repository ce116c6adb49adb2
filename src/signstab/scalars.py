"""Exact scalar arithmetic: rationals and real quadratic extensions Q(sqrt(d)).

Rationals are plain ``fractions.Fraction``.  A ``QuadExt`` represents
a + b*sqrt(d) with rational a, b and a fixed square-free radicand d >= 2.
Mixing two distinct radicands is an error; rationals promote into any
radicand.  Sign determination is exact, which is what the whole sign
machinery of the engine rests on.

:class:`Record` and :class:`FrozenRecord`, the bases of the engine's
record classes, live here too: every module with a record class imports
this one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import FormatError, MagnitudeError, RadicandMismatchError

Rational = Fraction
Scalar = Union[Fraction, "QuadExt"]

_ZERO = Fraction(0)

# The largest radicand accepted from text: square_free_split is trial
# division up to sqrt(d).  It runs where a radicand enters (parse_scalar,
# --radicand, quad_sqrt and the public QuadExt constructor); arithmetic
# results keep their operands' checked radicand without running it again.
MAX_RADICAND = 10**6


def square_free_split(n: int) -> tuple[int, int]:
    """Write n >= 0 as s**2 * d with d square-free; returns (s, d)."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0, 1
    s, d, p = 1, 1, 2
    while p * p <= n:
        exp = 0
        while n % p == 0:
            n //= p
            exp += 1
        s *= p ** (exp // 2)
        if exp % 2:
            d *= p
        p += 1 if p == 2 else 2
    return s, d * n


def _is_square_free(d: int) -> bool:
    return d >= 2 and square_free_split(d) == (1, d)


def quad_sign(a: int, b: int, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for integers a, b and a square-free d >= 2.

    When a and b have opposite signs, a**2 is compared with d*b**2; the two
    are never equal for b != 0, since d is not a square.
    """
    if b == 0:
        return (a > 0) - (a < 0)
    sb = 1 if b > 0 else -1
    if a == 0 or (a > 0) == (b > 0):
        return sb
    return -sb if a * a > d * b * b else sb


class Record:
    """Field-wise ``==`` and ``repr`` for a record class.

    A subclass names its fields in ``_fields``, in constructor order, and
    sets them in its own ``__init__``.  Two records are equal when they
    are of the same class with equal fields.  A Record is mutable and
    unhashable; see :class:`FrozenRecord`.
    """

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A Record hashed by its fields, which its ``__init__`` sets once with
    ``object.__setattr__``: any later assignment or deletion raises
    AttributeError.  A ``functools.cached_property`` still fills in."""

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class QuadExt(FrozenRecord):
    """The real number a + b*sqrt(d), exact."""

    _fields = ("a", "b", "d")

    def __init__(self, a: Fraction, b: Fraction, d: int):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "d", d)
        if not _is_square_free(d):
            raise ValueError(f"radicand {d} is not square-free and >= 2")

    @classmethod
    def _of(cls, a: Fraction, b: Fraction, d: int) -> "QuadExt":
        """a + b*sqrt(d) from Fractions a, b over a radicand d that was
        already checked, skipping the public constructor's square-free
        test: every arithmetic result, and every point coordinate built
        back from the integer walk (``tropical.point_from_ints``)."""
        q = object.__new__(cls)
        object.__setattr__(q, "a", a)
        object.__setattr__(q, "b", b)
        object.__setattr__(q, "d", d)
        return q

    # -- coercion ---------------------------------------------------------

    def _coerce(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise RadicandMismatchError(
                    f"cannot mix sqrt({self.d}) with sqrt({other.d})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt._of(Fraction(other), _ZERO, self.d)
        return NotImplemented

    # -- ring/field operations --------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExt._of(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt._of(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExt._of(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExt._of(
            self.a * o.a + self.d * self.b * o.b,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "QuadExt":
        return QuadExt._of(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """Field norm a**2 - d*b**2."""
        return self.a * self.a - self.d * self.b * self.b

    def inverse(self) -> "QuadExt":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        return QuadExt._of(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            if other.d != self.d:
                return self.b == 0 and other.b == 0 and self.a == other.a
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def sign(self) -> int:
        # a + b*sqrt(d) times the positive denominators of a and b
        a, b = self.a, self.b
        return quad_sign(a.numerator * b.denominator,
                         b.numerator * a.denominator, self.d)

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is NotImplemented:
            raise TypeError(f"cannot compare QuadExt with {type(other)!r}")
        return (self - o).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __float__(self):
        return float(self.a) + float(self.b) * self.d ** 0.5

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r}, {self.d})"

    def __str__(self):
        return format_scalar(self)


def scalar_sign(s: Scalar) -> int:
    """Exact sign in {+1, 0, -1} of the real number represented."""
    if isinstance(s, QuadExt):
        return s.sign()
    return (s > 0) - (s < 0)


def pos_part(s: Scalar) -> Scalar:
    """max(s, 0), decided by exact sign evaluation."""
    if scalar_sign(s) > 0:
        return s
    return _ZERO if not isinstance(s, QuadExt) else QuadExt._of(_ZERO, _ZERO, s.d)


def quad_sqrt(n: int | Fraction) -> Scalar:
    """Exact sqrt(n) for rational n >= 0, as Fraction or QuadExt."""
    n = Fraction(n)
    if n < 0:
        raise ValueError("negative radicand")
    s, d = square_free_split(n.numerator * n.denominator)
    if d == 1:
        return Fraction(s, n.denominator)
    return QuadExt(0, Fraction(s, n.denominator), d)


# -- text encoding ----------------------------------------------------------
#
# Exact scalars in files render as "p", "p/q" or "p/q+r/s*sqrt(d)".
# No float literals are accepted.


def scalar_ints(s) -> tuple[int, int, int, int]:
    """(a, b, den, d) with s = (a + b*sqrt(d)) / den and den > 0 the least
    common denominator; b and d are 0 for a rational s (or an int)."""
    if isinstance(s, QuadExt):
        a, b = s.a, s.b
        den = math.lcm(a.denominator, b.denominator)
        return (a.numerator * (den // a.denominator),
                b.numerator * (den // b.denominator), den, s.d)
    return s.numerator, 0, s.denominator, 0


def format_ints(a: int, b: int, den: int, d: int) -> str:
    """The text of (a + b*sqrt(d)) / den for ints a, b and den != 0 of any
    sign: "p", "p/q" or "p/q+r/s*sqrt(d)", each part in lowest terms, the
    rational part left out when it is 0 and the sqrt term when b is 0.
    Every text form of a scalar is written here.  An int past Python's
    int-to-text digit limit is a MagnitudeError."""
    if den < 0:
        a, b, den = -a, -b, -den
    try:
        if not b:
            return _ratio_text(a, den)
        if b == den or b == -den:
            tail = f"sqrt({d})"
        else:
            tail = f"{_ratio_text(abs(b), den)}*sqrt({d})"
        if not a:
            return tail if b > 0 else f"-{tail}"
        return f"{_ratio_text(a, den)}{'+' if b > 0 else '-'}{tail}"
    except ValueError:  # past Python's int-to-text digit limit
        raise MagnitudeError(
            "a scalar's numerator or denominator is past Python's int-to-text "
            "digit limit (4,300 digits by default)") from None


def _ratio_text(p: int, q: int) -> str:
    """p/q in lowest terms for q > 0, "p" when q divides p."""
    g = math.gcd(p, q)
    if g == q:
        return str(p // q)
    return f"{p // g}/{q // g}"


def format_scalar(s: Scalar) -> str:
    return format_ints(*scalar_ints(s))


def _parse_frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational literal {text!r}") from exc


def parse_scalar(text: str) -> Scalar:
    """Parse the exact text encoding; inverse of format_scalar."""
    if not isinstance(text, str):
        raise FormatError(f"scalar literal must be a string, got {text!r}")
    t = text.replace(" ", "")
    if "." in t or "e" in t.lower().replace("sqrt", ""):
        raise FormatError(f"float literals are not exact: {text!r}")
    if "sqrt" not in t:
        return _parse_frac(t)
    root = t.index("sqrt")
    if t[root:].count("(") != 1 or not t.endswith(")"):
        raise FormatError(f"bad quadratic literal {text!r}")
    d_text = t[root + 5 : -1]
    if not d_text.lstrip("+").isdecimal():  # what int() accepts
        raise FormatError(f"bad radicand in {text!r}")
    # the length first: int() refuses a very long digit string
    if (len(d_text.lstrip("+0")) > len(str(MAX_RADICAND))
            or int(d_text) > MAX_RADICAND):
        raise FormatError(f"radicand in {text!r} is above {MAX_RADICAND}")
    d = int(d_text)
    head = t[:root]
    if head.endswith("*"):
        head = head[:-1]
    # split head into the rational part and the sqrt coefficient
    cut = max(head.rfind("+", 1), head.rfind("-", 1))
    if cut <= 0:
        a_text, b_text = "0", head or "1"
    else:
        a_text, b_text = head[:cut], head[cut:]
    if b_text in ("", "+"):
        b_text = "1"
    elif b_text == "-":
        b_text = "-1"
    elif b_text.startswith("+"):
        b_text = b_text[1:]
    s, d_free = square_free_split(d)
    value = QuadExt(_parse_frac(a_text), _parse_frac(b_text) * s, d_free) \
        if d_free > 1 else _parse_frac(a_text) + _parse_frac(b_text) * s
    return value
