import json
import math
import os
import random
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import perm_matrix, poly_with_top_modulus

from signstab import (
    Cone,
    DimensionMismatchError,
    Flip,
    FormatError,
    IntPoly,
    LoopRequiredError,
    MagnitudeError,
    MutationPath,
    NonStrictSignError,
    NotRealizableError,
    Permute,
    QuadExt,
    Seed,
    canonical_cone_membership,
    char_poly,
    detect_stable_sign,
    detect_weak_stable_sign,
    edge_matrix,
    enumerate_realizable_signs,
    enumerate_realizable_signs_with_witnesses,
    hereditary_check,
    iterate_orbit,
    parse_sign_str,
    presentation_matrix_for_sign,
    quad_sqrt,
    realizable_branches,
    sign_geq,
    sign_of_path,
    spectral_radius,
    stretch_factor,
    verify_eigenpair,
)
from signstab import io as sio
from signstab import seeds

from test_seeds import A2, kronecker

F = Fraction


def frac(*xs):
    return tuple(F(x) for x in xs)


def kron_path(ell):
    return MutationPath(kronecker(ell), (Flip(0), Permute((1, 0))))


def a2_path():
    return MutationPath(A2, (Flip(0), Flip(1), Flip(0)))


# -- orbits --------------------------------------------------------------------


def test_orbit_kronecker3():
    report = iterate_orbit(kron_path(3), frac(1, 0), 3, window=2)
    signs = [s for s, _ in report.iterations]
    assert signs == [(1,), (1,), (1,)]
    points = [p for _, p in report.iterations]
    assert points[0] == frac(1, F(-1, 3))
    assert points[1] == frac(1, F(-3, 8))
    assert report.detected_stable == (1,)


def test_orbit_of_an_int_point_is_exact():
    # int coordinates are exact: the rows are Fractions, never floats
    report = iterate_orbit(kron_path(3), (1, 0), 3, window=2)
    want = iterate_orbit(kron_path(3), frac(1, 0), 3, window=2)
    assert report.iterations == want.iterations
    assert all(type(x) is F for _, p in report.iterations for x in p)
    assert report.point == frac(1, 0)
    with pytest.raises(FormatError):
        iterate_orbit(kron_path(3), (1.0, 0), 3)


def test_orbit_requires_loop():
    with pytest.raises(LoopRequiredError):
        iterate_orbit(MutationPath(A2, (Flip(0),)), frac(1, 1), 3)


def test_detect_stable_insufficient_window():
    report = iterate_orbit(kron_path(3), frac(1, 0), 3, window=2)
    assert detect_stable_sign(report, window=4) is None


def test_detect_weak_matches_strict_when_stabilized():
    report = iterate_orbit(kron_path(3), frac(1, 0), 6, window=3)
    assert detect_weak_stable_sign(report, 3) == detect_stable_sign(report, 3)


def test_weak_all_zero_flagged():
    # B = 0 seed: the flip just negates the coordinate, signs alternate
    seed = Seed([[0]], {0})
    path = MutationPath(seed, (Flip(0),))
    report = iterate_orbit(path, (F(1),), 6, window=4)
    assert report.detected_weak_stable == (0,)
    assert report.detected_stable is None
    assert report.all_zero_warning


def test_stable_sign_of_an_empty_path(data_dir):
    # h = 0: the empty sign is strict once the orbit has `window` signs
    path = sio.load_path(data_dir / "empty_path.json")
    assert iterate_orbit(path, (F(1),), 1).detected_stable is None
    report = iterate_orbit(path, (F(1),), 4, window=2)
    assert report.detected_stable == ()
    assert detect_stable_sign(report, 4) == ()


def test_orbit_normalization_preserves_signs():
    rng = random.Random(12)
    path = kron_path(4)
    for _ in range(20):
        w = frac(rng.randint(-9, 9), rng.randint(-9, 9))
        if w == frac(0, 0):
            continue
        r1 = iterate_orbit(path, w, 5)
        unnormalized = w
        expected = []
        from signstab import transport

        for _ in range(5):
            expected.append(sign_of_path(path, unnormalized))
            unnormalized = transport(path, unnormalized)[0]
        assert [s for s, _ in r1.iterations] == expected


def test_periodic_orbit_stops_walking_at_its_first_repeat(monkeypatch, data_dir):
    """A periodic orbit walks the loop only until a lap repeats an anchor
    lap exactly, then replays its cycle as the same row tuples; an orbit
    that never repeats walks every lap."""
    walked = []
    walk = seeds.CompiledPath.walk

    def counted(self, point, d=0):
        walked.append(1)
        return walk(self, point, d)

    monkeypatch.setattr(seeds.CompiledPath, "walk", counted)
    points = json.loads((data_dir / "sphere3b_points.json").read_text())
    sphere = sio.load_path(data_dir / "sphere3b_path.json")
    for path, w, laps, most, period in [
        (sphere, sio.point_from_obj(points["L_plus"]), 200, 3, 1),
        (kron_path(1), frac(1, 2), 50, 16, 5),
        (sphere, sio.point_from_obj(points["l_plus"]), 40, 40, None),
    ]:
        walked.clear()
        report = iterate_orbit(path, w, laps)
        assert len(report.rows) == len(report.signs) == laps
        if period is None:
            assert len(walked) == laps
        else:
            assert len(walked) <= most
            assert all(report.rows[i] is report.rows[i - period]
                       for i in range(most, laps))


# -- sign order ------------------------------------------------------------------


def test_sign_geq_examples():
    assert sign_geq((1, -1, 1), (1, 0, 1))
    assert not sign_geq((1, -1), (-1, 0))
    assert sign_geq((1, 0, -1), (1, 0, -1))
    assert sign_geq((1, 1), (0, 0))
    assert not sign_geq((0, 1), (1, 1))


# -- enumeration --------------------------------------------------------------


def test_enumerate_a2():
    found = enumerate_realizable_signs(a2_path())
    want = {(1, 1, -1), (1, -1, -1), (-1, 1, 1), (-1, -1, 1), (-1, -1, -1)}
    assert found == want


def test_enumerate_single_flip():
    path = MutationPath(A2, (Flip(0),))
    assert enumerate_realizable_signs(path) == {(1,), (-1,)}


def test_enumerate_witnesses_are_witnesses():
    for path in (a2_path(), kron_path(3), MutationPath(A2, ())):
        found = enumerate_realizable_signs_with_witnesses(path)
        assert found
        for eps, w in found.items():
            assert type(w) is tuple and all(type(v) is int for v in w)
            assert math.gcd(*w) == 1
            assert sign_of_path(path, w) == eps


def test_enumerate_empty_path():
    assert enumerate_realizable_signs(MutationPath(A2, ())) == {()}


def test_enumerate_with_sparse_samples_still_exact():
    # no sampled witnesses: the exact search alone finds every sequence
    found = enumerate_realizable_signs(a2_path())
    assert len(found) == 5


def test_report_witnesses_on_sampled_sphere3b_signs(sphere_path,
                                                    sphere_enumeration):
    code, out, _ = sphere_enumeration
    assert code == 0
    witnesses = json.loads(out)["result"]["witnesses"]
    assert len(witnesses) == 4772
    for text in random.Random(15).sample(sorted(witnesses), 200):
        w = sio.point_from_obj(witnesses[text])
        assert sign_of_path(sphere_path, w) == parse_sign_str(text)


# Every engine entry that takes a sign sequence, as (call on the sequence,
# its length h, whether it needs a strict sequence); edge_matrix takes the
# one entry of its one-flip path's sequence.  kron3 is a loop with h = 1.
SIGN_ENTRIES = {
    "presentation_matrix_for_sign": (
        lambda eps: presentation_matrix_for_sign(a2_path(), eps), 3, True),
    "edge_matrix": (lambda eps: edge_matrix(A2, 0, *eps), 1, True),
    "realizable_branches": (
        lambda eps: realizable_branches(a2_path(), stable=eps), 3, False),
    "stretch_factor": (lambda eps: stretch_factor(kron_path(3), eps), 1, False),
    "hereditary_check": (
        lambda eps: hereditary_check(a2_path(), Cone((frac(1, 1),)), eps),
        3, False),
}


def test_strict_sign_of_length_h_required():
    for name, (call, h, strict) in SIGN_ENTRIES.items():
        for bad in (2, -2, True, 1.0, "+"):
            eps = (1,) * (h - 1) + (bad,)
            with pytest.raises(ValueError, match=f"flip position {h - 1}"):
                call(eps)
        if name != "edge_matrix":  # its one entry has no length to get wrong
            with pytest.raises(DimensionMismatchError,
                               match=f"sign sequence length {h + 1} differs"):
                call((1,) * (h + 1))
        zero = (0,) + (1,) * (h - 1)
        if strict:
            with pytest.raises(NonStrictSignError) as err:
                call(zero)
            assert err.value.positions == (0,), name
            assert str(err.value) == "sign is zero at flip positions (0,)"
        else:
            call(zero)


def test_kron3_sign_entries_outside_plus_zero_minus_rejected():
    # FlipStep.cols is indexed by the sign, so an unchecked 2 would read
    # cols[2] = cols[-1], the minus branch, and -2 the plus branch
    path = kron_path(3)
    with pytest.raises(ValueError):
        presentation_matrix_for_sign(path, (2,))
    with pytest.raises(ValueError):
        stretch_factor(path, (-2,))
    assert presentation_matrix_for_sign(path, (-1,)) == ((0, 1), (-1, 0))


# -- polynomials -----------------------------------------------------------------


def test_char_poly_examples():
    assert char_poly(((3, 1), (-1, 0))).coeffs == (1, -3, 1)
    assert char_poly(((1, 0), (0, 1))).coeffs == (1, -2, 1)
    n = 4
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    # (nu - 1)^4 = nu^4 - 4nu^3 + 6nu^2 - 4nu + 1
    assert char_poly(ident).coeffs == (1, -4, 6, -4, 1)


def test_char_poly_of_permutation_divides_cycle_product():
    from signstab.stability import cyclotomic_like_product

    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(2, 7)
        sigma = list(range(n))
        rng.shuffle(sigma)
        p = char_poly(perm_matrix(tuple(sigma)))
        seen, lengths = set(), []
        for start in range(n):
            if start in seen:
                continue
            length, cur = 0, start
            while cur not in seen:
                seen.add(cur)
                cur = sigma[cur]
                length += 1
            lengths.append(length)
        assert cyclotomic_like_product(lengths).divides_into(p) is not None
        rho, _ = spectral_radius(perm_matrix(tuple(sigma)))
        assert abs(rho - 1.0) < 1e-9


def test_intpoly_behaviour():
    p = IntPoly((1, -3, 1))  # 1 - 3nu + nu^2
    lam = QuadExt(F(3, 2), F(1, 2), 5)
    assert p(lam) == 0
    assert p(2) == -1
    q = IntPoly((-1, 0, 0, 1))  # nu^3 - 1
    prod = p * q
    assert prod.degree == 5
    assert q.divides_into(prod).coeffs == p.coeffs
    assert q.divides_into(IntPoly((1, 1))) is None
    assert str(IntPoly((1, -3, 1))) == "nu^2 - 3*nu + 1"


# -- spectral radius --------------------------------------------------------------


def test_spectral_radius_examples():
    rho, bound = spectral_radius(((3, 1), (-1, 0)))
    assert abs(rho - (3 + 5 ** 0.5) / 2) <= 1e-9
    assert bound <= 1e-9
    rho, _ = spectral_radius(perm_matrix((1, 2, 0)))
    assert abs(rho - 1.0) <= 1e-9


def test_spectral_radius_companion_of_printed_factors():
    # companion matrix of nu^2 - 3nu + 1
    rho, _ = spectral_radius(((0, -1), (1, 3)))
    assert abs(rho - (3 + 5 ** 0.5) / 2) <= 1e-9


@pytest.mark.parametrize("a", [0, 1, -1, 7, -7, 2 ** 53 + 1, -(2 ** 70 + 5)])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_root_radius_of_one_repeated_root_is_exact(a, k):
    from signstab.stability import root_radius

    p = IntPoly((1,))
    for _ in range(k):
        p = p * IntPoly((-a, 1))
    # the square-free part is nu - a, whose root a is exact
    est = float(abs(a))
    expected = (est, 1e-11 * max(1.0, est)) if a else (0.0, 0.0)
    assert root_radius(p) == expected


def test_root_radius_of_a_linear_part_past_the_float_range():
    from signstab.stability import root_radius

    a = 10 ** 999
    p = IntPoly((-a, 1)) * IntPoly((-a, 1))
    for _ in range(3):  # an error is not cached: every call raises it
        with pytest.raises(MagnitudeError):
            root_radius(p)


def test_char_poly_of_a_list_matrix_is_that_of_its_tuple_form():
    from signstab.stability import root_radius

    char_poly.cache_clear()
    root_radius.cache_clear()
    rows = [[3, 1], [-1, 0]]
    assert char_poly(rows) == char_poly(((3, 1), (-1, 0))) == IntPoly((1, -3, 1))
    assert spectral_radius(rows) == spectral_radius(((3, 1), (-1, 0)))
    assert abs(spectral_radius(rows)[0] - (3 + 5 ** 0.5) / 2) <= 1e-9
    rows[0][0] = 2  # a cached polynomial is keyed by a frozen copy
    assert char_poly(rows) == IntPoly((1, -2, 1))
    assert spectral_radius(rows)[0] == 1.0
    assert char_poly(((3, 1), (-1, 0))) == IntPoly((1, -3, 1))


@pytest.mark.parametrize("entry, value", [
    (Fraction(2), 2), (2.0, 2), (True, 1),
    (QuadExt(Fraction(2), Fraction(0), 5), 2),
    (Fraction(5, 2), None), (2.5, None), (float("nan"), None), ("2", None),
    (None, None), (QuadExt(Fraction(2), Fraction(1), 5), None),
])
def test_char_poly_entry_gives_the_same_answer_cold_and_warm(entry, value):
    # an entry equal to an int hashes like it, so a warm cache answers with
    # the int matrix's polynomial; a cold call must give it too, and any
    # other entry is the same error naming it, cold or warm
    def answer():
        try:
            return char_poly(((entry, 1), (0, 3)))
        except FormatError as exc:
            return str(exc)

    char_poly.cache_clear()
    cold = answer()
    char_poly.cache_clear()
    char_poly(((7 if value is None else value, 1), (0, 3)))
    assert answer() == cold
    if value is None:
        assert cold == f"char_poly: matrix entry {entry!r} is not an integer"
    else:
        assert cold == IntPoly((3 * value, -3 - value, 1))


def test_linear_squarefree_radius_loads_no_numpy():
    code = """
import io, sys, contextlib
from signstab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["--json-only", "charpoly", "--matrix", "[[2,1],[0,2]]"]) == 0
assert "numpy" not in sys.modules, "a linear square-free part loaded numpy"
"""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), *filter(None, [env.get("PYTHONPATH")])])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr


_FACTOR = st.one_of(
    st.tuples(st.just("root"), st.integers(-30, 30)),
    st.tuples(st.just("real"), st.integers(-30, 30), st.integers(-200, 200))
    .filter(lambda f: f[1] ** 2 > 4 * f[2]),
    st.tuples(st.just("pair"), st.integers(1, 400)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_FACTOR, min_size=1, max_size=6))  # degree at most 12
# a real root tied in modulus with a complex pair
@example([("root", 2), ("pair", 4)])
@example([("root", -3), ("pair", 9), ("real", 1, -6)])
# roots on the unit circle, as a permutation matrix has: nu^4 - 1
@example([("root", 1), ("root", -1), ("pair", 1)])
@example([("pair", 1), ("pair", 1), ("root", 1), ("root", 1), ("root", -1)])
# a negative real top root, alone and as the larger root of a quadratic
@example([("root", -7), ("root", 5), ("pair", 2)])
@example([("real", -9, 1), ("pair", 16)])
# twelve close real roots: the bound must cover the top root 1011, not only
# the root nearest the estimate
@example([("root", 1000 + i) for i in range(12)])
def test_root_radius_bound_holds_against_exact_factors(factors):
    from signstab.stability import root_radius

    coeffs, rho = poly_with_top_modulus(factors)
    est, bound = root_radius(IntPoly(coeffs))
    assert math.isfinite(est) and math.isfinite(bound)
    with localcontext() as ctx:
        ctx.prec = 50
        assert abs(Decimal(est) - rho) <= Decimal(bound), (coeffs, est, bound)


def _conjugated_block_triangular(rng):
    """M = U T U^-1, its spectral radius and its characteristic polynomial.

    T is block upper-triangular with diagonal blocks [a] and [[a, -b], [b, a]]
    drawn from a small set, so eigenvalues repeat.  A block that repeats the
    one before it is coupled to it by a nonzero entry above the diagonal,
    which makes the matrix defective.  U is a product of integer elementary
    matrices.  Returns (M, radius, ascending coefficients, defective).
    """
    size = rng.randint(1, 7)
    blocks = []
    while sum(len(b) for b in blocks) < size:
        if blocks and rng.random() < 0.4:
            blocks.append(blocks[-1])
        elif rng.random() < 0.5:
            blocks.append((rng.randint(-3, 3),))
        else:
            blocks.append((rng.randint(-2, 2), rng.randint(1, 2)))
    n = sum(len(b) for b in blocks)
    t = [[0] * n for _ in range(n)]
    radius, poly, start, defective = 0.0, [1], 0, False
    for idx, block in enumerate(blocks):
        a = block[0]
        if len(block) == 1:
            t[start][start] = a
            radius, factor = max(radius, abs(a)), [-a, 1]
        else:
            b = block[1]
            t[start][start] = t[start + 1][start + 1] = a
            t[start][start + 1], t[start + 1][start] = -b, b
            radius = max(radius, math.hypot(a, b))
            factor = [a * a + b * b, -2 * a, 1]
        if idx and blocks[idx - 1] == block:
            t[start - 1][start] = rng.choice((-2, -1, 1, 2))
            defective = True
        poly = [sum(poly[i] * factor[k - i] for i in range(len(poly))
                    if 0 <= k - i < len(factor))
                for k in range(len(poly) + len(factor) - 1)]
        start += len(block)
    for i in range(n):
        for j in range(i + 1, n):
            if t[i][j] == 0 and rng.random() < 0.3:
                t[i][j] = rng.randint(-2, 2)
    m = t
    for _ in range(rng.randint(n, 3 * n) if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        # conjugate by I + c*e_ij: add c * row j to row i, then subtract
        # c * column i from column j
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        for row in m:
            row[j] -= c * row[i]
    return tuple(map(tuple, m)), radius, tuple(poly), defective


def test_spectral_radius_against_conjugated_block_triangular():
    rng = random.Random(2024)
    defective = 0
    for _ in range(300):
        m, expected, poly, is_defective = _conjugated_block_triangular(rng)
        defective += is_defective
        assert char_poly(m).coeffs == poly
        rho, _ = spectral_radius(m)
        assert abs(rho - expected) <= 1e-12 * max(1.0, expected), (m, rho)
    assert defective >= 50


# -- stretch factors ---------------------------------------------------------------


def test_stretch_kronecker3():
    lam = quad_sqrt(5)
    candidate = (3 + lam) / 2
    report = stretch_factor(kron_path(3), (1,), candidate=candidate)
    assert abs(report.value - float(candidate)) <= 1e-9
    assert report.exact_verified
    assert [e for e, _, _ in report.table] == [(1,)]


def test_stretch_kronecker2_exactly_one():
    report = stretch_factor(kron_path(2), (1,), candidate=F(1))
    assert report.exact_verified and report.exact_value == 1
    assert abs(report.value - 1.0) <= 1e-9


def test_stretch_takes_one_radius_per_distinct_polynomial(sphere_path):
    from signstab.stability import root_radius

    char_poly.cache_clear()
    root_radius.cache_clear()
    candidate = (3 + quad_sqrt(5)) / 2
    report = stretch_factor(sphere_path, parse_sign_str("+++00-+--+00-+++"),
                            candidate=candidate)
    assert len(report.table) == 16 and report.exact_verified
    # 16 rows, 3 distinct polynomials: the other 13 radii come from the cache
    info = root_radius.cache_info()
    assert (info.misses, info.hits) == (3, 13)
    by_poly = {}  # each row carries its polynomial's one radius
    for eps, rho, bound in report.table:
        p = char_poly(presentation_matrix_for_sign(sphere_path, eps))
        assert by_poly.setdefault(p, (rho, bound)) == (rho, bound)
    assert len(by_poly) == 3


def test_stretch_requires_realizable_completion():
    seed = Seed([[0]], {0})
    path = MutationPath(seed, (Flip(0), Flip(0)))
    assert enumerate_realizable_signs(path) == {(1, -1), (-1, 1)}
    with pytest.raises(NotRealizableError):
        stretch_factor(path, (1, 1))


def test_stretch_weak_stable_with_zeros():
    # completions of (0,) are (+) and (-); both realizable for the A1 loop
    seed = Seed([[0]], {0})
    path = MutationPath(seed, (Flip(0), Flip(0)))
    report = stretch_factor(path, (0, -1))
    assert [e for e, _, _ in report.table] == [(1, -1)]
    assert abs(report.value - 1.0) <= 1e-9


# -- eigenpairs ---------------------------------------------------------------------


def test_verify_eigenpair_examples():
    ident = ((1, 0), (0, 1))
    assert verify_eigenpair(ident, F(1), frac(2, 3))
    lam = QuadExt(F(3, 2), F(1, 2), 5)
    assert verify_eigenpair(((3, 1), (-1, 0)), lam, (lam, F(-1)))
    assert not verify_eigenpair(((3, 1), (-1, 0)), lam, (lam, F(1)))


def test_verify_eigenpair_rejects_the_zero_vector():
    # M 0 = lambda 0 for every lambda, but an eigenvector is nonzero
    assert not verify_eigenpair(((2,),), F(5), (F(0),))
    zero = (F(0), QuadExt(0, 0, 5))
    assert not verify_eigenpair(((1, 2), (3, 4)), F(17), zero)
    assert not verify_eigenpair(((1, 2), (3, 4)), QuadExt(1, 1, 5), zero)


def test_verify_eigenpair_radicand_mismatch():
    from signstab import RadicandMismatchError

    lam = QuadExt(1, 1, 5)
    x = (QuadExt(1, 1, 2), QuadExt(0, 1, 2))
    with pytest.raises(RadicandMismatchError):
        verify_eigenpair(((1, 0), (0, 1)), lam, x)


def test_canonical_cone_membership():
    assert canonical_cone_membership(kronecker(2), frac(1, 2)) == "plus_interior"
    assert canonical_cone_membership(kronecker(2), frac(-1, -1)) == "minus_interior"
    assert canonical_cone_membership(kronecker(2), frac(1, 0)) == "outside"
