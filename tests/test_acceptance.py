"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; plain `pytest` just checks them.
"""

import hashlib
import itertools
import json
import random
import time
from fractions import Fraction
from math import lcm

from oracles import inverse, unique_solution
from samples import A2, reference_walk

from signstab import (
    Flip,
    IntPoly,
    MutationPath,
    Permute,
    QuadExt,
    Seed,
    block_structure_check,
    c_matrix,
    char_poly,
    edge_compatibility,
    enumerate_realizable_signs,
    g_matrix,
    generator_coordinate_trace,
    hereditary_check,
    in_triangle_regime,
    iterate_orbit,
    pants_boundary_sums,
    pants_measures,
    parse_sign_str,
    permutation_factor_check,
    presentation_matrix_for_sign,
    quad_sqrt,
    reduced_subsequence,
    scalar_sign,
    sign_geq,
    sign_of_path,
    sign_str,
    spectral_radius,
    stretch_factor,
    transport,
    verify_eigenpair,
)
from signstab.matrices import transpose

F = Fraction
GOLDEN = QuadExt(F(3, 2), F(1, 2), 5)  # (3 + sqrt 5) / 2


def frac(*xs):
    return tuple(F(x) for x in xs)


def ok(criterion, text):
    print(f"ACCEPTANCE {criterion:>2} PASS  {text}")


A2_PATH = MutationPath(A2, (Flip(0), Flip(1), Flip(0)))


# -- criterion 1: A2 realizable signs ------------------------------------------


def test_criterion_01_a2_realizable_signs():
    found = {sign_str(s) for s in enumerate_realizable_signs(A2_PATH)}
    assert found == {"++-", "+--", "-++", "--+", "---"}
    ok(1, "A2 path has exactly the five realizable strict sign sequences")


# -- criterion 2: A2 sign fan spot checks ---------------------------------------


def test_criterion_02_a2_sign_fan():
    spots = {
        (1, 1): "++-",
        (-1, 2): "-++",
        (-2, 1): "--+",
        (-1, -1): "---",
        (2, -1): "+--",
    }
    for point, expected in spots.items():
        assert sign_str(sign_of_path(A2_PATH, frac(*point))) == expected
    ok(2, "all five sign-fan regions reproduce at the spot points")


# -- criterion 3: tropical duality over random seeds ------------------------------


def _random_skew_seed(rng, max_rank, max_entry):
    n = rng.randint(2, max_rank)
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            b[i][j] = rng.randint(-max_entry, max_entry)
            b[j][i] = -b[i][j]
    return Seed(b, frozenset(range(n)))


def _random_path(rng, seed, max_len, perm_prob=0.15):
    order = sorted(seed.unfrozen)
    steps = []
    for _ in range(rng.randint(0, max_len)):
        if rng.random() < perm_prob:
            img = list(order)
            rng.shuffle(img)
            sigma = list(range(seed.n))
            for src, dst in zip(order, img):
                sigma[src] = dst
            steps.append(Permute(tuple(sigma)))
        else:
            steps.append(Flip(rng.choice(order)))
    return MutationPath(seed, tuple(steps))


def test_criterion_03_tropical_duality():
    rng = random.Random(2024)
    start = time.time()
    for _ in range(1000):
        seed = _random_skew_seed(rng, max_rank=6, max_entry=3)
        path = _random_path(rng, seed, max_len=12)
        c = c_matrix(path)  # raises on any sign-coherence violation
        g = g_matrix(path)
        assert g == transpose(inverse(c))
    elapsed = time.time() - start
    assert elapsed < 30.0
    ok(3, f"1000 random seeds: G = (C^-1)^T and sign coherence "
          f"({elapsed:.1f}s)")


# -- criterion 4: Kronecker cluster Dehn twists -----------------------------------


def _on_ray(w, mu):
    """Is w on the closed ray R_{>=0} * (1, mu), decided exactly."""
    x0, x1 = w
    if scalar_sign(x0) < 0:
        return False
    if scalar_sign(x0) == 0:
        return scalar_sign(x1) == 0
    return x1 - mu * x0 == 0


def test_criterion_04_kronecker_dehn_twists():
    for ell in (2, 3, 4, 5):
        seed = Seed([[0, -ell], [ell, 0]], {0, 1})
        path = MutationPath(seed, (Flip(0), Permute((1, 0))))
        root = quad_sqrt(ell * ell - 4)
        lam = (ell + root) / 2
        mu = (-ell - root) / 2
        rng = random.Random(100 + ell)
        sampled = 0
        while sampled < 20:
            w = frac(rng.randint(-9, 9), rng.randint(-9, 9))
            if w == (0, 0) or (ell >= 3 and (_on_ray(w, mu) or
                                             _on_ray(tuple(-x for x in w), mu))):
                continue
            sampled += 1
            report = iterate_orbit(path, w, 30, window=10)
            assert report.detected_stable == (1,), (ell, w)
        stretch = stretch_factor(path, (1,), candidate=lam)
        assert abs(stretch.value - float(lam)) <= 1e-9
        assert stretch.exact_verified
        if ell == 2:
            assert lam == 1 and stretch.exact_value == 1
    ok(4, "ell = 2..5: stable sign (+) from 20 points each; "
          "stretch factor (ell + sqrt(ell^2-4))/2, exactly 1 at ell = 2")


# -- criteria 5-10 share the worked example ---------------------------------------

ORBIT_PLUS = [
    "++++++++-+++-+++",
    "++++--++-+++-+++",
    "+++---+--+-+-+++",
    "+++---+--+++-+++",
    "++++--+--+++-+++",
    "+++---+--+-+-+++",
    "+++---+--+++-+++",
    "++++--+--+++-+++",
    "+++---+--+-+-+++",
    "+++---+--+++-+++",
    "++++--+--+++-+++",
]
ORBIT_MINUS = ["---------+---+++", "-++---+--+++-+++"] + [
    "+++---+--+++-+++"
] * 9


def test_criterion_05_orbit_table(sphere_path, sphere_points):
    eps_stab = parse_sign_str(sphere_points["eps_stab"])
    for start, table in (("l_plus", ORBIT_PLUS), ("l_minus", ORBIT_MINUS)):
        report = iterate_orbit(sphere_path, sphere_points[start], 11, window=8)
        got = [sign_str(s) for s, _ in report.iterations]
        assert got == table, start
        weak = report.detected_weak_stable
        assert sign_geq(weak, eps_stab)
        for i, e in enumerate(eps_stab):
            if e != 0:
                assert weak[i] == e
    ok(5, "all 22 orbit sign rows reproduce; weak stable sign matches the "
          "stable sign on every strict entry")


def test_criterion_06_eigen_transport(sphere_path, sphere_points):
    l_plus = sphere_points["L_plus"]
    final, _ = transport(sphere_path, l_plus)
    assert final == tuple(GOLDEN * x for x in l_plus)
    assert sign_str(sign_of_path(sphere_path, l_plus)) == sphere_points["eps_stab"]
    ok(6, "transport of the quadratic fixed direction scales by (3+sqrt5)/2 "
          "exactly and realizes the stable sign")


def _completions(eps_stab):
    zeros = [i for i, e in enumerate(eps_stab) if e == 0]
    for combo in itertools.product((1, -1), repeat=len(zeros)):
        eps = list(eps_stab)
        for pos, val in zip(zeros, combo):
            eps[pos] = val
        yield tuple(combo), tuple(eps)


POLY_FACTORS = {
    "generic": [(-1, 1), (-1, 0, 0, 1), (1, -3, 1), (-1, 0, 0, 1), (-1, 0, 0, 1)],
}


def _poly(*coeff_lists):
    out = IntPoly((1,))
    for coeffs in coeff_lists:
        out = out * IntPoly(tuple(coeffs))
    return out


def test_criterion_07_characteristic_polynomials(sphere_path, sphere_points):
    eps_stab = parse_sign_str(sphere_points["eps_stab"])
    nu_minus_1 = (-1, 1)
    nu3_minus_1 = (-1, 0, 0, 1)
    golden_factor = (1, -3, 1)
    p_plus = _poly(nu_minus_1, nu3_minus_1, golden_factor, (1, 0, 0, -1, 0, 0, 1))
    p_alt = _poly(nu_minus_1, nu3_minus_1, golden_factor, (1, 0, 0, -3, 0, 0, 1))
    p_rest = _poly(nu_minus_1, nu3_minus_1, nu3_minus_1, nu3_minus_1, golden_factor)
    for combo, eps in _completions(eps_stab):
        e = presentation_matrix_for_sign(sphere_path, eps)
        p = char_poly(e)
        if combo in ((1, 1, 1, 1), (-1, -1, -1, -1)):
            expected = p_plus
        elif combo in ((1, -1, 1, -1), (-1, 1, -1, 1)):
            expected = p_alt
        else:
            expected = p_rest
        assert p.coeffs == expected.coeffs, combo
        rho, _ = spectral_radius(e)
        assert abs(rho - float(GOLDEN)) <= 1e-9
    for poly in (p_plus, p_alt, p_rest):
        assert permutation_factor_check(poly, [3])
        # companion matrix of the expanded polynomial
        n = poly.degree
        companion = [[0] * n for _ in range(n)]
        for i in range(1, n):
            companion[i][i - 1] = 1
        for i in range(n):
            companion[i][n - 1] = -poly.coeffs[i]
        rho, _ = spectral_radius(tuple(map(tuple, companion)))
        assert abs(rho - float(GOLDEN)) <= 1e-9
    ok(7, "all 16 presentation matrices have the three printed "
          "characteristic polynomials; spectral radii (3+sqrt5)/2; "
          "cycle factor nu^3-1 divides each")


def test_criterion_08_completions_realizable(sphere_enumeration, sphere_points):
    eps_stab = parse_sign_str(sphere_points["eps_stab"])
    # the full command line, report rendering included, inside the bound
    code, out, elapsed = sphere_enumeration
    assert code == 0
    assert elapsed < 60.0
    signs = {parse_sign_str(s) for s in json.loads(out)["result"]["signs"]}
    for _, eps in _completions(eps_stab):
        assert eps in signs
    ok(8, f"all 16 strict completions realizable; branch-and-prune "
          f"enumerated {len(signs)} sequences in {elapsed:.1f}s")


def test_criterion_09_eigenpair_property(sphere_path, sphere_points):
    eps_stab = parse_sign_str(sphere_points["eps_stab"])
    l_plus = sphere_points["L_plus"]
    for _, eps in _completions(eps_stab):
        e = presentation_matrix_for_sign(sphere_path, eps)
        assert verify_eigenpair(e, GOLDEN, l_plus)
    ok(9, "(3+sqrt5)/2 is an exact eigenvalue of all 16 presentation "
          "matrices with the quadratic direction as eigenvector")


def test_criterion_10_hereditariness(sphere_path, sphere_points, sphere_cone):
    eps_stab = parse_sign_str(sphere_points["eps_stab"])
    compat = edge_compatibility(sphere_path, sphere_cone)
    assert [i for i, c in enumerate(compat) if c] == [0, 5, 7, 14]
    skeleton = reduced_subsequence(sphere_path, sphere_cone)
    assert [k for _, k in skeleton] == [6, 7, 5, 10]
    report = hereditary_check(sphere_path, sphere_cone, eps_stab)
    assert report.passes and report.violations == []
    # spot values of transported generator coordinates at the four
    # non-compatible stable-zero positions (position, generator, value);
    # these certify the generator transcription
    trace = generator_coordinate_trace(sphere_path, sphere_cone)
    spots = [(3, 2, 1), (4, 1, 1), (10, 0, -1), (11, 0, -1)]
    for position, gen_idx, value in spots:
        assert trace[position][gen_idx] == value, (position, gen_idx)
    ok(10, "compatible flips exactly at positions 1,6,8,15 (arcs 7,8,6,11 "
           "as printed); hereditary check passes; all four intermediate "
           "coordinate spot values reproduce")


# -- criterion 11: annulus cutting example ----------------------------------------


def test_criterion_11_annulus_cutting(annulus_seed, annulus_cone):
    uf = Seed(annulus_seed.unfrozen_block(), frozenset(range(6)))
    compat_1 = edge_compatibility(MutationPath(uf, (Flip(0),)), annulus_cone)
    compat_2 = edge_compatibility(MutationPath(uf, (Flip(1),)), annulus_cone)
    assert compat_1 == [True]
    assert compat_2 == [False]
    ok(11, "annulus core curve: flip at arc 1 compatible, at arc 2 not")


# -- criterion 12: cluster-reduction block form ------------------------------------


def test_criterion_12_block_structure(block_cases):
    digest = hashlib.sha256()
    for path, frozen_out in block_cases:
        report = block_structure_check(path, frozen_out, tolerance=1e-9)
        assert report.zero_block_exact
        assert report.max_radius_diff == 0.0
        digest.update(repr((report.sign_count, report.max_radius_diff,
                            report.details)).encode())
    # pins every radius bit for bit: a faster radius path must not move one.
    # Recorded with the pure-Python root finder, whose radii of these loops'
    # polynomials are all the correctly rounded top modulus
    assert digest.hexdigest() == (
        "dbc946c4fd118750bc2cc0813f88d81b20d33ef906a82fa964971853f5bfa281")
    ok(12, "100 random frozen-block loops: (J,K) block exactly zero and "
           "rho(E) = rho(E|_J) exactly for every realizable sign")


def test_criterion_12_reports_are_the_same_from_a_warm_cache(block_cases):
    from signstab.stability import root_radius

    cold = []
    for path, frozen_out in block_cases:
        char_poly.cache_clear()
        root_radius.cache_clear()
        cold.append(block_structure_check(path, frozen_out, tolerance=1e-9))
    for path, frozen_out in block_cases:  # fills the caches
        block_structure_check(path, frozen_out, tolerance=1e-9)
    misses = char_poly.cache_info().misses, root_radius.cache_info().misses
    warm = [block_structure_check(path, frozen_out, tolerance=1e-9)
            for path, frozen_out in block_cases]
    # the second pass computes nothing new: every radius comes from a cache
    assert (char_poly.cache_info().misses, root_radius.cache_info().misses) == misses
    assert warm == cold


# -- criterion 13: small-instance enumeration oracle -------------------------------


def _oracle_enumerate(path, grid_range=3):
    """Brute-force oracle: dense integer grid, plus, for every still-missing
    strict sequence, exact points of the minimal faces of {rows >= 1} (all
    square subsystems completed by coordinate planes).  Every verdict comes
    from definitional sign evaluation, never from the production
    feasibility machinery."""
    n = path.initial.n_uf
    walk = reference_walk(path)
    found = set()
    for pt in itertools.product(range(-grid_range, grid_range + 1), repeat=n):
        if any(pt):
            s = walk.points(pt)[0]
            if 0 not in s:
                found.add(s)
    for eps in itertools.product((1, -1), repeat=path.h):
        if eps in found:
            continue
        rows = walk.branch(eps)[0]
        pool = [(row, 1) for row in rows]
        for j in range(n):
            axis = tuple(int(i == j) for i in range(n))
            for c in (-1, 0, 1):
                pool.append((axis, c))
        for combo in itertools.combinations(pool, n):
            x = unique_solution([r for r, _ in combo], [c for _, c in combo])
            if x is None or not any(x):
                continue
            den = lcm(*(v.denominator for v in x))
            pt = [int(v * den) for v in x]
            if walk.points(pt)[0] == eps:
                found.add(eps)
                break
    return found


def test_criterion_13_enumeration_oracle():
    rng = random.Random(77)
    start = time.time()
    for case in range(200):
        seed = _random_skew_seed(rng, max_rank=3, max_entry=3)
        h = rng.randint(1, 4)
        path = MutationPath(
            seed, tuple(Flip(rng.choice(sorted(seed.unfrozen)))
                        for _ in range(h))
        )
        fast = enumerate_realizable_signs(path)
        slow = _oracle_enumerate(path)
        assert fast == slow, (seed.b, path.flip_indices())
    ok(13, f"200 random small instances: enumeration equals the "
           f"grid-plus-minimal-face oracle ({time.time()-start:.1f}s)")


# -- criterion 14: pants formulas ---------------------------------------------------


def test_criterion_14_pants_formulas():
    rng = random.Random(55)
    for _ in range(1000):
        m1, m2, m3 = (
            F(rng.randint(-40, 40), rng.randint(1, 8)) for _ in range(3)
        )
        e11, e12, e13, e22, e23, e33 = pants_measures(m1, m2, m3)
        assert e11 * e23 == 0 and e22 * e13 == 0 and e33 * e12 == 0
        assert all(x >= 0 for x in (e11, e12, e13, e22, e23, e33))
        if in_triangle_regime(m1, m2, m3):
            sums = pants_boundary_sums((e11, e12, e13, e22, e23, e33))
            assert sums == (m1, m2, m3)
    assert pants_measures(2, 1, 1) == (0, 1, 1, 0, 0, 0)
    assert pants_measures(1, 1, 0) == (0, 1, 0, 0, 0, 0)
    ok(14, "1000 random triples: complementarity and triangle-regime sums "
           "exact; the two specific triples reproduce")
