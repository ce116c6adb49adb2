import contextlib
import io
import json
import random
import time
from pathlib import Path

import pytest

from signstab import Flip, MutationPath, Permute, Seed
from signstab import io as sio
from signstab.cli import main

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def sphere_path():
    return sio.load_path(DATA / "sphere3b_path.json")


@pytest.fixture(scope="session")
def sphere_points():
    with open(DATA / "sphere3b_points.json") as fh:
        raw = json.load(fh)
    return {
        "l_plus": sio.point_from_obj(raw["l_plus"]),
        "l_minus": sio.point_from_obj(raw["l_minus"]),
        "L_plus": sio.point_from_obj(raw["L_plus"]),
        "L_minus": sio.point_from_obj(raw["L_minus"]),
        "eps_stab": raw["eps_stab"],
    }


@pytest.fixture(scope="session")
def sphere_cone():
    return sio.load_cone(DATA / "sphere3b_cone.json")


@pytest.fixture(scope="session")
def annulus_seed():
    return sio.load_seed(DATA / "annulus_seed.json")


@pytest.fixture(scope="session")
def annulus_cone():
    return sio.load_cone(DATA / "annulus_cone.json")


@pytest.fixture(scope="session")
def sphere_enumeration():
    """One in-process `signstab --json-only signs-enumerate` run on the
    sphere3b loop: (exit code, stdout, seconds taken)."""
    out = io.StringIO()
    start = time.time()
    with contextlib.redirect_stdout(out):
        code = main(["--json-only", "signs-enumerate",
                     "--path", str(DATA / "sphere3b_path.json")])
    return code, out.getvalue(), time.time() - start


def _random_block_case(rng):
    """Seed with unfrozen J | K and a J-only loop (palindrome or shortest)."""
    if rng.random() < 0.3:
        ell = rng.randint(2, 4)
        ck = rng.randint(1, 4)
        b = [
            [0, -ell, 0, 0],
            [ell, 0, 0, 0],
            [0, 0, 0, -ck],
            [0, 0, ck, 0],
        ]
        seed = Seed(b, frozenset(range(4)))
        path = MutationPath(seed, (Flip(0), Permute((1, 0, 2, 3))))
        return path, (2, 3)
    n = rng.randint(3, 5)
    j_count = rng.randint(2, n - 1)
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            b[i][j] = rng.randint(-2, 2)
            b[j][i] = -b[i][j]
    seed = Seed(b, frozenset(range(n)))
    flips = [rng.randrange(j_count) for _ in range(rng.randint(1, 3))]
    steps = tuple(Flip(k) for k in flips + flips[::-1])
    return MutationPath(seed, steps), tuple(range(j_count, n))


@pytest.fixture(scope="session")
def block_cases():
    """Criterion 12's 100 random frozen-block loops, drawn from Random(31),
    as (path, frozen_out) pairs: a test that adds cases copies the list."""
    rng = random.Random(31)
    return [_random_block_case(rng) for _ in range(100)]
