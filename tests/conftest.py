import contextlib
import io
import json
import time
from pathlib import Path

import pytest

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
