import gc
import json
import math
import random
import re
from fractions import Fraction

import pytest

from oracles import scalar_json as oracle_json
from signstab import (FormatError, FrozenIndexError, MagnitudeError, QuadExt,
                      SplitViolationError, format_scalar)
from signstab import io as sio


def test_seed_roundtrip(tmp_path):
    obj = {"n": 2, "unfrozen": [0, 1], "B": [[0, 2], [-2, 0]]}
    f = tmp_path / "seed.json"
    f.write_text(json.dumps(obj))
    seed = sio.load_seed(f)
    assert sio.seed_to_obj(seed) == obj


def test_seed_validation(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"n": 2, "unfrozen": [0], "B": [[0, 1], [1, 0]]}))
    with pytest.raises(FormatError):
        sio.load_seed(f)
    f.write_text(json.dumps({"n": 2, "unfrozen": [0], "B": [[0, 1]]}))
    with pytest.raises(FormatError):
        sio.load_seed(f)
    f.write_text("not json")
    with pytest.raises(FormatError):
        sio.load_seed(f)
    for bad in ({"n": 2, "unfrozen": [True, 0], "B": [[0, 1], [-1, 0]]},
                {"n": 2, "unfrozen": ["a"], "B": [[0, 1], [-1, 0]]},
                {"n": True, "unfrozen": [0], "B": [[0]]},
                {"n": 2, "unfrozen": [[0]], "B": [[0, 1], [-1, 0]]},
                {"n": 2, "unfrozen": [0], "B": [[0, True], [-1, 0]]}):
        with pytest.raises(FormatError, match="must be integers"):
            sio.seed_from_obj(bad)


def test_point_parsing():
    w = sio.point_from_obj(["1", "-1/2", "1/2+1/2*sqrt(5)", 3])
    assert w[0] == 1 and w[1] == Fraction(-1, 2)
    assert w[2] == QuadExt(Fraction(1, 2), Fraction(1, 2), 5)
    assert w[3] == 3
    with pytest.raises(FormatError):
        sio.point_from_obj([1.5])
    with pytest.raises(FormatError):
        sio.point_from_obj([True])


@pytest.mark.parametrize("value,kind", [
    ([1], "list"), ({"a": 1}, "object"), (None, "null"), (True, "boolean"),
])
def test_a_bad_scalar_is_named_by_its_json_type(value, kind):
    """Only a float is blamed on floats, and the value is not echoed."""
    message = f"^bad scalar: a JSON {kind}, not an integer or a string$"
    with pytest.raises(FormatError, match=message):
        sio.parse_coord(value)
    with pytest.raises(FormatError, match=message):
        sio.matrix_from_obj([[value, 1], [1, 0]])
    with pytest.raises(FormatError, match=r"^bad scalar 1\.5 \(floats are not exact\)$"):
        sio.parse_coord(1.5)


def test_point_roundtrip():
    w = sio.point_from_obj({"coords": ["-1/3", "2", "sqrt(5)"]})
    again = sio.point_from_obj(sio.point_to_obj(w))
    assert again == w


def test_coord_json_renders_by_value():
    assert sio.coord_json(QuadExt(3, 0, 5)) == sio.coord_json(Fraction(3)) == 3
    assert sio.coord_json(QuadExt(Fraction(1, 2), 0, 5)) == "1/2"
    assert sio.coord_json(Fraction(-1, 2)) == "-1/2"
    assert sio.coord_json(QuadExt(1, -1, 5)) == "1-sqrt(5)"


def _rational(rng):
    """A seeded rational, 0, +-1 and integers among them."""
    kind = rng.randrange(6)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.choice((1, -1)))
    if kind == 2:
        return Fraction(rng.randint(-10**30, 10**30))
    return Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**6))


def test_scalars_and_integer_rows_render_by_one_text_rule():
    """coord_json of a Fraction or QuadExt, and scalar_json/row_json of the
    same value as ints over a common denominator of either sign, against
    an oracle that shares no code with the engine."""
    rng = random.Random(20)
    cases = [(Fraction(a), Fraction(b)) for a in (0, 3, -2, Fraction(1, 2))
             for b in (0, 1, -1, Fraction(2, 3), Fraction(-5, 4))]
    cases += [(_rational(rng), _rational(rng)) for _ in range(400)]
    for a, b in cases:
        d = rng.choice((2, 3, 5, 6, 7, 10, 999983))
        want = oracle_json(a, b, d)
        if b == 0:
            assert sio.coord_json(a) == want, a
        assert sio.coord_json(QuadExt(a, b, d)) == want, (a, b, d)
        assert format_scalar(QuadExt(a, b, d)) == str(want)
        # the same value as (A + B*sqrt(d)) / den, den a common denominator
        # of any sign, not necessarily the least
        den = (rng.choice((1, -1)) * rng.randint(1, 30)
               * math.lcm(a.denominator, b.denominator))
        num_a, num_b = int(a * den), int(b * den)
        assert sio.scalar_json(num_a, num_b, den, d) == want, (a, b, den)
        if b == 0:
            assert sio.scalar_json(num_a, 0, den, 0) == want
            assert sio.row_json(((num_a,), None, den), 0) == [want]
        assert sio.row_json(((num_a,), (num_b,), den), d) == [want]


def test_path_seed_by_reference(tmp_path):
    seed_file = tmp_path / "seed.json"
    seed_file.write_text(
        json.dumps({"n": 2, "unfrozen": [0, 1], "B": [[0, 1], [-1, 0]]})
    )
    path_file = tmp_path / "path.json"
    path_file.write_text(
        json.dumps({"seed": {"file": "seed.json"}, "steps": [{"flip": 0}]})
    )
    path = sio.load_path(path_file)
    assert path.initial.n == 2 and path.h == 1


def test_path_step_validation(tmp_path):
    f = tmp_path / "p.json"
    f.write_text(json.dumps({
        "seed": {"n": 1, "unfrozen": [0], "B": [[0]]},
        "steps": [{"nope": 1}],
    }))
    with pytest.raises(FormatError):
        sio.load_path(f)


A2_SEED = {"n": 2, "unfrozen": [0, 1], "B": [[0, 1], [-1, 0]]}


def test_bool_flip_index_rejected():
    # JSON true loads as a bool, which is an int equal to 1
    with pytest.raises(FormatError, match="step 1 flip index"):
        sio.path_from_obj({"seed": A2_SEED, "steps": [{"flip": 0}, {"flip": True}]})


def test_bool_perm_entries_rejected():
    # [true, 0] sorts to [0, 1] and would pass as the swap
    with pytest.raises(FormatError, match="step 0 perm"):
        sio.path_from_obj({"seed": A2_SEED, "steps": [{"perm": [True, 0]}]})
    with pytest.raises(FormatError, match="step 0 perm"):
        sio.path_from_obj({"seed": A2_SEED, "steps": [{"perm": [1.0, 0]}]})


def test_step_values_checked_by_their_constructors():
    # io checks only the JSON shape; Flip and Permute check their values
    for bad in (1.0, "0", [0], None):
        with pytest.raises(FormatError, match="^path: step 0 flip index"):
            sio.path_from_obj({"seed": A2_SEED, "steps": [{"flip": bad}]})
    for bad in ("10", 1, None, {"0": 1}):
        with pytest.raises(FormatError, match="^path: step 0 perm must be a list"):
            sio.path_from_obj({"seed": A2_SEED, "steps": [{"perm": bad}]})
    with pytest.raises(FormatError, match="^path: step 0 perm entry '0'"):
        sio.path_from_obj({"seed": A2_SEED, "steps": [{"perm": ["0", 1]}]})
    with pytest.raises(FormatError, match="^path: step 1 not a permutation"):
        sio.path_from_obj({"seed": A2_SEED, "steps": [{"flip": 0}, {"perm": [0, 0]}]})


def test_load_path_compiles_once(tmp_path):
    """The compile checks the steps at load and is kept for the commands."""
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"seed": A2_SEED, "steps": [{"flip": 0}, {"flip": 5}]}))
    with pytest.raises(FrozenIndexError,
                       match=f"^{re.escape(str(f))}: step 1: index 5 is frozen"):
        sio.load_path(f)
    f.write_text(json.dumps({"seed": A2_SEED, "steps": [{"flip": 0}, {"flip": 1}]}))
    path = sio.load_path(f)
    assert "compiled" in vars(path) and path.compiled.end.b == ((0, 1), (-1, 0))


def test_perm_checked_against_seed_on_load():
    with pytest.raises(SplitViolationError, match="step 1: permutation length"):
        sio.path_from_obj({"seed": A2_SEED, "steps": [{"flip": 0}, {"perm": [0]}]})
    frozen = {"n": 3, "unfrozen": [0, 1], "B": [[0, 1, 0], [-1, 0, 1], [0, -1, 0]]}
    with pytest.raises(SplitViolationError, match="step 0: permutation maps"):
        sio.path_from_obj({"seed": frozen, "steps": [{"perm": [2, 1, 0]}]})
    path = sio.path_from_obj({"seed": frozen, "steps": [{"perm": [1, 0, 2]}]})
    assert path.steps[0].sigma == (1, 0, 2)


def test_report_determinism():
    a = sio.render_report("x", {"b": 1, "a": 2}, {"z": [1], "y": "s"})
    b = sio.render_report("x", {"a": 2, "b": 1}, {"y": "s", "z": [1]})
    assert a == b
    doc = json.loads(a)
    assert doc["schema_version"] == 1


def oracle_report(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class Big(int):
    pass


class Text(str):
    pass


class Real(float):
    pass


WRITER_STRINGS = ["", "plain", 'a "quoted" word', "back\\slash", "tab\tand\nline",
                  "\x00\x1f\x7f", "caf\u00e9 \u2713 \U0001d11e", "\u2028\ud800",
                  "-1/2+1/2*sqrt(5)", Text("sub"), "+-0+"]
WRITER_FLOATS = [0.0, -0.0, 1e300, -1e-300, 0.1, 2.5, float("nan"),
                 float("inf"), float("-inf"), Real(1.5)]
WRITER_LEAVES = [True, False, None, 0, -1, 10 ** 40, Big(7)]


def random_leaf(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice(WRITER_STRINGS)
    if kind == 1:
        return rng.choice(WRITER_FLOATS)
    return rng.choice(WRITER_LEAVES + [rng.randint(-10 ** 20, 10 ** 20)])


def random_doc(rng, depth):
    """A random document: empty and nested dicts, lists and tuples, and
    lists of mixed leaves."""
    if depth == 0 or rng.random() < 0.25:
        return random_leaf(rng)
    kind, n = rng.randrange(4), rng.randrange(5)
    if kind == 0:
        return {str(rng.choice(WRITER_STRINGS)): random_doc(rng, depth - 1)
                for _ in range(n)}
    if kind == 3:
        return [random_leaf(rng) for _ in range(n)]
    items = [random_doc(rng, depth - 1) for _ in range(n)]
    return items if kind == 1 else tuple(items)


def test_writer_matches_json_dumps_on_random_documents():
    rng = random.Random(2020)
    for _ in range(400):
        doc = random_doc(rng, 5)
        assert sio.render_json(doc) == oracle_report(doc)


def test_writer_shared_lists():
    """One list object four times at one indent (three laps and a dict
    value) and once at each of two other indents."""
    row = [1, "a", None, -0.0]
    doc = {"laps": [row, row, row], "nested": {"row": row}, "row": row,
           "deep": [[row]]}
    assert sio.render_json(doc) == oracle_report(doc)
    assert sio.render_json([row, (row, row), row]) == oracle_report(
        [row, (row, row), row])


@pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes",
                                   Fraction(1, 2), 1j],
                         ids=["object", "set", "bytes", "Fraction", "complex"])
def test_writer_rejects_what_json_dumps_rejects(value):
    doc = {"a": [1, {"b": value}]}
    with pytest.raises(TypeError):
        oracle_report(doc)
    with pytest.raises(TypeError, match="not JSON serializable"):
        sio.render_json(doc)


def test_writer_int_past_the_digit_limit():
    with pytest.raises(MagnitudeError):
        sio.render_json({"a": [10 ** 4300]})
    assert sio.render_json({"a": [10 ** 4299]}).count("0") == 4299


def test_writer_leaves_no_garbage_cycle():
    """An orbit-sized report is freed by reference counting alone."""
    rows = [[f"{i}/7", i, "-1/2+1/2*sqrt(5)"] * 4 for i in range(3)]
    laps = [{"n": n + 1, "sign": "+-0+" * 4, "point": rows[n % 3]}
            for n in range(200)]
    gc.collect()
    gc.disable()
    try:
        text = sio.render_report("orbit", {"iters": 200}, {"iterations": laps})
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert text == oracle_report(json.loads(text))


EDGES = ["a", "b", "c"]


@pytest.mark.parametrize("track, key", [
    ({"edges": EDGES, "switches": [["a", "bc"]]}, "switches"),
    ({"edges": EDGES, "switches": [["a", ["b", "c", "zzz"]]]}, "switches"),
    ({"edges": EDGES, "switches": [], "boundary": "ab"}, "boundary"),
    ({"edges": EDGES, "switches": [], "boundary": 5}, "boundary"),
])
def test_malformed_track_rejected(track, key):
    with pytest.raises(FormatError, match=f"key '{key}'"):
        sio.track_from_obj(track)


def test_measure_rejects_irrational():
    with pytest.raises(FormatError):
        sio.measure_from_obj({"e": "sqrt(5)"})
    out = sio.measure_from_obj({"e": "3/2"})
    assert out["e"] == Fraction(3, 2)
