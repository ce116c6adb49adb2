"""JSON file formats for seeds, paths, points, matrices, cones,
triangulations and train tracks, plus the deterministic report writer.

All scalar values use the exact text encoding of :mod:`signstab.scalars`;
float literals are rejected.

At module level this imports only ``errors``, ``scalars`` and ``seeds``
(which imports ``matrices``), so loading a path or a point loads no more
of the engine.  ``cone_from_obj`` and ``track_from_obj`` import
``reduction`` and ``traintrack`` when they build a cone or a track.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any

from .errors import (FormatError, FrozenIndexError, MagnitudeError,
                     SplitViolationError)
from .scalars import Scalar, format_ints, parse_scalar, scalar_ints
from .seeds import Flip, MutationPath, Permute, Seed, Triangulation

SCHEMA_VERSION = 1


def decode_json(text: str, where: str) -> Any:
    """The value of JSON text, the one JSON decode of every input: text
    that is not JSON, an over-long int and nesting past the recursion
    limit are each a FormatError naming where the text came from."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{where} is not valid JSON: {exc}") from exc


def load_json(path: str | Path) -> Any:
    """The JSON value of a UTF-8 file (``decode_json``)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bytes that are not UTF-8
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc
    return decode_json(text, str(path))


def _expect(obj, key, kind, where):
    if not isinstance(obj, dict) or key not in obj:
        raise FormatError(f"{where}: missing key {key!r}")
    val = obj[key]
    if kind is not None and not isinstance(val, kind):
        raise FormatError(f"{where}: key {key!r} has wrong type")
    return val


_JSON_TYPES = {bool: "boolean", list: "list", dict: "object",
               type(None): "null"}


def parse_coord(value) -> Scalar:
    """The exact scalar of a JSON int or string; any other JSON value is a
    FormatError that names its JSON type and does not echo it."""
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        return parse_scalar(value)
    if type(value) is float:
        raise FormatError(f"bad scalar {value!r} (floats are not exact)")
    kind = _JSON_TYPES.get(type(value), type(value).__name__)
    raise FormatError(f"bad scalar: a JSON {kind}, not an integer or a string")


def scalar_json(a: int, b: int, den: int, d: int):
    """The JSON form of (a + b*sqrt(d)) / den, for ints a, b and den != 0
    of any sign, decided by its value alone: a JSON integer when it is an
    integer, its exact text (``scalars.format_ints``) otherwise."""
    if not b:
        q, r = divmod(a, den)
        if not r:
            return q
    return format_ints(a, b, den, d)


def coord_json(value: Scalar):
    """A scalar's JSON form (``scalar_json``), so a QuadExt with b = 0
    renders as its rational part."""
    return scalar_json(*scalar_ints(value))


def row_json(row, d: int) -> list:
    """The JSON form of an integer row (A, B, D): coordinate i is
    (A_i + B_i*sqrt(d)) / D, with B None for a rational row."""
    a, b, den = row
    if b is None:
        return [scalar_json(x, 0, den, 0) for x in a]
    return [scalar_json(x, y, den, d) for x, y in zip(a, b)]


# -- seeds ---------------------------------------------------------------------


def seed_from_obj(obj, where="seed") -> Seed:
    n = _expect(obj, "n", int, where)
    unfrozen = _expect(obj, "unfrozen", list, where)
    b = _expect(obj, "B", list, where)
    if isinstance(n, bool):  # JSON true loads as a bool, an int equal to 1
        raise FormatError(f"{where}: sizes and indices must be integers, "
                          f"n is {n!r}")
    if len(b) != n or any(not isinstance(row, list) or len(row) != n
                          for row in b):
        raise FormatError(f"{where}: B is not {n}x{n}")
    try:
        return Seed(b, unfrozen)
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def seed_to_obj(seed: Seed) -> dict:
    return {
        "n": seed.n,
        "unfrozen": sorted(seed.unfrozen),
        "B": [list(row) for row in seed.b],
    }


def load_seed(path) -> Seed:
    return seed_from_obj(load_json(path), where=str(path))


# -- paths ---------------------------------------------------------------------


def path_from_obj(obj, where="path", base_dir: Path | None = None) -> MutationPath:
    """The path of a JSON object, compiled at load: io checks the JSON
    shape, the constructors and the compile check the values, and their
    errors are re-raised naming ``where``."""
    seed_obj = _expect(obj, "seed", None, where)
    if isinstance(seed_obj, dict) and "file" in seed_obj:
        if not isinstance(seed_obj["file"], str):
            raise FormatError(f"{where}: seed file must be a string")
        ref = Path(seed_obj["file"])
        if base_dir is not None and not ref.is_absolute():
            ref = base_dir / ref
        seed = load_seed(ref)
    else:
        seed = seed_from_obj(seed_obj, where=f"{where}.seed")
    steps = []
    for i, raw in enumerate(_expect(obj, "steps", list, where)):
        if not isinstance(raw, dict) or len(raw) != 1:
            raise FormatError(f"{where}: step {i} must be a one-key object")
        (key, value), = raw.items()
        if key not in ("flip", "perm"):
            raise FormatError(f"{where}: step {i} must be 'flip' or 'perm'")
        if key == "perm" and not isinstance(value, list):
            raise FormatError(f"{where}: step {i} perm must be a list")
        try:
            steps.append(Flip(value) if key == "flip" else Permute(value))
        except ValueError as exc:
            raise FormatError(f"{where}: step {i} {exc}") from exc
    path = MutationPath(seed, tuple(steps))
    try:
        path.compiled
    except (FrozenIndexError, SplitViolationError) as exc:
        raise type(exc)(f"{where}: {exc}") from exc
    return path


def path_to_obj(path: MutationPath) -> dict:
    steps = []
    for step in path.steps:
        if isinstance(step, Flip):
            steps.append({"flip": step.k})
        else:
            steps.append({"perm": list(step.sigma)})
    return {"seed": seed_to_obj(path.initial), "steps": steps}


def load_path(path) -> MutationPath:
    p = Path(path)
    return path_from_obj(load_json(p), where=str(p), base_dir=p.parent)


# -- points and cones ------------------------------------------------------------


def point_from_obj(obj, where="point") -> tuple[Scalar, ...]:
    if isinstance(obj, dict):
        obj = _expect(obj, "coords", list, where)
    if not isinstance(obj, list):
        raise FormatError(f"{where}: expected a coordinate list")
    return tuple(parse_coord(x) for x in obj)


def point_to_obj(w) -> dict:
    return {"coords": [coord_json(x) for x in w]}


def matrix_from_obj(obj, where="matrix") -> tuple[tuple[Scalar, ...], ...]:
    """A square matrix: a list of rows, or an object with a "matrix" or "B"
    key holding one."""
    if isinstance(obj, dict):
        obj = obj.get("matrix", obj.get("B"))
    if not isinstance(obj, list) or not all(
        isinstance(row, list) and len(row) == len(obj) for row in obj
    ):
        raise FormatError(f"{where}: expected a square matrix (a list of rows)")
    return tuple(tuple(parse_coord(x) for x in row) for row in obj)


def cone_from_obj(obj, where="cone") -> Cone:
    from .reduction import Cone

    gens = _expect(obj, "generators", list, where)
    if not gens or not all(isinstance(g, list) for g in gens):
        raise FormatError(f"{where}: generators must be a non-empty list "
                          "of coordinate lists")
    return Cone(tuple(tuple(parse_coord(x) for x in g) for g in gens))


def cone_to_obj(cone: Cone) -> dict:
    return {"generators": [[coord_json(x) for x in g] for g in cone.generators]}


def load_cone(path) -> Cone:
    return cone_from_obj(load_json(path), where=str(path))


# -- triangulations and tracks ----------------------------------------------------


def triangulation_from_obj(obj, where="triangulation") -> Triangulation:
    arcs = _expect(obj, "arcs", list, where)
    frozen = _expect(obj, "frozen", list, where)
    tris = _expect(obj, "triangles", list, where)
    try:
        return Triangulation(
            tuple(str(a) for a in arcs),
            frozenset(str(a) for a in frozen),
            tuple(tuple(str(x) for x in t) for t in tris),
        )
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def load_triangulation(path) -> Triangulation:
    return triangulation_from_obj(load_json(path), where=str(path))


def track_from_obj(obj, where="track") -> TrainTrack:
    from .traintrack import TrainTrack

    edges = _expect(obj, "edges", list, where)
    switches = _expect(obj, "switches", list, where)
    boundary = obj.get("boundary", [])
    if not all(isinstance(s, list) and len(s) == 2 and isinstance(s[1], list)
               and len(s[1]) == 2 for s in switches):
        raise FormatError(f"{where}: key 'switches' must hold "
                          "[edge, [edge, edge]] entries")
    if not isinstance(boundary, list):
        raise FormatError(f"{where}: key 'boundary' must be a list of edges")
    try:
        return TrainTrack(
            tuple(str(e) for e in edges),
            tuple((str(e0), (str(e1), str(e2))) for e0, (e1, e2) in switches),
            frozenset(str(e) for e in boundary),
        )
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def load_track(path) -> TrainTrack:
    return track_from_obj(load_json(path), where=str(path))


def measure_from_obj(obj, where="measure") -> dict[str, Fraction]:
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected an edge->value object")
    out = {}
    for key, val in obj.items():
        coord = parse_coord(val)
        if isinstance(coord, Fraction):
            out[str(key)] = coord
        else:
            raise FormatError(f"{where}: measure values must be rational")
    return out


# -- reports ---------------------------------------------------------------------

_encode = json.encoder.encode_basestring_ascii


def _float_json(x: float) -> str:
    if x - x == 0:  # finite
        return float.__repr__(x)
    return "NaN" if x != x else "-Infinity" if x < 0 else "Infinity"


# a leaf's JSON text by exact type; _json_text takes subclasses apart
_LEAVES = {str: _encode, int: int.__repr__, float: _float_json,
           bool: json.dumps, type(None): json.dumps}


def _json_text(obj, indent: str) -> str:
    """obj's text in ``render_json``, nested at ``indent`` (a newline and two
    spaces a level).  Each container is one join, its brackets glued to its
    first and last items.  Not a closure, so it builds no reference cycle."""
    leaf = _LEAVES.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        sep, chunks = "," + inner, []
        for key in sorted(obj):
            chunks += sep, _encode(key), ": ", _json_text(obj[key], inner)
        chunks[0] = "{" + inner
        chunks.append(indent + "}")
        return "".join(chunks)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [_encode(x) if type(x) is str else int.__repr__(x)
                 if type(x) is int else _json_text(x, inner) for x in obj]
        parts[0] = "[" + inner + parts[0]
        parts[-1] += indent + "]"
        return ("," + inner).join(parts)
    if isinstance(obj, (str, int, float)):  # a subclass, as json writes it
        return json.dumps(obj)
    raise TypeError(f"Object of type {type(obj).__name__} "
                    "is not JSON serializable")


def render_json(doc) -> str:
    """The one report writer: byte for byte the text ``json.dumps`` writes
    with sorted keys and an indent of 2, plus a newline, for dicts with
    string keys, lists, tuples, strings, ints, floats, bools and None; any
    other value is a TypeError.  An integer past Python's int-to-text limit
    (4,300 digits) is a MagnitudeError; the limit itself is left as it is."""
    try:
        return _json_text(doc, "\n") + "\n"
    except ValueError:  # the only ValueError a report can raise
        raise MagnitudeError(
            "an integer in the report is past Python's int-to-text digit "
            "limit (4,300 digits by default)") from None


def render_report(command: str, inputs: dict, result: dict) -> str:
    """Deterministic JSON report (``render_json``): stable key order,
    canonical scalars."""
    return render_json({
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "result": result,
    })
