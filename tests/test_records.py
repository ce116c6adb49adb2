"""Record semantics of the engine's value and report classes: field-wise
equality and hashing, frozen fields, constructor checks and coercions,
keyword construction with defaults, and assignable reports."""

from fractions import Fraction

import pytest

from signstab import (
    Cone,
    DTCoords,
    Flip,
    IntPoly,
    MutationPath,
    OrbitReport,
    Permute,
    QuadExt,
    Seed,
    TrainTrack,
    Triangulation,
)
from signstab.reduction import BlockReport, HereditaryReport
from signstab.stability import StretchReport

A2 = ((0, 1), (-1, 0))


def _seed(unfrozen=(0, 1)):
    return Seed([list(row) for row in A2], set(unfrozen))


def _triangle():
    return Triangulation(["a", "b", "c"], {"a", "b", "c"}, [["a", "b", "c"]])


def _square():
    return Triangulation(("a", "b", "c", "d", "e"), {"a", "b", "c", "d"},
                         (("a", "b", "e"), ("c", "d", "e")))


# (name, a builder called twice for two equal objects, one unequal object,
#  a field name); the builders pass lists and sets where the constructor
#  coerces to tuples and frozensets
FROZEN = [
    ("QuadExt", lambda: QuadExt(1, Fraction(1, 2), 5), QuadExt(1, 1, 5), "a"),
    ("Seed", _seed, _seed(unfrozen=(0,)), "b"),
    ("Flip", lambda: Flip(0), Flip(1), "k"),
    ("Permute", lambda: Permute([1, 0]), Permute((0, 1)), "sigma"),
    ("MutationPath", lambda: MutationPath(_seed(), [Flip(0), Flip(1)]),
     MutationPath(_seed(), [Flip(1), Flip(0)]), "steps"),
    ("CompiledPath", lambda: MutationPath(_seed(), [Flip(0)]).compiled,
     MutationPath(_seed(), [Flip(1)]).compiled, "end"),
    ("Triangulation", _square, _triangle(), "arcs"),
    ("IntPoly", lambda: IntPoly([1, 2, 0]), IntPoly((1, 2, 1)), "coeffs"),
    ("Cone", lambda: Cone([[1, 0], [1, 1]]), Cone([[1, 0]]), "generators"),
    ("TrainTrack", lambda: TrainTrack(["x", "y", "z"], [("x", ["y", "z"])], {"x"}),
     TrainTrack(["x", "y", "z"], [("x", ["y", "z"])], set()), "edges"),
    ("DTCoords", lambda: DTCoords([(1, -2)], [3]), DTCoords([(1, -2)]),
     "curve_pairs"),
]


def _orbit_report():
    return OrbitReport((Fraction(1), Fraction(0)), [(1,)], [((1, 0), None, 1)],
                       0, 1)


MUTABLE = [
    ("OrbitReport", _orbit_report, "all_zero_warning", True),
    ("StretchReport", lambda: StretchReport(1.5, [((1,), 1.5, 0.0)], True),
     "exact_verified", False),
    ("HereditaryReport", lambda: HereditaryReport(True, [0, 2], []),
     "passes", False),
    ("BlockReport", lambda: BlockReport(True, True, 1, 0.0, [((1,), 1.0, 1.0)]),
     "ok", False),
]


@pytest.mark.parametrize("name,build,other,field", FROZEN,
                         ids=[case[0] for case in FROZEN])
def test_frozen_records_compare_and_hash_by_fields(name, build, other, field):
    x, y = build(), build()
    assert x is not y
    assert x == y and not x != y
    assert hash(x) == hash(y)
    assert len({x, y, other}) == 2
    assert x != other
    assert x != (getattr(x, field),)


@pytest.mark.parametrize("name,build,other,field", FROZEN,
                         ids=[case[0] for case in FROZEN])
def test_frozen_record_fields_cannot_be_assigned(name, build, other, field):
    x = build()
    value = getattr(x, field)
    with pytest.raises(AttributeError):
        setattr(x, field, getattr(other, field))
    with pytest.raises(AttributeError):
        delattr(x, field)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert getattr(x, field) == value and x == build()


@pytest.mark.parametrize("name,build,field,value", MUTABLE,
                         ids=[case[0] for case in MUTABLE])
def test_reports_are_assignable_and_unhashable(name, build, field, value):
    x, y = build(), build()
    assert x == y
    with pytest.raises(TypeError):
        hash(x)
    setattr(x, field, value)
    assert getattr(x, field) == value
    assert x != y
    setattr(y, field, value)
    assert x == y


def test_constructors_reject_bad_input():
    with pytest.raises(ValueError, match="not a permutation"):
        Permute((0, 0))
    with pytest.raises(ValueError, match="skew-symmetric"):
        Seed([[0, 1], [1, 0]], {0, 1})
    with pytest.raises(ValueError, match="integer"):
        Seed([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]], {0, 1})
    with pytest.raises(ValueError, match="out of range"):
        Seed(A2, {0, 2})
    with pytest.raises(ValueError, match="at least one generator"):
        Cone(())
    with pytest.raises(ValueError, match="square-free"):
        QuadExt(1, 1, 4)
    with pytest.raises(ValueError, match="self-folded"):
        Triangulation(["a", "b"], {"b"}, [["a", "a", "b"]])
    with pytest.raises(ValueError, match="unknown edge"):
        TrainTrack(["x"], [("x", ("y", "z"))], set())
    # an index or entry that is not an int: a bool is an int equal to 0 or
    # 1, and a float or str would fail later with a bare TypeError
    for bad in (True, 1.0, "1"):
        with pytest.raises(ValueError, match="flip index"):
            Flip(bad)
        with pytest.raises(ValueError, match="perm entry"):
            Permute((bad, 0))
        with pytest.raises(ValueError, match="unfrozen indices must be integers"):
            Seed(A2, {0, bad})
        with pytest.raises(ValueError, match="entries must be integers"):
            Seed([[0, bad], [-1, 0]], {0, 1})
    with pytest.raises(ValueError, match="entries must be integers"):
        Seed([[0, "a"], ["b", 0]], {0, 1})
    with pytest.raises(ValueError, match="unfrozen indices must be integers"):
        Seed(A2, {"0"})
    with pytest.raises(ValueError, match="unfrozen indices must be integers"):
        Seed(A2, [[0], 1])


def test_constructors_coerce_their_fields():
    seed = _seed()
    assert seed.b == A2 and type(seed.b) is tuple
    assert type(seed.unfrozen) is frozenset
    assert Permute([1, 0]).sigma == (1, 0)
    assert MutationPath(seed, [Flip(0)]).steps == (Flip(0),)
    assert QuadExt(1, 2, 5).a == Fraction(1) and type(QuadExt(1, 2, 5).b) is Fraction
    assert IntPoly((1, 0, 0)) == IntPoly((1,))
    assert IntPoly((1, 0, 0)).coeffs == (1,) and IntPoly(()).coeffs == (0,)
    assert hash(IntPoly((1, 0, 0))) == hash(IntPoly((1,)))
    assert Cone([[1, 2]]).generators == ((1, 2),)
    assert DTCoords([(1, 2)]).curve_pairs == ((Fraction(1), Fraction(2)),)
    assert _triangle().triangles == (("a", "b", "c"),)
    assert TrainTrack(["x", "y", "z"], [("x", ["y", "z"])], ["x"]).switches \
        == (("x", ("y", "z")),)


def test_keyword_construction_and_defaults():
    seed = _seed()
    assert MutationPath(seed) == MutationPath(initial=seed, steps=())
    assert MutationPath(seed).steps == ()
    assert MutationPath(initial=seed, steps=[Flip(k=0)]).steps == (Flip(0),)
    assert Permute(sigma=(1, 0)) == Permute((1, 0))
    assert Seed(b=A2, unfrozen={0}) == Seed(A2, {0})
    assert QuadExt(a=1, b=1, d=2) == QuadExt(1, 1, 2)
    assert IntPoly(coeffs=(1, 1)) == IntPoly((1, 1))
    assert Cone(generators=[[1]]) == Cone([[1]])
    assert DTCoords([(1, 2)]).puncture_values == ()
    assert DTCoords(curve_pairs=[(1, 2)], puncture_values=[1]) \
        == DTCoords([(1, 2)], [1])
    assert Triangulation(arcs="abc", frozen_arcs="abc",
                         triangles=["abc"]) == _triangle()
    assert TrainTrack(edges=["x"], switches=(), boundary_edges=()) \
        == TrainTrack(["x"], (), ())
    orbit = OrbitReport(point=(Fraction(1), Fraction(0)), signs=[(1,)],
                        rows=[((1, 0), None, 1)], d=0, window=1)
    assert orbit == _orbit_report()
    assert (orbit.detected_stable, orbit.detected_weak_stable,
            orbit.stabilization_index, orbit.all_zero_warning) \
        == (None, None, None, False)
    stretch = StretchReport(value=1.5, table=[], radii_all_equal=True)
    assert (stretch.exact_verified, stretch.exact_value) == (None, None)
    assert HereditaryReport(passes=True, compatible_positions=[],
                            violations=[]) == HereditaryReport(True, [], [])
    assert BlockReport(ok=True, zero_block_exact=True, sign_count=0,
                       max_radius_diff=0.0, details=[]) \
        == BlockReport(True, True, 0, 0.0, [])


def test_compiled_path_is_built_once_and_kept_out_of_equality():
    path = MutationPath(_seed(), [Flip(0), Permute((1, 0))])
    fresh = MutationPath(_seed(), [Flip(0), Permute((1, 0))])
    compiled = path.compiled
    assert path.compiled is compiled
    assert path == fresh and hash(path) == hash(fresh)
    assert fresh.compiled == compiled and fresh.compiled is not compiled


def test_records_print_their_fields():
    assert repr(Flip(2)) == "Flip(k=2)"
    assert repr(Permute([1, 0])) == "Permute(sigma=(1, 0))"
    assert repr(IntPoly((1, 0, 0))) == "IntPoly(coeffs=(1,))"
    assert repr(HereditaryReport(True, [0], [])) \
        == "HereditaryReport(passes=True, compatible_positions=[0], violations=[])"
    assert repr(QuadExt(1, 2, 5)) == "QuadExt(Fraction(1, 1), Fraction(2, 1), 5)"
