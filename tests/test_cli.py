import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from signstab import io as sio
from signstab.cli import build_parser, main

DATA = "tests/data"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sign_command(capsys):
    code, out, err = run(
        capsys, "sign", "--path", f"{DATA}/a2_path.json", "--point", "[1,1]"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["sign"] == "++-"
    assert doc["schema_version"] == 1
    assert "+,+,-" in err


def test_transport_empty_path(capsys):
    code, out, _ = run(
        capsys, "--json-only", "transport",
        "--path", f"{DATA}/empty_path.json", "--point", "[5]",
    )
    assert code == 0
    assert json.loads(out)["result"]["final"] == [5]


def test_transport_trace(capsys):
    code, out, _ = run(
        capsys, "--json-only", "transport",
        "--path", f"{DATA}/a2_path.json", "--point", "[1,1]", "--trace",
    )
    doc = json.loads(out)
    assert doc["result"]["final"] == [1, -2]
    assert doc["result"]["intermediates"] == [[1, 1], [-1, 1], [-1, -1]]


def test_stretch_command(capsys):
    code, out, _ = run(
        capsys, "--json-only", "stretch",
        "--path", f"{DATA}/kron3_path.json", "--stable", "+",
        "--candidate", "3/2+1/2*sqrt(5)",
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["result"]["lambda"] - 2.6180339887) < 1e-9
    assert doc["result"]["exact_verified"] is True


def test_reports_are_deterministic(capsys):
    _, out1, _ = run(
        capsys, "--json-only", "signs-enumerate",
        "--path", f"{DATA}/a2_path.json",
    )
    _, out2, _ = run(
        capsys, "--json-only", "signs-enumerate",
        "--path", f"{DATA}/a2_path.json",
    )
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["result"]["count"] == 5
    # --seed is still accepted, and enumeration is exact: it changes nothing
    _, seed0, _ = run(
        capsys, "--json-only", "signs-enumerate",
        "--path", f"{DATA}/a2_path.json", "--seed", "0",
    )
    _, seed5, _ = run(
        capsys, "--json-only", "signs-enumerate",
        "--path", f"{DATA}/a2_path.json", "--seed", "5",
    )
    assert seed0 == seed5 == out1


def test_mutate_and_output_file(capsys, tmp_path):
    seed_file = tmp_path / "seed.json"
    seed_file.write_text(
        json.dumps({"n": 2, "unfrozen": [0, 1], "B": [[0, 1], [-1, 0]]})
    )
    out_file = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "--json-only", "-o", str(out_file),
        "mutate", "--seed", str(seed_file), "--k", "0",
    )
    assert code == 0
    assert out_file.read_text() == out
    assert json.loads(out)["result"]["seed"]["B"] == [[0, -1], [1, 0]]


@pytest.mark.parametrize("argv, want_code, want_error", [
    (["sign", "--path", f"{DATA}/a2_path.json", "--point", "[1]"],
     1, "DimensionMismatchError"),
    (["orbit", "--path", f"{DATA}/kron3_path.json", "--point", "[1,0]",
      "--iters", "0"], 2, "UsageError"),
])
def test_error_report_replaces_output_file(capsys, tmp_path, argv,
                                           want_code, want_error):
    out_file = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "--json-only", "-o", str(out_file),
        "sign", "--path", f"{DATA}/a2_path.json", "--point", "[1,1]",
    )
    assert code == 0 and "result" in json.loads(out_file.read_text())
    try:
        code = main(["--json-only", "-o", str(out_file), *argv])
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    assert code == want_code
    out = capsys.readouterr().out
    assert out_file.read_text() == out
    assert json.loads(out)["error"] == want_error


def test_domain_error_exit_code(capsys):
    code, out, _ = run(
        capsys, "--json-only", "presentation",
        "--path", f"{DATA}/kron3_path.json", "--point", "[0,1]",
    )
    assert code == 1
    assert json.loads(out)["error"] == "NonStrictSignError"


@pytest.mark.parametrize("command", ["sign", "signs-enumerate"])
def test_flip_index_checked_on_load(capsys, tmp_path, command):
    path = json.loads(Path(f"{DATA}/a2_path.json").read_text())
    path["steps"].append({"flip": 5})
    path_file = tmp_path / "path.json"
    path_file.write_text(json.dumps(path))
    argv = ["--json-only", command, "--path", str(path_file)]
    if command == "sign":
        argv += ["--point", "[1,2]"]
    code, out, _ = run(capsys, *argv)
    assert code in (1, 2)
    doc = json.loads(out)
    assert doc["error"] == "FrozenIndexError"
    assert "step 3" in doc["message"]


@pytest.mark.parametrize("command", ["sign", "orbit", "signs-enumerate"])
def test_perm_length_checked_on_load(capsys, tmp_path, command):
    path = json.loads(Path(f"{DATA}/a2_path.json").read_text())
    path["steps"].append({"perm": [0]})
    path_file = tmp_path / "path.json"
    path_file.write_text(json.dumps(path))
    argv = ["--json-only", command, "--path", str(path_file)]
    if command in ("sign", "orbit"):
        argv += ["--point", "[1,2]"]
    code, out, _ = run(capsys, *argv)
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "SplitViolationError"
    assert "step 3" in doc["message"]


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_orbit_command(capsys):
    code, out, _ = run(
        capsys, "--json-only", "orbit",
        "--path", f"{DATA}/kron3_path.json", "--point", "[1,0]",
        "--iters", "4", "--window", "2",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["result"]["stable"] == "+"
    assert doc["result"]["iterations"][0]["point"] == [1, "-1/3"]


def test_charpoly_command(capsys):
    code, out, _ = run(
        capsys, "--json-only", "charpoly", "--matrix", "[[3,1],[-1,0]]",
    )
    doc = json.loads(out)
    assert doc["result"]["coefficients_ascending"] == [1, -3, 1]
    assert abs(doc["result"]["spectral_radius"] - 2.6180339887) < 1e-9


def test_charpoly_matrix_entries_read_by_value(capsys):
    """char_poly's entry check is the one integer check of --matrix: an
    entry whose value is an integer reads as that integer, in the result
    and in the report's inputs."""
    _, plain, _ = run(capsys, "--json-only", "charpoly",
                      "--matrix", "[[3,1],[1,0]]")
    code, out, _ = run(capsys, "--json-only", "charpoly",
                       "--matrix", '[["3+0*sqrt(5)",1],["2/2",0]]')
    assert code == 0 and out == plain
    code, out, _ = run(capsys, "--json-only", "charpoly",
                       "--matrix", '[["1/2",1],[1,0]]')
    assert code == 1
    assert json.loads(out)["message"] == \
        "char_poly: matrix entry Fraction(1, 2) is not an integer"


def test_empty_sign_is_a_sign(capsys):
    """--sign "" is the sign of a path with no flips, not an absent flag."""
    code, out, _ = run(capsys, "--json-only", "presentation",
                       "--path", f"{DATA}/empty_path.json", "--sign", "")
    assert code == 0 and json.loads(out)["result"]["matrix"] == [[1]]
    code, out, _ = run(capsys, "--json-only", "charpoly",
                       "--path", f"{DATA}/empty_path.json", "--sign", "")
    assert code == 0 and json.loads(out)["result"]["pretty"] == "nu - 1"


def test_charpoly_radius_near_the_float_limit_is_finite_json(capsys):
    """nu^2 - 10^200 nu + 1 has its top root near 10^200, where Horner's rule
    on the unscaled polynomial overflows; the report holds finite numbers."""
    def no_constant(name):
        raise ValueError(f"report holds {name}")

    code, out, _ = run(capsys, "--json-only", "charpoly",
                       "--matrix", f"[[0,-1],[1,{10 ** 200}]]")
    assert code == 0
    result = json.loads(out, parse_constant=no_constant)["result"]
    rho, bound = result["spectral_radius"], result["radius_bound"]
    assert abs(Fraction(rho) - 10 ** 200) <= bound


def test_eigencheck_command(capsys):
    code, out, _ = run(
        capsys, "--json-only", "eigencheck",
        "--matrix", "[[3,1],[-1,0]]",
        "--eigenvalue", "3/2+1/2*sqrt(5)",
        "--vector", '["3/2+1/2*sqrt(5)", "-1"]',
    )
    assert json.loads(out)["result"]["verified"] is True


@pytest.mark.parametrize("argv", [
    ["charpoly", "--matrix", "[[1,2],[3]]"],
    ["charpoly", "--matrix", "[1,2]"],
    ["charpoly", "--matrix", '{"rows": [[1]]}'],
    ["charpoly", "--matrix", "[[0.5,1],[1,0]]"],
    ["charpoly", "--matrix", "[[true,1],[1,0]]"],
    ["charpoly", "--matrix", '[["1/2",1],[1,0]]'],
    ["charpoly", "--matrix", '[["sqrt(2)",1],[1,0]]'],
    ["eigencheck", "--matrix", "[[1,2],[3]]"],
    ["eigencheck", "--matrix", "[[0.5,1],[1,0]]"],
    ["eigencheck", "--matrix", "[[true,1],[1,0]]"],
])
def test_matrix_checked_on_load(capsys, argv):
    if argv[0] == "eigencheck":
        argv = argv + ["--eigenvalue", "1", "--vector", "[1,0]"]
    code, out, _ = run(capsys, "--json-only", *argv)
    assert code == 1
    assert json.loads(out)["error"] == "FormatError"


def test_eigencheck_rational_matrix(capsys):
    code, out, _ = run(
        capsys, "--json-only", "eigencheck",
        "--matrix", '[["1/2",1],[0,2]]', "--eigenvalue", "1/2", "--vector", "[1,0]",
    )
    doc = json.loads(out)
    assert code == 0 and doc["result"]["verified"] is True
    assert doc["inputs"]["matrix"] == [["1/2", 1], [0, 2]]


@pytest.mark.parametrize("matrix, eigenvalue, vector", [
    ("[[2]]", "5", "[0]"),
    ("[[1,2],[3,4]]", "17", '[0,"0+0*sqrt(5)"]'),
])
def test_eigencheck_rejects_the_zero_vector(capsys, matrix, eigenvalue, vector):
    code, out, err = run(capsys, "eigencheck", "--matrix", matrix,
                         "--eigenvalue", eigenvalue, "--vector", vector)
    assert code == 0
    assert json.loads(out)["result"]["verified"] is False
    assert "REJECTED" in err


# input files of test_bad_flags_give_json_errors, named in its argv
BAD_FLAG_FILES = {
    "TRACK": {"edges": ["e0", "e1", "e2"], "switches": [["e0", ["e1", "e2"]]]},
    "NO_GENERATORS": {"generators": []},
    "INT_GENERATOR": {"generators": [5]},
    "INT_ROW_SEED": {"n": 1, "unfrozen": [0], "B": [5]},
    "INT_SEED_FILE": {"seed": {"file": 5}, "steps": []},
    # raw bytes: json.dumps refuses an int of over 4,300 digits too
    "LONG_INT_SEED": b'{"n": 1, "unfrozen": [0], "B": [[' + b"1" * 5000 + b"]]}",
    "NOT_UTF8_PATH": b"\xff\xfe[1]",
    "TRACK_STR_SWITCH": {"edges": ["a", "b", "c"], "switches": [["a", "bc"]]},
    "TRACK_LONG_SWITCH": {"edges": ["a", "b", "c"],
                          "switches": [["a", ["b", "c", "zzz"]]]},
    "TRACK_STR_BOUNDARY": {"edges": ["a", "b"], "switches": [], "boundary": "ab"},
    "TRACK_INT_BOUNDARY": {"edges": ["a"], "switches": [], "boundary": 5},
}
NINES_400 = "9" * 400


@pytest.mark.parametrize("argv", [
    ["pants", "--m1", "abc", "--m2", "1", "--m3", "1"],
    ["pants", "--m1", "1", "--m2", "0.5", "--m3", "1"],
    ["pants", "--m1", "sqrt(2)", "--m2", "1", "--m3", "1"],
    ["annulus", "--m", "0.5", "--t", "1"],
    ["annulus", "--m", "1", "--t", "x"],
    ["sign", "--path", f"{DATA}/a2_path.json", "--point", "[1,"],
    ["duality-check", "--rank", "1"],
    ["duality-check", "--length", "-1"],
    ["duality-check", "--max-entry", "-1"],
    ["mutate", "--seed", f"{DATA}/annulus_seed.json", "--k", "abc"],
    ["freeze", "--seed", f"{DATA}/annulus_seed.json", "--freeze", "x"],
    ["presentation", "--path", f"{DATA}/a2_path.json", "--sign", "+x"],
    ["stretch", "--path", f"{DATA}/kron3_path.json", "--stable", "+x"],
    ["hereditary", "--path", f"{DATA}/sphere3b_path.json",
     "--cone", f"{DATA}/sphere3b_cone.json", "--stable", "+x"],
    ["orbit", "--path", f"{DATA}/kron3_path.json", "--point", "[1,0]",
     "--iters", "0"],
    ["stable-sign", "--path", f"{DATA}/kron3_path.json", "--point", "[1,0]",
     "--iters", "0"],
    ["orbit", "--path", f"{DATA}/kron3_path.json", "--point", "[1,0]",
     "--iters", "4", "--window", "1"],
    ["orbit", "--path", f"{DATA}/kron3_path.json", "--point", "[1,0]",
     "--iters", "abc"],
    ["charpoly"],
    ["charpoly", "--path", f"{DATA}/kron3_path.json"],
    ["track-validate", "--track", "TRACK", "--measure", '{"zz": 1}'],
    ["signs-enumerate", "--path", f"{DATA}/a2_path.json", "--max-branch", "1"],
    ["duality-check", "--count", "-3"],
    ["signs-enumerate", "--path", f"{DATA}/a2_path.json", "--max-branch", "-3"],
    ["-o", DATA, "sign", "--path", f"{DATA}/a2_path.json", "--point", "[1,1]"],
    ["-o", f"{DATA}/missing/report.json", "annulus", "--m", "1", "--t", "1"],
    ["stretch", "--path", f"{DATA}/kron3_path.json", "--stable", "+",
     "--radicand", "4"],
    ["stretch", "--path", f"{DATA}/kron3_path.json", "--stable", "+",
     "--radicand", "1"],
    ["stretch", "--path", f"{DATA}/kron3_path.json", "--stable", "+",
     "--candidate", "3/2+1/2*sqrt(5)", "--radicand", "-3"],
    ["eigencheck", "--matrix", "[[1,0],[0,2]]", "--eigenvalue", "1",
     "--vector", "[1,0]", "--radicand", "4"],
    ["compat", "--path", f"{DATA}/a2_path.json", "--cone", "NO_GENERATORS"],
    ["compat", "--path", f"{DATA}/a2_path.json", "--cone", "INT_GENERATOR"],
    ["mutate", "--seed", "INT_ROW_SEED", "--k", "0"],
    ["sign", "--path", "INT_SEED_FILE", "--point", "[1]"],
    ["stretch", "--path", f"{DATA}/kron3_path.json", "--stable", "+",
     "--candidate", "1+sqrt(1000000000000000003)"],
    ["eigencheck", "--matrix", "[[1,0],[0,2]]", "--eigenvalue", "1",
     "--vector", "[1,0]", "--radicand", "1000000000000000003"],
    ["mutate", "--seed", "LONG_INT_SEED", "--k", "0"],
    ["sign", "--path", f"{DATA}/kron3_path.json",
     "--point", "[" + "1" * 5000 + ", 1]"],
    ["sign", "--path", "NOT_UTF8_PATH", "--point", "[1]"],
    ["charpoly", "--matrix", f"[[{NINES_400},1],[0,{NINES_400}]]"],
    ["track-validate", "--track", "TRACK_STR_SWITCH", "--measure", "{}"],
    ["track-validate", "--track", "TRACK_LONG_SWITCH", "--measure", "{}"],
    ["track-validate", "--track", "TRACK_STR_BOUNDARY", "--measure", "{}"],
    ["track-validate", "--track", "TRACK_INT_BOUNDARY", "--measure", "{}"],
    ["charpoly", "--matrix", "[[1,2],[3,4]]",
     "--path", f"{DATA}/kron3_path.json", "--sign", "+"],
    ["presentation", "--path", f"{DATA}/kron3_path.json", "--sign", ""],
    ["stretch", "--path", f"{DATA}/kron3_path.json", "--stable", "+",
     "--candidate", ""],
    ["charpoly", "--matrix", ""],
    ["sign", "--path", f"{DATA}/a2_path.json", "--point", ""],
    ["eigencheck", "--matrix", "[[1,0],[0,2]]", "--eigenvalue", "",
     "--vector", "[1,0]"],
])
def test_bad_flags_give_json_errors(capsys, tmp_path, argv):
    files = {}
    for name, obj in BAD_FLAG_FILES.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_bytes(obj if isinstance(obj, bytes)
                                else json.dumps(obj).encode())
    argv = [str(files[a]) if a in files else a for a in argv]
    try:
        code = main(["--json-only", *argv])
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    assert code in (1, 2)
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["error"] and doc["message"]
    if "--radicand" in argv:  # a square-free d >= 2, checked by argparse
        assert code == 2 and doc["error"] == "UsageError"
    for flag in ("--candidate", "--eigenvalue"):  # a bad scalar names its flag
        if flag in argv and argv[argv.index(flag) + 1] == "":
            assert doc["message"].startswith(f"{flag}: ")
    assert captured.err == ""


@pytest.mark.parametrize("argv", [
    ["charpoly", "--matrix", ""],
    ["sign", "--path", f"{DATA}/a2_path.json", "--point", " "],
    ["eigencheck", "--matrix", "[[1]]", "--eigenvalue", "1", "--vector", ""],
    ["track-validate", "--track", "TRACK", "--measure", ""],
])
def test_empty_inline_value_is_an_error_naming_its_flag(capsys, tmp_path, argv):
    track = tmp_path / "track.json"
    track.write_text(json.dumps(BAD_FLAG_FILES["TRACK"]))
    argv = [str(track) if a == "TRACK" else a for a in argv]
    code, out, err = run(capsys, "--json-only", *argv)
    doc = json.loads(out)
    assert (code, doc["error"], err) == (1, "FormatError", "")
    assert doc["message"].startswith(argv[-2] + ": empty value")


def test_json_nested_past_the_recursion_limit_is_a_format_error(tmp_path):
    """JSON nested deeper than the decoder's recursion limit, in a path
    file or inline, is a FormatError report with exit 1, not a traceback."""
    deep_path = tmp_path / "deep_path.json"
    deep_path.write_text('{"seed": {"n": 2, "B": [[0, 1], [-1, 0]], '
                         '"unfrozen": [0, 1]}, "steps": '
                         + "[" * 3000 + "]" * 3000 + "}")
    inline = "[" * 1000 + "]" * 1000
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    for argv, where in (
            (["sign", "--path", str(deep_path), "--point", "[1,1]"],
             str(deep_path)),
            (["charpoly", "--matrix", inline], "inline --matrix"),
            (["sign", "--path", f"{DATA}/a2_path.json", "--point", inline],
             "inline --point")):
        proc = subprocess.run(
            [sys.executable, "-m", "signstab", "--json-only", *argv],
            capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (1, ""), proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["error"] == "FormatError"
        assert doc["message"].startswith(f"{where} is not valid JSON: ")


def test_deeply_nested_step_value_gives_a_short_error(tmp_path):
    """A flip index or perm entry nested 950 deep decodes, and the step
    check names its type without echoing it: a short FormatError report."""
    nested = "[" * 950 + "0" + "]" * 950
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    for step, expected in (
            (f'{{"flip": {nested}}}', "step 0 flip index is a list"),
            (f'{{"perm": [{nested}, 0]}}',
             "step 0 perm entry at position 0 is a list")):
        path = tmp_path / "path.json"
        path.write_text('{"seed": {"n": 2, "B": [[0, 1], [-1, 0]], '
                        f'"unfrozen": [0, 1]}}, "steps": [{step}]}}')
        proc = subprocess.run(
            [sys.executable, "-m", "signstab", "--json-only", "signs-enumerate",
             "--path", str(path)],
            capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (1, ""), proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["error"] == "FormatError"
        assert doc["message"] == f"{path}: {expected}, not an int"


# 3,000-character literals, one per literal parser: (argv with LONG in
# place of the flag value or coordinate text, the literal)
LONG = "LONG"
LONG_LITERALS = {
    "rational": (["sign", "--path", f"{DATA}/a2_path.json",
                  "--point", f'["{LONG}",1]'], "1/" + "x" * 2998),
    "float": (["sign", "--path", f"{DATA}/a2_path.json",
               "--point", f'["{LONG}",1]'], "1." + "0" * 2998),
    "quadratic": (["stretch", "--path", f"{DATA}/kron3_path.json",
                   "--stable", "+", "--candidate", LONG], "sqrt(" * 600),
    "radicand": (["stretch", "--path", f"{DATA}/kron3_path.json",
                  "--stable", "+", "--candidate", LONG],
                 "sqrt(" + "x" * 2994 + ")"),
    "radicand-above": (["eigencheck", "--matrix", "[[1]]", "--eigenvalue", LONG,
                        "--vector", "[1]"], "sqrt(" + "9" * 2994 + ")"),
    "not-rational": (["pants", "--m1", LONG, "--m2", "1", "--m3", "1"],
                     "1+" + "0" * 2989 + "2*sqrt(2)"),
    "int-list": (["mutate", "--seed", f"{DATA}/annulus_seed.json", "--k", LONG],
                 "0," * 1499 + "x,"),
    "int": (["orbit", "--path", f"{DATA}/a2_path.json", "--point", "[1,1]",
             "--iters", LONG], "x" * 3000),
    "int-below": (["orbit", "--path", f"{DATA}/a2_path.json", "--point", "[1,1]",
                   "--iters", LONG], "-" + "9" * 2999),
    "radicand-flag": (["eigencheck", "--matrix", "[[1]]", "--eigenvalue", "1",
                       "--vector", "[1]", "--radicand", LONG], "9" * 3000),
    "sign": (["presentation", "--path", f"{DATA}/a2_path.json", "--sign", LONG],
             "+" * 2999 + "?"),
}


@pytest.mark.parametrize("label", sorted(LONG_LITERALS))
def test_long_bad_literal_is_named_by_its_length(capsys, label):
    """A bad literal of 3,000 characters is named by its length alone, so
    that the report stays short."""
    argv, literal = LONG_LITERALS[label]
    assert len(literal) == 3000
    try:
        code = main(["--json-only", *(a.replace(LONG, literal) for a in argv)])
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    out = capsys.readouterr()
    assert code in (1, 2) and out.err == ""
    message = json.loads(out.out)["message"]
    assert "<3,000 characters>" in message and len(message) < 200, message


@pytest.mark.parametrize("argv", [
    pytest.param(["stretch", "--path", f"{DATA}/kron3_path.json", "--stable", "+",
                  "--candidate", "sqrt(2)"], id="stretch-candidate"),
    pytest.param(["eigencheck", "--matrix", "[[1,0],[0,1]]",
                  "--eigenvalue", "sqrt(2)", "--vector", "[0,1]"],
                 id="eigencheck-eigenvalue"),
    pytest.param(["eigencheck", "--matrix", "[[1,0],[0,1]]",
                  "--eigenvalue", "1", "--vector", '["sqrt(2)",1]'],
                 id="eigencheck-vector"),
    pytest.param(["eigencheck", "--matrix", '[["sqrt(2)",0],[0,1]]',
                  "--eigenvalue", "1", "--vector", "[0,1]"],
                 id="eigencheck-matrix"),
])
def test_scalar_off_the_radicand_is_rejected(capsys, argv):
    code, out, err = run(capsys, "--json-only", *argv, "--radicand", "5")
    assert (code, err) == (1, "")
    assert json.loads(out)["error"] == "RadicandMismatchError"


# a 3 x 3 seed with 3,000-digit entries: mutating at 1 gives b_02 + b_01 b_12,
# a 6,000-digit entry, past the 4,300 digits an int may render to
BIG = 10 ** 2999 + 7
HUGE_SEED = {"n": 3, "unfrozen": [0, 1, 2],
             "B": [[0, BIG, BIG], [-BIG, 0, BIG], [-BIG, -BIG, 0]]}
NINES_4300 = "9" * 4300


@pytest.mark.parametrize("argv", [
    pytest.param(["charpoly", "--matrix", f"[[{NINES_400},1],[0,{NINES_400}]]"],
                 id="charpoly-past-float-range"),
    # nu^2 - 10^400 nu + 1: a square-free part of degree 2 past the float range
    pytest.param(["charpoly", "--matrix", f"[[0,-1],[1,{10 ** 400}]]"],
                 id="charpoly-quadratic-past-float-range"),
    pytest.param(["mutate", "--seed", "HUGE_SEED", "--k", "1"],
                 id="mutate-int-past-4300-digits"),
    pytest.param(["transport", "--path", f"{DATA}/kron3_path.json",
                  "--point", f'["{NINES_4300}/7", 1]'],
                 id="transport-fraction-past-4300-digits"),
    pytest.param(["transport", "--path", f"{DATA}/kron3_path.json",
                  "--point", f"[{NINES_4300}, {NINES_4300}]"],
                 id="transport-int-past-4300-digits"),
    pytest.param(["orbit", "--path", f"{DATA}/kron3_path.json",
                  "--point", f'["{NINES_4300}/7", 1]', "--iters", "3"],
                 id="orbit-row-past-4300-digits"),
    # det(nu*I - 10^300*I) has the 4,501-digit constant term 10^4500; its
    # radius, 10^300, is still a float
    pytest.param(["charpoly", "--matrix", json.dumps(
        [[10 ** 300 * (i == j) for j in range(15)] for i in range(15)])],
                 id="charpoly-coefficient-past-4300-digits"),
])
def test_oversized_numbers_are_json_errors(capsys, tmp_path, argv):
    seed_file = tmp_path / "huge_seed.json"
    seed_file.write_text(json.dumps(HUGE_SEED))
    argv = [str(seed_file) if a == "HUGE_SEED" else a for a in argv]
    code, out, err = run(capsys, "--json-only", *argv)
    assert (code, err) == (1, "")
    assert json.loads(out)["error"] == "MagnitudeError"


def test_stable_sign_renders_no_orbit_row(capsys):
    """The orbit whose rows are past the int-to-text limit above: stable-sign
    prints no row, so it reports its detection fields."""
    code, out, err = run(capsys, "--json-only", "stable-sign",
                         "--path", f"{DATA}/kron3_path.json",
                         "--point", f'["{NINES_4300}/7", 1]', "--iters", "3")
    assert (code, err) == (0, "")
    result = json.loads(out)["result"]
    assert "iterations" not in result
    assert result["window"] == 2 and result["stable"] == "+"
    assert result["weak_stable"] == "+" and result["weak_all_zero"] is False


def test_one_process_runs_commands_like_fresh_ones(capsys):
    """The parser is built once per process: a usage error, a good command
    and a domain error in one process each give the stdout, stderr and exit
    code of a fresh process."""
    commands = [
        ["orbit", "--path", f"{DATA}/a2_path.json"],
        ["transport", "--path", f"{DATA}/a2_path.json", "--point", "[1,1]"],
        ["presentation", "--path", f"{DATA}/a2_path.json", "--sign", "+0+"],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    codes = []
    for argv in commands:
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
        out = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "signstab", *argv],
                               capture_output=True, text=True, env=env,
                               cwd=SRC.parent, timeout=120)
        assert (codes[-1], out.out, out.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr)
    assert codes == [2, 0, 1]
    assert build_parser() is build_parser()


def test_integer_scalars_render_as_json_integers(capsys, tmp_path):
    """eigencheck's eigenvalue and stretch's exact_value follow coord_json."""
    code, out, _ = run(capsys, "--json-only", "eigencheck",
                       "--matrix", "[[1,0],[0,2]]", "--eigenvalue", "2+0*sqrt(5)",
                       "--vector", "[0,1]")
    assert code == 0 and json.loads(out)["inputs"]["eigenvalue"] == 2
    # the b = 2 Kronecker loop is periodic: stretch factor 1 on the - side
    path_file = tmp_path / "kron2.json"
    path_file.write_text(json.dumps({
        "seed": {"n": 2, "unfrozen": [0, 1], "B": [[0, 2], [-2, 0]]},
        "steps": [{"flip": 0}, {"perm": [1, 0]}]}))
    code, out, _ = run(capsys, "--json-only", "stretch", "--path", str(path_file),
                       "--stable", "-", "--candidate", "1")
    result = json.loads(out)["result"]
    assert code == 0 and result["exact_verified"] is True
    assert result["exact_value"] == 1


def test_compat_walks_each_generator_once(capsys, monkeypatch):
    import signstab.reduction

    calls = []
    walk = signstab.reduction.sign_of_path
    monkeypatch.setattr(signstab.reduction, "sign_of_path",
                        lambda path, w: calls.append(w) or walk(path, w))
    code, out, _ = run(capsys, "--json-only", "compat", *SPHERE3B)
    assert code == 0
    generators = json.loads(out)["inputs"]["cone"]["generators"]
    assert len(calls) == len(generators) > 1


def test_usage_error_under_json_only_writes_only_the_report(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--json-only", "duality-check", "--count", "-3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["error"] == "UsageError"
    assert captured.err == ""
    # without the flag the usage line and a summary go to stderr
    with pytest.raises(SystemExit) as exc:
        main(["duality-check", "--count", "-3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["error"] == "UsageError"
    assert captured.err.startswith("usage: signstab duality-check")
    assert "error: UsageError" in captured.err


def test_compat_and_skeleton(capsys):
    import json as j

    code, out, _ = run(
        capsys, "--json-only", "compat",
        "--path", f"{DATA}/sphere3b_path.json",
        "--cone", f"{DATA}/sphere3b_cone.json",
    )
    doc = j.loads(out)
    assert doc["result"]["bitmask"] == "1000010100000010"
    code, out, _ = run(
        capsys, "--json-only", "skeleton",
        "--path", f"{DATA}/sphere3b_path.json",
        "--cone", f"{DATA}/sphere3b_cone.json",
    )
    doc = j.loads(out)
    assert doc["result"]["skeleton"] == [
        {"position": 0, "flip": 6},
        {"position": 5, "flip": 7},
        {"position": 7, "flip": 5},
        {"position": 14, "flip": 10},
    ]


def test_hereditary_command(capsys, sphere_points):
    code, out, _ = run(
        capsys, "--json-only", "hereditary",
        "--path", f"{DATA}/sphere3b_path.json",
        "--cone", f"{DATA}/sphere3b_cone.json",
        "--stable", sphere_points["eps_stab"],
    )
    doc = json.loads(out)
    assert code == 0 and doc["result"]["passes"] is True


def test_duality_check_command(capsys):
    code, out, _ = run(
        capsys, "--json-only", "duality-check",
        "--count", "25", "--rank", "4", "--length", "6", "--seed", "7",
    )
    doc = json.loads(out)
    assert code == 0 and doc["result"]["ok"] is True
    assert doc["result"]["rng_seed"] == 7


def test_pants_and_annulus_commands(capsys):
    code, out, _ = run(
        capsys, "--json-only", "pants", "--m1", "2", "--m2", "1", "--m3", "1",
    )
    doc = json.loads(out)
    assert doc["result"]["measures"] == {
        "e11": 0, "e12": 1, "e13": 1, "e22": 0, "e23": 0, "e33": 0,
    }
    assert doc["result"]["triangle_regime"] is True
    code, out, _ = run(capsys, "--json-only", "annulus", "--m", "-3", "--t", "-2")
    assert json.loads(out)["result"] == {"family": "+", "e1": 3, "e2": 2}


def test_track_validate_command(capsys, tmp_path):
    track = tmp_path / "track.json"
    track.write_text(json.dumps({
        "edges": ["e0", "e1", "e2"],
        "switches": [["e0", ["e1", "e2"]]],
        "boundary": [],
    }))
    code, out, _ = run(
        capsys, "--json-only", "track-validate",
        "--track", str(track), "--measure", '{"e0": "2", "e1": "1", "e2": "1"}',
    )
    assert json.loads(out)["result"]["ok"] is True


def test_freeze_command(capsys, tmp_path):
    seed_file = tmp_path / "seed.json"
    seed_file.write_text(json.dumps(
        {"n": 3, "unfrozen": [0, 1, 2],
         "B": [[0, 1, 0], [-1, 0, 1], [0, -1, 0]]}
    ))
    code, out, _ = run(
        capsys, "--json-only", "freeze",
        "--seed", str(seed_file), "--freeze", "1,2",
    )
    assert json.loads(out)["result"]["seed"]["unfrozen"] == [0]


def test_stable_sign_command(capsys):
    code, out, _ = run(
        capsys, "--json-only", "stable-sign",
        "--path", f"{DATA}/kron3_path.json", "--point", "[2,-1]",
        "--iters", "8",
    )
    doc = json.loads(out)
    assert doc["result"]["stable"] == "+"
    assert doc["result"]["empirical"] is True


@pytest.mark.parametrize("path, point", [
    ("kron3_path.json", [1, 0]),
    ("sphere3b_path.json", "L_plus"),  # a point of sphere3b_points.json
])
def test_stable_sign_is_the_orbit_report_without_its_rows(capsys, data_dir,
                                                          path, point):
    if isinstance(point, str):
        points = json.loads((data_dir / "sphere3b_points.json").read_text())
        point = points[point]
    argv = ["--path", str(data_dir / path), "--point", json.dumps(point),
            "--iters", "30", "--window", "10"]
    docs = {}
    for command in ("orbit", "stable-sign"):
        code, out, _ = run(capsys, "--json-only", command, *argv)
        assert code == 0
        docs[command] = json.loads(out)
        assert docs[command]["command"] == command
    orbit, stable = docs["orbit"], docs["stable-sign"]
    assert stable["inputs"] == orbit["inputs"]
    del orbit["result"]["iterations"], orbit["result"]["stabilization_index"]
    assert stable["result"] == orbit["result"]


def test_orbit_window_validation(capsys):
    code = main(["--json-only", "orbit", "--path", f"{DATA}/kron3_path.json",
                 "--point", "[1,0]", "--iters", "4", "--window", "9"])
    assert code == 2


def test_stable_sign_needs_a_full_window(capsys):
    """One lap is shorter than the default window of 2: no sign, weak or
    strict, is read off it, as --iters 1 --window 2 is refused outright."""
    code, out, _ = run(capsys, "--json-only", "stable-sign",
                       "--path", f"{DATA}/kron3_path.json", "--point", "[1,0]",
                       "--iters", "1")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["window"] == 2
    assert result["stable"] is None
    assert result["weak_stable"] == "0"
    assert result["weak_all_zero"] is True
    code = main(["--json-only", "stable-sign", "--path", f"{DATA}/kron3_path.json",
                 "--point", "[1,0]", "--iters", "1", "--window", "2"])
    assert code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "--json-only", "stable-sign",
                       "--path", f"{DATA}/kron3_path.json", "--point", "[1,0]",
                       "--iters", "2")
    assert code == 0
    assert json.loads(out)["result"]["weak_stable"] == "+"


# sha256 of the sphere3b `signs-enumerate` report, recorded before the sign
# tree kept its empty-cone multipliers: pruning by a kept multiplier must
# leave every sign, witness and byte of the report as it was
SPHERE3B_ENUMERATION_SHA256 = (
    "22e855e0f8d0a2e9f32e7d3198a5f8517fac7f03319ca35e3b3013e157509247"
)


# sha256 of orbit reports: l_plus recorded while points still walked in
# Fraction and QuadExt arithmetic, L_plus since scalars render by value
# (an integer-valued coordinate of a Q(sqrt 5) point is a JSON integer);
# orbit rows normalized by a coordinate with b = 0 or b != 0 alike
SPHERE3B_ORBIT_SHA256 = {
    "l_plus": "a740fab7d1e16060c718c6930085d2a913b45ad8c9532bb4c5c8f214e41a1fa0",
    "L_plus": "0d1764c18df8aef0a21bacf98c8671bb3fae6c4831c7baf1b3ca648c3b83fc64",
}
# rational coordinates and Q(sqrt 5) ones, some of them with b = 0
MIXED_POINT = ["2", 0, "1/2-1/2*sqrt(5)", "-3", "1+0*sqrt(5)", "sqrt(5)", -1,
               "1/3", 0, "-2+sqrt(5)", 4, "-1/2*sqrt(5)"]
MIXED_TRANSPORT_SHA256 = (
    "630b6ba236177069b202fc774eee2f589a26c68c423aa4d53acdd64b6b73538c"
)


@pytest.mark.parametrize("label", sorted(SPHERE3B_ORBIT_SHA256))
def test_sphere3b_orbit_report_is_pinned(capsys, data_dir, label):
    points = json.loads((data_dir / "sphere3b_points.json").read_text())
    code, out, _ = run(capsys, "--json-only", "orbit",
                       "--path", f"{DATA}/sphere3b_path.json",
                       "--point", json.dumps(points[label]),
                       "--iters", "40")
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == SPHERE3B_ORBIT_SHA256[label]


# sha256 of the sphere3b orbit report from L_minus over 200 laps, recorded
# while every lap was still walked: L_minus is a projective fixed point,
# so the orbit now walks 2 laps and replays the rest
SPHERE3B_PERIODIC_ORBIT_SHA256 = (
    "af44727a5758b929aaa7b1ebea2a90651fbda1add45239fc101d408a800008d7"
)


def test_sphere3b_periodic_orbit_report_is_pinned(capsys, data_dir):
    points = json.loads((data_dir / "sphere3b_points.json").read_text())
    code, out, _ = run(capsys, "--json-only", "orbit",
                       "--path", f"{DATA}/sphere3b_path.json",
                       "--point", json.dumps(points["L_minus"]),
                       "--iters", "200")
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == SPHERE3B_PERIODIC_ORBIT_SHA256


def test_mixed_point_transport_trace_is_pinned(capsys):
    code, out, _ = run(capsys, "--json-only", "transport",
                       "--path", f"{DATA}/sphere3b_path.json",
                       "--point", json.dumps(MIXED_POINT), "--trace")
    assert code == 0
    intermediates = json.loads(out)["result"]["intermediates"]
    assert 2 in intermediates[5] and -1 in intermediates[5]
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == MIXED_TRANSPORT_SHA256


def test_scalars_render_by_value(capsys):
    """A coordinate with b = 0 renders like the rational of its value."""
    docs = []
    for point in ('["1","-1"]', '["1+0*sqrt(5)","-1"]'):
        code, out, _ = run(capsys, "--json-only", "transport",
                           "--path", f"{DATA}/kron3_path.json",
                           "--point", point, "--trace")
        assert code == 0
        docs.append(json.loads(out))
    rational, quadratic = docs
    assert quadratic["inputs"]["point"] == rational["inputs"]["point"] == [1, -1]
    assert quadratic["result"] == rational["result"]
    assert rational["result"]["final"] == [2, -1]


# sha256 of reports recorded while B still moved by a whole-matrix
# mutate_b per flip and compatibility was read off exact Fraction/QuadExt
# coordinates: the in-place walk of B and the sign-based compatibility
# must leave every byte as it was (the first mutate report is an error at
# the frozen index 6, after two flips)
SPHERE3B = ["--path", f"{DATA}/sphere3b_path.json",
            "--cone", f"{DATA}/sphere3b_cone.json"]
ANNULUS_SEED = ["--seed", f"{DATA}/annulus_seed.json"]
B_WALK_REPORTS = [
    pytest.param(["compat", *SPHERE3B, "--trace"], 0,
                 "027b49dd710721135dc82e9698eb53e2e8ab7dd6660cce0b08a1d7e45f9740e5",
                 id="compat-trace"),
    pytest.param(["skeleton", *SPHERE3B], 0,
                 "dc1c771a4d640e7c7a4c4ed912ce1cf0e234f53590d8a4a684f1d9d10491eca9",
                 id="skeleton"),
    pytest.param(["hereditary", *SPHERE3B, "--stable", "+++00-+--+00-+++"], 0,
                 "7cd516a37c1ecba0e6b1b1fb6d9048dd209ba2bb38781e90f4955976feca4e21",
                 id="hereditary"),
    pytest.param(["mutate", *ANNULUS_SEED, "--k", "0,1,6,3"], 1,
                 "b32ed72d7183d5bf09a0f735bf46672fab0e94b73375c225a463d88e32a361dc",
                 id="mutate-frozen"),
    pytest.param(["mutate", *ANNULUS_SEED, "--k", "0,1"], 0,
                 "aeb5e5bf7127f9d74d7987f6e4f7aab3c213045e9bb9e48e26b0ff90941b8215",
                 id="mutate"),
]


@pytest.mark.parametrize("argv,want_code,want_sha256", B_WALK_REPORTS)
def test_b_walk_reports_are_pinned(capsys, argv, want_code, want_sha256):
    code, out, _ = run(capsys, "--json-only", *argv)
    assert code == want_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want_sha256


# sha256 of `stretch --candidate` reports, recorded while polynomials were
# still evaluated by Horner's rule in Fraction and QuadExt arithmetic: the
# one integer Horner pass must leave every byte as it was, an accepted
# candidate's and a rejected one's
STRETCH_REPORTS = [
    pytest.param("sphere3b_path.json", "+++00-+--+00-+++", "3/2+1/2*sqrt(5)",
                 "f6fc60ea630ea18a61dfec0ef5a065e5a0639bf1a903325498a88c33e62c07cf",
                 id="sphere3b"),
    pytest.param("kron3_path.json", "+", "3/2+1/2*sqrt(5)",
                 "191bca86c53aa9d29afe5db8e5f75e54f0e19861c4fc50fbf7cfc951aedfd5c5",
                 id="kron3"),
    pytest.param("sphere3b_path.json", "+++00-+--+00-+++", "2",
                 "f6820ec91a541e087068603a25fc18602fdf022c10374e0d7f59870457f6cd37",
                 id="sphere3b-rejected"),
]


@pytest.mark.parametrize("path,stable,candidate,want_sha256", STRETCH_REPORTS)
def test_stretch_reports_are_pinned(capsys, path, stable, candidate,
                                    want_sha256):
    code, out, _ = run(capsys, "--json-only", "stretch",
                       "--path", f"{DATA}/{path}", "--stable", stable,
                       "--candidate", candidate)
    assert code == 0
    assert json.loads(out)["result"]["exact_verified"] is (candidate != "2")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want_sha256


RADICAND_MISMATCH_REPORT = (
    '{\n  "error": "RadicandMismatchError",\n'
    '  "message": "cannot mix sqrt(5) with sqrt(2)",\n'
    '  "schema_version": 1\n}\n'
)


@pytest.mark.parametrize("command", ["orbit", "sign", "transport"])
@pytest.mark.parametrize("point", [
    '["sqrt(2)", "sqrt(5)"]',  # the radicands meet at the first flip
    '["-sqrt(2)", "sqrt(5)"]',  # sign and transport never mix them
])
def test_mixed_radicands_rejected_before_the_walk(capsys, command, point):
    code, out, err = run(capsys, "--json-only", command,
                         "--path", f"{DATA}/kron3_path.json", "--point", point)
    assert (code, out, err) == (1, RADICAND_MISMATCH_REPORT, "")


def test_sphere3b_enumeration_report_is_pinned(sphere_enumeration):
    code, out, _ = sphere_enumeration
    assert code == 0
    assert json.loads(out)["result"]["count"] == 4772
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == SPHERE3B_ENUMERATION_SHA256


def _readme_commands():
    """The `signstab ...` lines of README's `## Command line` block."""
    text = (SRC.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    lines = re.sub(r"\s*\\\n\s*", " ", block.split("```", 1)[0]).splitlines()
    commands = [line for line in lines if line.startswith("signstab ")]
    if not commands:
        raise ValueError("no example commands found in README.md")
    return commands


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_commands_run(capsys, monkeypatch, line):
    monkeypatch.chdir(SRC.parent)
    code, out, err = run(capsys, "--json-only", *shlex.split(line)[1:])
    assert (code, err) == (0, "")
    json.loads(out)


@pytest.mark.parametrize("argv, want_code", [
    *[pytest.param(shlex.split(line)[1:], 0, id=line.split()[1])
      for line in _readme_commands()],
    pytest.param(["sign", "--path", f"{DATA}/a2_path.json", "--point", "[1]"],
                 1, id="domain-error"),
    pytest.param(["orbit", "--path", f"{DATA}/kron3_path.json", "--point",
                  "[1,0]", "--iters", "2", "--window", "3"], 2,
                 id="handler-usage-error"),
    pytest.param(["orbit", "--path", f"{DATA}/kron3_path.json", "--point",
                  "[1,0]", "--iters", "0"], 2, id="parser-usage-error"),
])
def test_writer_matches_json_dumps_on_cli_reports(capsys, monkeypatch, argv,
                                                  want_code):
    """Each README example's report and an error report of each exit code,
    checked against json.dumps on the very document the command wrote."""
    monkeypatch.chdir(SRC.parent)
    written = []
    render_json = sio.render_json

    def record(doc):
        written.append((doc, render_json(doc)))
        return written[-1][1]

    monkeypatch.setattr(sio, "render_json", record)
    try:
        code = main(["--json-only", *argv])
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    [(doc, text)] = written
    assert (code, capsys.readouterr().out) == (want_code, text)
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_signs_enumerate_writes_each_sign_once(capsys, monkeypatch):
    import signstab.cli
    calls = []
    sign_str = signstab.cli.sign_str
    monkeypatch.setattr(signstab.cli, "sign_str",
                        lambda s: calls.append(s) or sign_str(s))
    code, out, _ = run(capsys, "--json-only", "signs-enumerate",
                       "--path", f"{DATA}/a2_path.json")
    result = json.loads(out)["result"]
    assert code == 0 and len(calls) == result["count"] == 5
    assert set(result["witnesses"]) == set(result["signs"])


def run_fresh(code):
    """Run `code` in a fresh interpreter that imports signstab from src, and
    fail with its stderr unless it exits 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, cwd=SRC.parent, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_numpy_is_imported_only_for_a_radius():
    """A float radius was the only use numpy ever had; it is computed in
    Python now, so with numpy importable no command, a radius included,
    loads it."""
    code = f"""
import io, sys, contextlib
import signstab
assert "numpy" not in sys.modules, "import signstab loaded numpy"
from signstab.cli import main
def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--json-only", *argv]) == 0
run("orbit", "--path", {DATA!r} + "/kron3_path.json", "--point", "[1,0]",
    "--iters", "4")
assert "numpy" not in sys.modules, "orbit loaded numpy"
run("charpoly", "--matrix", "[[3,1],[-1,0]]")
assert "numpy" not in sys.modules, "charpoly's radius loaded numpy"
"""
    run_fresh(code)


def test_no_command_loads_numpy():
    """The engine has no dependency: with every `import numpy` recorded and
    made to fail, the import, the orbit, a float radius (quadratic and
    linear square-free parts) and the stretch table all run, and none of
    them so much as tries to import numpy."""
    code = f"""
import io, sys, contextlib
tried = []
class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            tried.append(name)
            raise ImportError("numpy is blocked")
sys.meta_path.insert(0, NoNumpy())
import signstab
from signstab.cli import main
def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--json-only", *argv]) == 0, argv
run("orbit", "--path", {DATA!r} + "/kron3_path.json", "--point", "[1,0]",
    "--iters", "4")
run("charpoly", "--matrix", "[[3,1],[-1,0]]")
run("charpoly", "--matrix", "[[2,1],[0,2]]")
run("stretch", "--path", {DATA!r} + "/sphere3b_path.json",
    "--stable", "+++00-+--+00-+++", "--candidate", "3/2+1/2*sqrt(5)")
assert not tried, tried
"""
    run_fresh(code)


def test_sphere3b_stretch_report_is_the_same_from_a_warm_cache(capsys):
    from signstab.stability import char_poly, root_radius

    argv = ("--json-only", "stretch", "--path", f"{DATA}/sphere3b_path.json",
            "--stable", "+++00-+--+00-+++", "--candidate", "3/2+1/2*sqrt(5)")
    char_poly.cache_clear()
    root_radius.cache_clear()
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first[0] == 0 and json.loads(first[1])["result"]["exact_verified"]
    assert second == first
    info = char_poly.cache_info()  # the second call computed no polynomial
    assert (info.misses, info.hits) == (16, 16)


def test_import_loads_no_dataclasses_or_inspect():
    """Every command starts in a fresh process, so the import is paid on
    every run: `dataclasses` and the `inspect` it pulls in (with `ast`,
    `dis` and `tokenize`) cost over a third of it, and the engine's record
    classes need neither."""
    code = """
import sys
before = set(sys.modules)
import signstab.cli
added = set(sys.modules) - before
assert "signstab.cli" in added
slow = sorted(added & {"dataclasses", "inspect"})
assert not slow, slow
"""
    run_fresh(code)


PUBLIC_NAMES = """
BlockReport Cone DTCoords DimensionMismatchError Flip FormatError
FrozenIndexError HereditaryReport IntPoly LoopRequiredError MagnitudeError
MutationPath NonStrictSignError NotRealizableError OrbitReport Permute QuadExt
RadicandMismatchError Rational Scalar Seed SignCoherenceError SignSeq
SignstabError SplitViolationError StretchReport TrainTrack Triangulation
TropPoint UsageError annulus_solve apply_perm b_from_triangulation
block_structure_check c_matrix canonical_cone_membership cg_matrices char_poly
cone_sign_caveat detect_stable_sign detect_weak_stable_sign edge_compatibility
edge_matrix enumerate_realizable_signs
enumerate_realizable_signs_with_witnesses errors feasibility format_scalar
freeze g_matrix generator_coordinate_trace hereditary_check in_triangle_regime
is_loop is_strict iterate_orbit matrices mutate_b pants_boundary_sums
pants_measures parse_scalar parse_sign_str permutation_factor_check pos_part
presentation_matrix_at_point presentation_matrix_for_sign project_point
realizable_branches reduced_subsequence reduction scalar_sign scalars
seeds seeds_along sign_geq sign_of_path sign_str spectral_radius stability
stretch_factor traintrack transport trop_mutate tropical validate_measure
verify_eigenpair
""".split()


def test_imports_load_only_what_they_use():
    """The package namespace imports each name on first use, and io imports
    no engine module to load a path or a point; every public name, and
    `from signstab import *`, still give what they gave when the namespace
    imported everything up front."""
    code = f"""
import sys
def loaded():
    return {{m for m in sys.modules if m.partition(".")[0] == "signstab"}}
import signstab
assert loaded() == {{"signstab"}}, sorted(loaded())
import signstab.io
want = {{"signstab", "signstab.errors", "signstab.scalars", "signstab.matrices",
        "signstab.seeds", "signstab.io"}}
assert loaded() == want, sorted(loaded())
assert signstab.reduction is sys.modules["signstab.reduction"]
try:
    signstab.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("signstab.no_such_name resolved")
from signstab import cli
assert cli is sys.modules["signstab.cli"]
names = {{}}
exec("from signstab import *", names)
names.pop("__builtins__")
assert sorted(names) == {sorted(PUBLIC_NAMES)!r}, sorted(names)
for name in signstab.__all__:
    assert getattr(signstab, name) is names[name], name
    assert name in dir(signstab), name
"""
    run_fresh(code)
