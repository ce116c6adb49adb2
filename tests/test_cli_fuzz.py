"""Bounded fuzz test of the command line.

Each argv is drawn from the parser's own subcommand table: a subcommand,
its required flags (now and then one is dropped), some of its optional
flags, all in any order, sometimes a stray token, and --json-only or not.
A flag's value is either a plausible one for its name or any entry of a
pool of the small files in tests/data and of bad literal values.  Each
example runs ``python -m signstab`` in a fresh process, so what is checked
is what a user sees: a JSON report on stdout, exit code 0, 1 or 2, no
traceback, and nothing on stderr under --json-only.

Left out of the draw: sphere3b's path, so that no example enumerates its
4,772 signs, and ``--help``, which prints help text by design.  ``-o``
only names targets that cannot be written, so that no example writes a
file.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from signstab.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

FILES = sorted(
    f"tests/data/{p.name}" for p in DATA.glob("*.json")
    if p.name != "sphere3b_path.json"
) + ["tests/data/missing.json", "tests/data"]

LITERALS = [
    "0", "1", "2", "7", "-3", "1/2", "0.5", "1e3", "abc", "",
    "+", "-", "+-", "++-", "+0-", "+x",
    "3/2+1/2*sqrt(5)", "sqrt(2)", "1/0",
    "[1,1]", "[1,0]", "[5]", "[0,0]", "[]", "[1,", "null", "true",
    "[[3,1],[-1,0]]", "[[1,2],[3]]", "[[0]]",
    '{"e0": "2", "e1": "1", "e2": "1"}', '{"coords": ["1", "0"]}', "{}",
    "0,1", "1,x",
]


# plausible values by flag name, so that many examples get past parsing
PLAUSIBLE = {
    "path": ["tests/data/a2_path.json", "tests/data/kron3_path.json",
             "tests/data/empty_path.json"],
    "point": ["[1,1]", "[1,0]", "[2,-1]", '["3/2+1/2*sqrt(5)", "-1"]'],
    "seed": ["tests/data/annulus_seed.json", "0", "5"],
    "cone": ["tests/data/annulus_cone.json", "tests/data/sphere3b_cone.json"],
    "sign": ["+", "-", "++-", "+-+"],
    "stable": ["+", "-", "0", "+0-"],
    "k": ["0", "0,1", "1"],
    "freeze": ["0", "1,2"],
    "matrix": ["[[3,1],[-1,0]]", "[[1,1],[0,1]]", '[["1/2",1],[0,2]]'],
    "candidate": ["3/2+1/2*sqrt(5)", "1"],
    "eigenvalue": ["3/2+1/2*sqrt(5)", "1/2"],
    "vector": ['["3/2+1/2*sqrt(5)", "-1"]', "[1,0]"],
    "radicand": ["5", "2"],
    "measure": ['{"e0": "2", "e1": "1", "e2": "1"}'],
}
SMALL_INTS = ["2", "3", "5"]
UNWRITABLE = ["tests/data", "tests/data/missing/report.json"]


def _subcommands():
    """{subcommand: [(flag, dest, takes no value, required)]} from the
    parser itself."""
    parser = build_parser()
    table = next(a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction))
    return {
        name: [(a.option_strings[-1], a.dest, a.nargs == 0, a.required)
               for a in sub._actions
               if a.option_strings and not isinstance(a, argparse._HelpAction)]
        for name, sub in table.choices.items()
    }


TABLE = _subcommands()
POOL = st.sampled_from(FILES + LITERALS)


def one_in(n):
    """True about once in n draws (False is the simple value to shrink to)."""
    return st.sampled_from(range(n)).map(lambda k: k == n - 1)


@st.composite
def command_lines(draw):
    name = draw(st.sampled_from(sorted(TABLE)))
    flags = [f for f in TABLE[name] if f[3] and not draw(one_in(10))]
    optional = [f for f in TABLE[name] if not f[3]]
    if optional:
        flags += draw(st.lists(st.sampled_from(optional), unique=True))
    argv = [name]
    for flag, dest, no_value, _ in draw(st.permutations(flags)):
        argv.append(flag)
        if no_value:
            continue
        if not draw(one_in(4)):
            argv.append(draw(st.sampled_from(PLAUSIBLE.get(dest, SMALL_INTS))))
        else:
            argv.append(draw(POOL))
    if draw(one_in(5)):
        argv.append(draw(st.one_of(POOL, st.just("--bogus"))))
    json_only = draw(st.booleans())
    head = ["--json-only"] if json_only else []
    if draw(one_in(4)):
        head += ["-o", draw(st.sampled_from(UNWRITABLE))]
    return json_only, head + argv


@settings(max_examples=60, deadline=None, derandomize=True)
@given(command_lines())
def test_command_line_never_crashes(case):
    json_only, argv = case
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    run = subprocess.run([sys.executable, "-m", "signstab", *argv],
                         capture_output=True, text=True, cwd=ROOT, env=env,
                         timeout=120)
    assert "Traceback" not in run.stderr, run.stderr
    assert run.returncode in (0, 1, 2), run.stderr
    json.loads(run.stdout)
    if json_only:
        assert run.stderr == ""
