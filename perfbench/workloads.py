"""The four benchmark workloads and the checks on their outputs.

A workload turns the benchmark's seed into a fixed batch of operations.
Each operation drives the engine from outside, through ``signstab.cli.main``
with stdout captured or through a public library call, and its output is
checked against the reference data in ``reference.json``.  Only the public
signstab API is used; nothing comes from the repository's tests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Any, Callable

import signstab
import signstab.cli
import signstab.io
import signstab.reduction


class CheckFailed(Exception):
    """An operation returned, but its output disagrees with the reference."""


@dataclass
class Op:
    label: str
    tag: str  # groups spans by kind of input ("rational", "quadratic")
    run: Callable[[], Any]
    check: Callable[[Any], None]


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def run_cli(argv):
    """signstab.cli.main(argv) with stdout captured: (exit code, report)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = signstab.cli.main(["--json-only", *argv])
    return code, buf.getvalue()


def parse_report(out):
    code, text = out
    expect(code == 0, f"exit code {code}: {text[:200]!r}")
    return json.loads(text)["result"]


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def strict_completions(stable):
    """Every strict sign string that agrees with `stable` where it is strict."""
    slots = [c if c != "0" else "+-" for c in stable]
    return ["".join(p) for p in product(*slots)] if stable else []


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int, ref: dict, smoke: bool):
        self.root = root
        self.seed = seed
        self.size = "smoke" if smoke else "full"
        self.digests = {}  # op label -> report digest of its first run

    def batch(self) -> list[Op]:
        raise NotImplementedError

    def input_files(self) -> list[Path]:
        """Files a fresh process loads before the first operation."""
        return []

    def same_as_before(self, label, text):
        """Identical inputs must give byte-identical reports."""
        digest = sha256(text)
        first = self.digests.setdefault(label, digest)
        expect(digest == first, f"{label}: report bytes differ between runs "
                                "of the same input")


class Enumerate(Workload):
    """signs-enumerate on the twelve-arc sphere3b loop (16 flips)."""

    name = "enumerate"

    def __init__(self, root, seed, ref, smoke):
        super().__init__(root, seed, ref, smoke)
        self.ref = ref["enumerate"][self.size]
        self.path_file = root / self.ref["path"]
        self.path = signstab.io.load_path(self.path_file)
        self.argv = ["signs-enumerate", "--path", str(self.path_file),
                     "--seed", str(seed)]

    def input_files(self):
        return [self.path_file]

    def batch(self):
        return [Op("enumerate", "", lambda: run_cli(self.argv), self.check)]

    def check(self, out):
        result = parse_report(out)
        signs = sorted(result["signs"])
        expect(len(signs) == self.ref["count"],
               f"{len(signs)} signs, expected {self.ref['count']}")
        expect(sha256("\n".join(signs)) == self.ref["sha256"],
               "sorted sign set does not match the reference digest")
        found = set(signs)
        for eps in strict_completions(self.ref["completions_of"]):
            expect(eps in found, f"strict completion {eps} missing")
        rng = random.Random(self.seed)
        for eps in rng.sample(signs, min(self.ref["witness_sample"], len(signs))):
            w = signstab.io.point_from_obj(result["witnesses"][eps])
            got = signstab.sign_str(signstab.sign_of_path(self.path, w))
            expect(got == eps, f"witness of {eps} has sign {got}")
        self.same_as_before("enumerate", out[1])


class Stretch(Workload):
    """stretch --candidate on sphere3b: 16 completions, exact certificate."""

    name = "stretch"

    def __init__(self, root, seed, ref, smoke):
        super().__init__(root, seed, ref, smoke)
        self.ref = ref["stretch"][self.size]
        self.path_file = root / self.ref["path"]
        self.argv = ["stretch", "--path", str(self.path_file),
                     "--stable", self.ref["stable"],
                     "--candidate", self.ref["candidate"]]

    def input_files(self):
        return [self.path_file]

    def batch(self):
        # three identical operations, so a batch spans several speed samples
        return [Op("stretch", "", lambda: run_cli(self.argv), self.check)
                for _ in range(1 if self.size == "smoke" else 3)]

    def check(self, out):
        r = parse_report(out)
        ref = self.ref
        expect(r["exact_verified"] is ref["exact_verified"], "exact_verified")
        expect(r["radii_all_equal"] is ref["radii_all_equal"], "radii_all_equal")
        expect(r["exact_value"] == ref["exact_value"],
               f"exact_value {r['exact_value']!r}")
        expect(len(r["table"]) == ref["rows"], f"{len(r['table'])} table rows")
        expect(sorted(row["sign"] for row in r["table"])
               == sorted(strict_completions(ref["stable"])),
               "table signs are not the strict completions")
        expect(abs(r["lambda"] - ref["lambda"]) <= 1e-9, f"lambda {r['lambda']}")
        self.same_as_before("stretch", out[1])


class Orbit(Workload):
    """orbit on sphere3b from l_plus, l_minus (rational) and L_plus (Q(sqrt 5)).

    Each start point is scaled by a seeded positive rational; the orbit
    normalizes after every lap, so the reference sign rows still apply.
    """

    name = "orbit"

    def __init__(self, root, seed, ref, smoke):
        super().__init__(root, seed, ref, smoke)
        self.ref = ref["orbit"]
        self.path_file = root / self.ref["path"]
        self.points_file = root / self.ref["points"]
        self.iters = self.ref["iterations"][self.size]
        with open(self.points_file, encoding="utf-8") as fh:
            raw = json.load(fh)
        rng = random.Random(seed)
        self.points = {}
        for label in ("l_plus", "l_minus", "L_plus"):
            c = Fraction(rng.randint(1, 99), rng.randint(1, 99))
            w = signstab.io.point_from_obj(raw[label])
            self.points[label] = json.dumps(
                [signstab.io.coord_json(c * x) for x in w])

    def input_files(self):
        return [self.path_file, self.points_file]

    def batch(self):
        ops = []
        for label, point in self.points.items():
            argv = ["orbit", "--path", str(self.path_file), "--point", point,
                    "--iters", str(self.iters)]
            tag = "quadratic" if "sqrt" in point else "rational"
            ops.append(Op(label, tag, lambda argv=argv: run_cli(argv),
                          lambda out, label=label: self.check(label, out)))
        return ops

    def check(self, label, out):
        rows = parse_report(out)["iterations"]
        expect(len(rows) == self.iters, f"{label}: {len(rows)} rows")
        signs = [row["sign"] for row in rows]
        leading = self.ref["leading_rows"].get(label)
        if leading is not None:
            expect(signs[:len(leading)] == leading[:len(signs)],
                   f"{label}: leading sign rows differ from the reference")
        every = self.ref["every_row"].get(label)
        if every is not None:
            expect(all(s == every for s in signs),
                   f"{label}: a lap leaves the stable sign {every}")
        self.same_as_before(label, out[1])


def block_loops(seed, count):
    """Random frozen-block loops: (path, frozen-out indices) pairs.

    Acceptance criterion 12's distribution: 30% are a Kronecker pair (flip
    then swap) beside a frozen K pair; the rest are rank 3-5 seeds with
    entries in [-2, 2] and a palindromic loop of 1-3 flips and their mirror
    inside J = the first 2..n-1 indices.  The loop kinds and half-lengths are
    stratified (exact shares in a seeded order) rather than drawn one by
    one: the sampling work of a loop grows as 2**flips, so independent draws
    would make one seed's batch cost half again as much as another's.
    """
    rng = random.Random(seed)
    kron = round(0.3 * count)
    shapes = [0] * kron + [1 + i % 3 for i in range(count - kron)]
    rng.shuffle(shapes)
    loops = []
    for half_len in shapes:
        if half_len == 0:
            ell, ck = rng.randint(2, 4), rng.randint(1, 4)
            b = [[0, -ell, 0, 0], [ell, 0, 0, 0], [0, 0, 0, -ck], [0, 0, ck, 0]]
            steps = (signstab.Flip(0), signstab.Permute((1, 0, 2, 3)))
            loops.append((signstab.MutationPath(signstab.Seed(b, frozenset(range(4))),
                                                steps), (2, 3)))
            continue
        n = rng.randint(3, 5)
        j_count = rng.randint(2, n - 1)
        b = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                b[i][j] = rng.randint(-2, 2)
                b[j][i] = -b[i][j]
        half = [rng.randrange(j_count) for _ in range(half_len)]
        steps = tuple(signstab.Flip(k) for k in half + half[::-1])
        loops.append((signstab.MutationPath(signstab.Seed(b, frozenset(range(n))), steps),
                      tuple(range(j_count, n))))
    return loops


class Block(Workload):
    """block_structure_check on a batch of random frozen-block loops."""

    name = "block"

    def __init__(self, root, seed, ref, smoke):
        super().__init__(root, seed, ref, smoke)
        self.ref = ref["block"]
        self.loops = block_loops(seed, self.ref["loops"][self.size])
        self.signs = {}

    def batch(self):
        return [Op(f"loop{i}", "", lambda p=path, k=frozen: self.run(p, k),
                   lambda rep, i=i: self.check(i, rep))
                for i, (path, frozen) in enumerate(self.loops)]

    def run(self, path, frozen):
        return signstab.reduction.block_structure_check(
            path, frozen, tolerance=self.ref["max_radius_diff"], rng_seed=self.seed)

    def check(self, i, rep):
        expect(rep.zero_block_exact, f"loop {i}: (J, K) block is not zero")
        expect(rep.max_radius_diff <= self.ref["max_radius_diff"],
               f"loop {i}: radius difference {rep.max_radius_diff}")
        first = self.signs.setdefault(i, rep.sign_count)
        expect(rep.sign_count == first, f"loop {i}: sign count changed between runs")


WORKLOAD_CLASSES = {w.name: w for w in (Enumerate, Stretch, Orbit, Block)}
