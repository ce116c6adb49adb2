"""Command-line front end.

Every subcommand handler reads the declared JSON formats, runs the engine
and returns ``(inputs, result, summary)``.  :func:`main` renders them as a
deterministic JSON report (schema_version, command, resolved inputs,
result) under the command name the parser registered, writes it to stdout
and to the -o file, and prints the one-line human summary on stderr
unless --json-only is given.  Exit codes: 0 success, 1 domain error, 2
usage.  Errors of both kinds are JSON reports on stdout too.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import io as sio
from .errors import (FormatError, RadicandMismatchError, SignstabError,
                     UsageError)
from .matrices import identity, mat_mul, transpose
from .reduction import (
    compatibility,
    freeze,
    generator_coordinate_trace,
    hereditary_check,
    reduced_subsequence,
)
from .scalars import (ECHO_LIMIT, MAX_RADICAND, QuadExt, echo, parse_scalar,
                      square_free_split)
from .seeds import (
    Flip,
    MutationPath,
    Permute,
    Seed,
    cg_matrices,
    mutate_b,
)
from .stability import (
    char_poly,
    enumerate_realizable_signs_with_witnesses,
    iterate_orbit,
    root_radius,
    stretch_factor,
    verify_eigenpair,
)
from .traintrack import (
    annulus_solve,
    in_triangle_regime,
    pants_boundary_sums,
    pants_measures,
    validate_measure,
)
from .tropical import (
    parse_sign_str,
    presentation_matrix_at_point,
    presentation_matrix_for_sign,
    sign_of_path,
    sign_str,
    transport,
)


def _inline_or_file(text: str, flag: str):
    """The JSON value of a flag given inline or as a file name."""
    text = text.strip()
    if not text:  # Path("") is the current directory
        raise FormatError(f"{flag}: empty value, need inline JSON or a file")
    if text.startswith("[") or text.startswith("{"):
        return sio.decode_json(text, f"inline {flag}")
    return sio.load_json(Path(text))


def _point_arg(text: str, flag: str = "--point"):
    return sio.point_from_obj(_inline_or_file(text, flag), where=flag)


def _matrix_arg(text: str):
    return sio.matrix_from_obj(_inline_or_file(text, "--matrix"), where="--matrix")


def _scalar_arg(text: str, flag: str):
    """The exact scalar of a flag; a bad literal is a FormatError naming the
    flag."""
    try:
        return parse_scalar(text)
    except FormatError as exc:
        raise FormatError(f"{flag}: {exc}") from exc


def _rational_arg(text: str, flag: str) -> Fraction:
    value = _scalar_arg(text, flag)
    if not isinstance(value, Fraction):
        raise FormatError(f"{flag} must be rational, got {echo(text)}")
    return value


def _write(args, text: str) -> None:
    """Write a report, success or error, to the -o file and to stdout.  A
    file that cannot be written is a UsageError, before stdout is touched."""
    if args.output:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"-o: cannot write {args.output}: {exc}") from exc
    sys.stdout.write(text)


def _matrix_json(m):
    return [list(row) for row in m]


def _point_json(w):
    return [sio.coord_json(x) for x in w]


# -- subcommand handlers ---------------------------------------------------------
#
# Each handler returns (inputs, result, summary); main() writes the report,
# then the summary: a string, or a callable that forms it.


def cmd_mutate(args):
    seed = sio.load_seed(args.seed)
    out = seed
    ks = _int_list(args.k, "--k")
    for k in ks:
        out = mutate_b(out, k)
    return ({"seed": sio.seed_to_obj(seed), "k": ks},
            {"seed": sio.seed_to_obj(out)},
            f"mutated at {args.k}")


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(t) for t in str(text).replace(",", " ").split()]
    except ValueError:
        raise FormatError(
            f"{flag} must be a comma list of integers, got {echo(text)}"
        ) from None


def cmd_transport(args):
    path = sio.load_path(args.path)
    w = _point_arg(args.point)
    final, mids = transport(path, w)
    result = {"final": _point_json(final)}
    if args.trace:
        result["intermediates"] = [_point_json(m) for m in mids]
    # formed after the report renders, which rejects an integer past the
    # int-to-text digit limit
    return ({"path": sio.path_to_obj(path), "point": _point_json(w)},
            result,
            lambda: f"transported to {result['final']}")


def cmd_sign(args):
    path = sio.load_path(args.path)
    w = _point_arg(args.point)
    eps = sign_of_path(path, w)
    return ({"path": sio.path_to_obj(path), "point": _point_json(w)},
            {"sign": sign_str(eps)},
            f"sign {','.join(sign_str(eps))}")


def _orbit(args):
    """The orbit of --point under --path: (orbit report, inputs, the
    detection fields of the result)."""
    if args.window is not None and args.window > args.iters:
        raise UsageError("orbit flags need window <= iters")
    path = sio.load_path(args.path)
    w = _point_arg(args.point)
    report = iterate_orbit(path, w, args.iters, window=args.window)
    inputs = {"path": sio.path_to_obj(path), "point": _point_json(w),
              "iters": args.iters, "window": report.window}
    result = {
        "window": report.window,
        "stable": sign_str(report.detected_stable) if report.detected_stable else None,
        "weak_stable": sign_str(report.detected_weak_stable),
        "weak_all_zero": report.all_zero_warning,
        "empirical": True,
    }
    return report, inputs, result


def cmd_orbit(args):
    report, inputs, result = _orbit(args)
    d = report.d
    # a periodic orbit replays its rows as the same tuples: render each
    # tuple once, keyed by identity so that no row's integers are hashed;
    # a sign is a short tuple of small ints, keyed by value, so an orbit
    # sitting on its stable sign also writes that sign's text once
    points = {}
    texts = {}
    iterations = result["iterations"] = []
    for i, (s, row) in enumerate(zip(report.signs, report.rows)):
        point = points.get(id(row))
        if point is None:
            point = points[id(row)] = sio.row_json(row, d)
        text = texts.get(s)
        if text is None:
            text = texts[s] = sign_str(s)
        iterations.append({"n": i + 1, "sign": text, "point": point})
    result["stabilization_index"] = report.stabilization_index
    return (inputs, result,
            f"orbit of {args.iters} iterations, stable={result['stable']}")


def cmd_stable_sign(args):
    _, inputs, result = _orbit(args)
    return (inputs, result,
            f"stable={result['stable']} weak={result['weak_stable']}")


def cmd_signs_enumerate(args):
    path = sio.load_path(args.path)
    found = enumerate_realizable_signs_with_witnesses(
        path, max_branch=args.max_branch
    )
    signs = sorted(found)
    texts = [sign_str(s) for s in signs]
    result = {
        "count": len(signs),
        "signs": texts,
        "witnesses": {t: found[s] for t, s in zip(texts, signs)},
    }
    return ({"path": sio.path_to_obj(path)}, result,
            f"{len(signs)} realizable strict sign sequences")


def cmd_presentation(args):
    path = sio.load_path(args.path)
    if args.sign is not None:
        eps = parse_sign_str(args.sign)
        m = presentation_matrix_for_sign(path, eps)
        inputs = {"path": sio.path_to_obj(path), "sign": sign_str(eps)}
    else:
        w = _point_arg(args.point)
        m = presentation_matrix_at_point(path, w)
        inputs = {"path": sio.path_to_obj(path), "point": _point_json(w)}
    return inputs, {"matrix": _matrix_json(m)}, "presentation matrix computed"


def cmd_charpoly(args):
    if args.matrix is not None and args.path is None and args.sign is None:
        # char_poly checks that each entry is an integer
        m = _matrix_arg(args.matrix)
        inputs = {"matrix": [_point_json(row) for row in m]}
    elif args.matrix is not None or args.path is None or args.sign is None:
        raise UsageError("charpoly: need --matrix alone, or --path and --sign")
    else:
        path = sio.load_path(args.path)
        eps = parse_sign_str(args.sign)
        m = presentation_matrix_for_sign(path, eps)
        inputs = {"path": sio.path_to_obj(path), "sign": sign_str(eps)}
    p = char_poly(m)
    rho, bound = root_radius(p)
    return (inputs,
            {"coefficients_ascending": list(p.coeffs), "pretty": str(p),
             "spectral_radius": rho, "radius_bound": bound},
            f"charpoly {p}")


def _check_radicand(values, d):
    for v in values:
        if d is not None and isinstance(v, QuadExt) and v.d != d:
            raise RadicandMismatchError(
                f"scalar over sqrt({v.d}) but --radicand {d} was required"
            )


def cmd_stretch(args):
    path = sio.load_path(args.path)
    eps = parse_sign_str(args.stable)
    candidate = (_scalar_arg(args.candidate, "--candidate")
                 if args.candidate is not None else None)
    _check_radicand([candidate] if candidate is not None else [], args.radicand)
    report = stretch_factor(path, eps, candidate=candidate)
    result = {
        "lambda": report.value,
        "table": [
            {"sign": sign_str(e), "rho": r, "bound": b}
            for e, r, b in report.table
        ],
        "radii_all_equal": report.radii_all_equal,
        "exact_verified": report.exact_verified,
        "exact_value": sio.coord_json(report.exact_value)
        if report.exact_value is not None
        else None,
    }
    return ({"path": sio.path_to_obj(path), "stable": sign_str(eps)},
            result,
            f"lambda = {report.value:.10f}")


def cmd_eigencheck(args):
    m = _matrix_arg(args.matrix)
    lam = _scalar_arg(args.eigenvalue, "--eigenvalue")
    x = _point_arg(args.vector, "--vector")
    _check_radicand([lam, *x, *(v for row in m for v in row)], args.radicand)
    ok = verify_eigenpair(m, lam, x)
    return ({"matrix": [_point_json(row) for row in m],
             "eigenvalue": sio.coord_json(lam),
             "vector": _point_json(x)},
            {"verified": ok},
            f"eigenpair {'verified' if ok else 'REJECTED'}")


def cmd_compat(args):
    path = sio.load_path(args.path)
    cone = sio.load_cone(args.cone)
    compat, caveat = compatibility(path, cone)
    result = {
        "compatible": compat,
        "bitmask": "".join("1" if c else "0" for c in compat),
        "mixed_sign_caveat": caveat,
    }
    if args.trace:
        result["generator_coordinates"] = [
            [sio.coord_json(v) for v in row]
            for row in generator_coordinate_trace(path, cone)
        ]
    return ({"path": sio.path_to_obj(path), "cone": sio.cone_to_obj(cone)},
            result,
            f"compatible flips: {[i for i, c in enumerate(compat) if c]}")


def cmd_hereditary(args):
    path = sio.load_path(args.path)
    cone = sio.load_cone(args.cone)
    eps = parse_sign_str(args.stable)
    report = hereditary_check(path, cone, eps)
    return ({"path": sio.path_to_obj(path), "cone": sio.cone_to_obj(cone),
             "stable": sign_str(eps)},
            {"passes": report.passes,
             "compatible_positions": report.compatible_positions,
             "violations": report.violations},
            f"hereditary: {'pass' if report.passes else 'FAIL'}")


def cmd_skeleton(args):
    path = sio.load_path(args.path)
    cone = sio.load_cone(args.cone)
    skel = reduced_subsequence(path, cone)
    return ({"path": sio.path_to_obj(path), "cone": sio.cone_to_obj(cone)},
            {"skeleton": [{"position": p, "flip": k} for p, k in skel]},
            f"{len(skel)} compatible flips")


def cmd_freeze(args):
    seed = sio.load_seed(args.seed)
    frozen_out = _int_list(args.freeze, "--freeze")
    out = freeze(seed, frozen_out)
    return ({"seed": sio.seed_to_obj(seed), "freeze": frozen_out},
            {"seed": sio.seed_to_obj(out)},
            f"froze {args.freeze}")


def cmd_duality_check(args):
    rng = random.Random(args.seed)
    failures = 0
    for _ in range(args.count):
        seed = _random_seed(rng, args.rank, args.max_entry)
        c, g = cg_matrices(_random_path(rng, seed, args.length))
        if mat_mul(transpose(g), c) != identity(len(c)):
            failures += 1
    return ({"count": args.count, "rank": args.rank,
             "max_entry": args.max_entry, "length": args.length,
             "rng_seed": args.seed},
            {"failures": failures, "ok": failures == 0, "rng_seed": args.seed},
            f"duality: {args.count - failures}/{args.count} ok "
            f"(rng seed {args.seed})")


def _random_seed(rng: random.Random, max_rank: int, max_entry: int) -> Seed:
    n = rng.randint(2, max_rank)
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            b[i][j] = rng.randint(-max_entry, max_entry)
            b[j][i] = -b[i][j]
    return Seed(b, frozenset(range(n)))


def _random_path(rng: random.Random, seed: Seed, max_len: int) -> MutationPath:
    order = sorted(seed.unfrozen)
    steps = []
    for _ in range(rng.randint(0, max_len)):
        if rng.random() < 0.15:
            sigma = list(range(seed.n))
            rng.shuffle(order_copy := list(order))
            for idx, img in zip(order, order_copy):
                sigma[idx] = img
            steps.append(Permute(tuple(sigma)))
        else:
            steps.append(Flip(rng.choice(order)))
    return MutationPath(seed, tuple(steps))


def cmd_pants(args):
    m1 = _rational_arg(args.m1, "--m1")
    m2 = _rational_arg(args.m2, "--m2")
    m3 = _rational_arg(args.m3, "--m3")
    m = pants_measures(m1, m2, m3)
    sums = pants_boundary_sums(m)
    names = ("e11", "e12", "e13", "e22", "e23", "e33")
    return ({"m1": args.m1, "m2": args.m2, "m3": args.m3},
            {"measures": {k: sio.coord_json(v) for k, v in zip(names, m)},
             "boundary_sums": [sio.coord_json(s) for s in sums],
             "triangle_regime": in_triangle_regime(m1, m2, m3)},
            f"pants measures {[str(x) for x in m]}")


def cmd_annulus(args):
    family, e1, e2 = annulus_solve(_rational_arg(args.m, "--m"),
                                   _rational_arg(args.t, "--t"))
    return ({"m": args.m, "t": args.t},
            {"family": family, "e1": sio.coord_json(e1), "e2": sio.coord_json(e2)},
            f"annulus family {family}, edges {e1}, {e2}")


def cmd_track_validate(args):
    track = sio.load_track(args.track)
    measure = sio.measure_from_obj(_inline_or_file(args.measure, "--measure"))
    try:
        ok, bad = validate_measure(track, measure)
    except ValueError as exc:  # a measure on an edge the track lacks
        raise FormatError(f"--measure: {exc}") from exc
    return ({"track": {"edges": list(track.edges)},
             "measure": {k: sio.coord_json(v) for k, v in sorted(measure.items())}},
            {"ok": ok, "violating_switches": bad},
            f"switch conditions {'hold' if ok else 'FAIL'}")


# -- parser ------------------------------------------------------------------


def _write_error(args, exc: SignstabError) -> None:
    error = {"error": type(exc).__name__, "message": str(exc)}
    text = sio.render_json({"schema_version": sio.SCHEMA_VERSION, **error})
    try:
        _write(args, text)
    except UsageError:  # the -o file itself cannot be written
        sys.stdout.write(text)
    if not args.json_only:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)


def _shown(text: str, value: int):
    """The int value parsed from text as an error message shows it: its
    digits for a short text, only the text's length for a long one."""
    return value if len(text) <= ECHO_LIMIT else echo(text)


def _int_at_least(low: int):
    """An argparse type: an integer >= low, else a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {echo(text)}") from None
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be >= {low}, got {_shown(text, value)}")
        return value

    return parse


def _radicand(text: str) -> int:
    """An argparse type: a square-free integer 2 <= d <= MAX_RADICAND, the
    radicand of a QuadExt, else a usage error."""
    d = _int_at_least(2)(text)
    if d > MAX_RADICAND:
        raise argparse.ArgumentTypeError(
            f"must be at most {MAX_RADICAND}, got {_shown(text, d)}")
    if square_free_split(d) != (1, d):
        raise argparse.ArgumentTypeError(f"must be square-free, got {d}")
    return d


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line as a UsageError carrying the usage line of
    the (sub)command that rejected it; :func:`main` reports it."""

    def error(self, message):
        exc = UsageError(f"{self.prog}: {message}")
        exc.usage = self.format_usage()
        raise exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and shared
    by every later one."""
    top = _Parser(
        prog="signstab",
        description="Exact tropical cluster X-dynamics and sign stability.",
    )
    top.add_argument("--json-only", action="store_true",
                     help="suppress the human summary on stderr")
    top.add_argument("-o", "--output", help="also write the report to a file")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("mutate", cmd_mutate, help="mutate a seed at one or more indices")
    p.add_argument("--seed", required=True, help="seed JSON file")
    p.add_argument("--k", required=True, help="index or comma list of indices")

    for name, fn in (("transport", cmd_transport), ("sign", cmd_sign)):
        p = add(name, fn)
        p.add_argument("--path", required=True)
        p.add_argument("--point", required=True,
                       help="point file or inline JSON list")
        if name == "transport":
            p.add_argument("--trace", action="store_true")

    for name, fn in (("orbit", cmd_orbit), ("stable-sign", cmd_stable_sign)):
        p = add(name, fn)
        p.add_argument("--path", required=True)
        p.add_argument("--point", required=True)
        p.add_argument("--iters", type=_int_at_least(1), default=30)
        p.add_argument("--window", type=_int_at_least(2), default=None)

    p = add("signs-enumerate", cmd_signs_enumerate)
    p.add_argument("--path", required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="accepted for old scripts; has no effect")
    p.add_argument("--max-branch", type=_int_at_least(1), default=None)

    p = add("presentation", cmd_presentation)
    p.add_argument("--path", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--sign")
    group.add_argument("--point")

    p = add("charpoly", cmd_charpoly)
    p.add_argument("--matrix", help="matrix file or inline JSON")
    p.add_argument("--path")
    p.add_argument("--sign")

    p = add("stretch", cmd_stretch)
    p.add_argument("--path", required=True)
    p.add_argument("--stable", required=True)
    p.add_argument("--candidate", help="exact scalar to certify against")
    p.add_argument("--radicand", type=_radicand, default=None,
                   help="require exact scalars over sqrt(d), d square-free")

    p = add("eigencheck", cmd_eigencheck)
    p.add_argument("--matrix", required=True)
    p.add_argument("--eigenvalue", required=True)
    p.add_argument("--vector", required=True)
    p.add_argument("--radicand", type=_radicand, default=None,
                   help="require exact scalars over sqrt(d), d square-free")

    for name, fn in (("compat", cmd_compat), ("skeleton", cmd_skeleton)):
        p = add(name, fn)
        p.add_argument("--path", required=True)
        p.add_argument("--cone", required=True)
        if name == "compat":
            p.add_argument("--trace", action="store_true",
                           help="include per-generator coordinates per flip")

    p = add("hereditary", cmd_hereditary)
    p.add_argument("--path", required=True)
    p.add_argument("--cone", required=True)
    p.add_argument("--stable", required=True)

    p = add("freeze", cmd_freeze)
    p.add_argument("--seed", required=True, help="seed JSON file")
    p.add_argument("--freeze", required=True, help="comma list of indices")

    p = add("duality-check", cmd_duality_check)
    p.add_argument("--count", type=_int_at_least(0), default=100)
    p.add_argument("--rank", type=_int_at_least(2), default=6)
    p.add_argument("--max-entry", type=_int_at_least(0), default=3)
    p.add_argument("--length", type=_int_at_least(0), default=12)
    p.add_argument("--seed", type=int, default=0, help="RNG seed (printed)")

    p = add("pants", cmd_pants)
    for flag in ("--m1", "--m2", "--m3"):
        p.add_argument(flag, required=True)

    p = add("annulus", cmd_annulus)
    p.add_argument("--m", required=True)
    p.add_argument("--t", required=True)

    p = add("track-validate", cmd_track_validate)
    p.add_argument("--track", required=True)
    p.add_argument("--measure", required=True,
                   help="measure file or inline JSON object")

    return top


def main(argv=None) -> int:
    """Run one command and write its report under the command's parser
    name; a bad command line is a JSON UsageError and exit 2 (SystemExit),
    under --json-only with nothing on stderr."""
    parser = build_parser()
    # parsed in place, so the flags before the subcommand (--json-only
    # among them) are set when a subcommand's own flags are rejected
    args = argparse.Namespace()
    try:
        parser.parse_args(argv, namespace=args)
    except UsageError as exc:
        if not args.json_only:
            sys.stderr.write(exc.usage)
        _write_error(args, exc)
        parser.exit(2)
    try:
        inputs, result, summary = args.fn(args)
        _write(args, sio.render_report(args.command, inputs, result))
    except SignstabError as exc:
        _write_error(args, exc)
        return 2 if isinstance(exc, UsageError) else 1
    if not args.json_only:
        print(summary() if callable(summary) else summary, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
