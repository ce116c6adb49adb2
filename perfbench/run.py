"""signstab benchmark: time the enumerate, stretch, orbit and block workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

One run repeats the workload's fixed batch of operations for about S
seconds (at least one batch), checks every output, and prints each metric
as a `metric NAME VALUE UNIT` line, then one JSON object as the last line
of stdout.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 each operation runs both untraced and traced, and the per-layer
numbers come from spans around the engine's public functions (see
tracing.py).
Set-up time is measured in fresh processes before the timed window.  Gated
timings are normalized to a reference host speed (see speed.py); the raw
seconds are printed beside them.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path
from statistics import median, quantiles

import speed
import tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 5
P90_MIN_OPS = 100
WORKLOADS = ("enumerate", "stretch", "orbit", "block")


# Fresh-process set-up: time the import and the input loading, then take
# two host-speed samples (after the timed part, so the sampler's own imports
# stay out of it) and print [import s, set-up s, speed sample s].
SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import signstab
import signstab.io
t1 = time.perf_counter()
for name in sys.argv[3:]:
    if name.endswith("_path.json"):
        signstab.io.load_path(name)
    else:
        with open(name, encoding="utf-8") as fh:
            {k: signstab.io.point_from_obj(v) for k, v in json.load(fh).items()
             if isinstance(v, list)}
t2 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import speed
print(json.dumps([t1 - t0, t2 - t0, (speed.sample() + speed.sample()) / 2]))
"""

NUMPY_CHILD = """
import json, sys, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import speed
print(json.dumps([t1 - t0, (speed.sample() + speed.sample()) / 2]))
"""


def load_spec():
    """BENCHMARK.json: the metrics a run reports on its last line, and their
    units.  Other metrics are printed as metric lines only (see README.md)."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def units(spec, kind):
    return {m["name"]: m["unit"] for m in spec[kind]}


def engine_present():
    return (ROOT / "src" / "signstab" / "__init__.py").is_file()


def git_commit():
    """HEAD's commit id, or None outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    signstab_vars = {k: v for k, v in sorted(os.environ.items())
                     if k.startswith("SIGNSTAB_")}
    threads = signstab_vars.get("SIGNSTAB_THREADS", "1")
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "git_commit": git_commit(),
        "signstab_env": signstab_vars,
        # the stretch thread pool changes timings; only one thread is comparable
        "valid": threads == "1",
    }


def child_json(code, *args):
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


def measure_setup(workload, trace, repeats):
    """Median over fresh processes of import signstab + loading the inputs,
    normalized like every other timing (see speed.py)."""
    files = [str(p) for p in workload.input_files()]
    runs = [child_json(SETUP_CHILD, str(BENCH_DIR), str(ROOT / "src"), *files)
            for _ in range(repeats)]
    out = {"setup_s": median(total * speed.REFERENCE_S / ref for _, total, ref in runs),
           "setup_raw_s": median(total for _, total, _ in runs)}
    if trace:
        out["setup.import_s"] = median(imp * speed.REFERENCE_S / ref
                                       for imp, _, ref in runs)
        out["setup.numpy_import_s"] = median(
            t * speed.REFERENCE_S / ref
            for t, ref in (child_json(NUMPY_CHILD, str(BENCH_DIR))
                           for _ in range(repeats)))
    return out


def run_once(workload, op, tracer, probe, log):
    """Run one operation, traced or not, and check its output.

    Returns (start, end, seconds the speed probe took inside, failed).
    """
    out, error = None, None
    if tracer is not None:
        tracer.op_id += 1
        tracer.tag = op.tag
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        stolen = probe.stolen
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # one failed operation, not a crash
            error = exc
        t1 = time.perf_counter()
    if error is None:
        try:
            op.check(out)
        except Exception as exc:  # a wrong answer counts as a failure
            error = exc
    if error is not None:
        where = traceback.extract_tb(error.__traceback__)[-1:]
        loc = f" at {where[0].filename}:{where[0].lineno}" if where else ""
        log(f"FAILED {workload.name} {op.label}: "
            f"{type(error).__name__}: {error}{loc}")
    return t0, t1, probe.stolen - stolen, error is not None


def run_batch(workload, tracers, probe, log):
    """Run one batch: each operation once per entry of `tracers` (None for
    untraced), back to back, so a traced run and its untraced twin see the
    same host speed.  Every other operation takes the entries in reverse
    order, so that neither always runs first.

    Returns, per entry, the operations' raw and normalized seconds, and the
    number of failed operations; raw seconds leave out the time the speed
    probe spent sampling inside the operation.
    """
    spans = [[] for _ in tracers]
    failures = 0
    probe.take()
    order = list(enumerate(tracers))
    for k, op in enumerate(workload.batch()):
        for i, tracer in order if k % 2 == 0 else order[::-1]:
            t0, t1, stolen, failed = run_once(workload, op, tracer, probe, log)
            spans[i].append((t0, t1, stolen))
            failures += failed
    probe.take()
    out = []
    for runs in spans:
        raw = [t1 - t0 - stolen for t0, t1, stolen in runs]
        out.append((raw, [r * probe.scale(t0, t1) for r, (t0, t1, _) in zip(raw, runs)]))
    return out, failures


def measure(workload, seconds, trace, log=lambda msg: print(msg, file=sys.stderr)):
    """Repeat batches for about `seconds`; returns the run's raw numbers.

    With trace, every operation runs both untraced and traced.  A batch
    starts only if the previous batch's length still fits before the
    deadline; at least one batch runs.
    """
    tracer = tracing.Tracer() if trace else None
    walls, norm_walls, overheads, raw_overheads = [], [], [], []
    op_raw, op_norm, summaries = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    with speed.Probe() as probe:
        while True:
            start = time.perf_counter()
            if trace:
                tracer.spans.clear()
            runs, fails = run_batch(workload, (None, tracer) if trace else (None,),
                                    probe, log)
            attempted += sum(len(raw) for raw, _ in runs)
            failed += fails
            raw, norm = runs[0]
            walls.append(sum(raw))
            norm_walls.append(sum(norm))
            op_raw.extend(raw)
            op_norm.extend(norm)
            if trace:
                traced_raw, traced_norm = runs[1]
                # one speed factor for both twins, so normalizing them adds
                # no noise to their difference
                scale = (sum(norm) + sum(traced_norm)) / (sum(raw) + sum(traced_raw))
                raw_overheads.append(sum(traced_raw) - sum(raw))
                overheads.append(raw_overheads[-1] * scale)
                summaries.append({k: v * scale if k.endswith("_s") else v
                                  for k, v in tracing.summarize(tracer.spans).items()})
            took = time.perf_counter() - start
            if time.perf_counter() + took > deadline:
                break
    result = {"attempted": attempted, "failed": failed, "walls": walls,
              "norm_walls": norm_walls, "op_raw": op_raw, "op_norm": op_norm}
    if trace:
        layers = tracing.median_summary(summaries)
        layers["trace.overhead_s"] = median(overheads)
        result["layers"] = layers
        result["overhead_raw_s"] = median(raw_overheads)
        result["missing"] = sorted(set(tracer.missing))
    return result


def absent_reason(name, layers, missing):
    """Why a per-layer number reads zero, or "" when it does not."""
    if layers[name]:
        return ""
    if missing:
        return f"  # zero; bindings not found: {', '.join(missing)}"
    if name == "feasibility.empty_ratio" and layers["feasibility.solves"]:
        return "  # zero: no solve found an empty cone"
    if name == "trace.overhead_s":
        return ""
    return "  # zero: this workload makes no such call"


def run_workload(name, seed, seconds, trace, ref=None, smoke=False, log=None):
    """One benchmark run; prints metric lines, returns the last-line object."""
    if ref is None:
        with open(BENCH_DIR / "reference.json", encoding="utf-8") as fh:
            ref = json.load(fh)
    env = environment()
    spec = load_spec()
    print(f"workload {name} seed={seed} seconds={seconds} trace={trace}"
          f"{' smoke' if smoke else ''}")
    print("env " + json.dumps(env, sort_keys=True))
    from workloads import WORKLOAD_CLASSES  # imports signstab from ROOT/src

    workload = WORKLOAD_CLASSES[name](ROOT, seed, ref, smoke)
    setup = measure_setup(workload, trace, 1 if smoke else SETUP_REPEATS)
    raw = measure(workload, seconds, trace, **({"log": log} if log else {}))
    attempted, failed = raw["attempted"], raw["failed"]
    metrics = {}
    if not trace:
        ops, batches = raw["op_raw"], len(raw["walls"])
        values = {
            "wall_norm_s": median(raw["norm_walls"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup["setup_s"],
        }
        unit = units(spec, "end_to_end")
        metrics = {k: {"value": v, "unit": unit.get(k)} for k, v in values.items()}
        for k, v in values.items():
            print(f"metric {k} {v:.6g} {unit.get(k)}")
        print(f"metric setup_raw_s {setup['setup_raw_s']:.6g} s  # setup_s, not normalized")
        print(f"metric wall_s {median(raw['walls']):.6g} s  # median of {batches} "
              f"batch(es) of {len(ops) // batches} operation(s), not normalized")
        print(f"metric op_p50_norm_s {median(raw['op_norm']):.6g} s  # over {len(ops)} "
              "operations")
        print(f"metric op_p50_s {median(ops):.6g} s  # not normalized")
        if len(ops) >= P90_MIN_OPS:
            p90 = quantiles(ops, n=10)[-1]
            print(f"metric op_p90_s {p90:.6g} s  # over {len(ops)} operations")
        else:
            print(f"metric op_p90_s n/a s  # {len(ops)} operations, "
                  f"fewer than {P90_MIN_OPS}")
        print(f"metric error_rate {failed / attempted:.6g} ratio  "
              f"# {failed} failed of {attempted} attempted")
    else:
        layers = dict(raw["layers"])
        layers["setup.import_s"] = setup["setup.import_s"]
        layers["setup.numpy_import_s"] = setup["setup.numpy_import_s"]
        unit = units(spec, "per_layer")
        for k, v in layers.items():
            metrics[k] = {"value": v, "unit": unit.get(k)}
            print(f"metric {k} {v:.6g} {unit.get(k)}"
                  f"{absent_reason(k, layers, raw['missing'])}")
        print(f"metric trace.overhead_raw_s {raw['overhead_raw_s']:.6g} s  "
              "# trace.overhead_s, not normalized")
    correct = failed == 0 and env["valid"]
    if not env["valid"]:
        print("# invalid run: SIGNSTAB_THREADS is not 1", file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload.

    Ends with one JSON object that sums the workloads' counts and holds
    their metrics as <workload>.<metric>.
    """
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        try:
            out = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            out = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        total["correct"] = total["correct"] and proc.returncode == 0 and out["correct"]
        total["attempted"] += out["attempted"]
        total["failed"] += out["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in out["metrics"].items()})
        sys.stdout.flush()
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def self_test():
    """Every workload at its smallest size: clean, traced, and with a
    deliberately wrong reference value, which must show up as failed
    operations rather than as a crash."""
    with open(BENCH_DIR / "reference.json", encoding="utf-8") as fh:
        ref = json.load(fh)
    wrong = copy.deepcopy(ref)
    wrong["enumerate"]["smoke"]["sha256"] = "0" * 64
    wrong["stretch"]["smoke"]["exact_value"] = "3/2-1/2*sqrt(5)"
    wrong["orbit"]["leading_rows"]["l_plus"][0] = "-" * 16
    wrong["orbit"]["leading_rows"]["l_minus"][0] = "+" * 16
    wrong["orbit"]["every_row"]["L_plus"] = "+" * 16
    wrong["block"]["max_radius_diff"] = -1.0
    spec = load_spec()
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            out = run_workload(name, 0, 0, trace, ref=ref, smoke=True)
            expected = units(spec, "per_layer" if trace else "end_to_end")
            if not out["correct"] or out["failed"]:
                problems.append(f"{name} trace={trace}: clean run failed")
            if {k: m["unit"] for k, m in out["metrics"].items()} != expected:
                problems.append(f"{name} trace={trace}: metrics differ from "
                                "BENCHMARK.json")
        quiet = []
        out = run_workload(name, 0, 0, 0, ref=wrong, smoke=True, log=quiet.append)
        if out["correct"] or out["failed"] != out["attempted"]:
            problems.append(f"{name}: wrong reference not reported as failures")
        print(f"# {name}: wrong reference gave {out['failed']}/{out['attempted']} "
              f"failed operations, error_rate "
              f"{out['failed'] / out['attempted']:.6g}")
    for p in problems:
        print("SELF-TEST FAILED " + p)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not engine_present():
        print(f"signstab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    out = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
