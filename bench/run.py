"""Benchmark of nisio: both eigensolvers and the Monte Carlo cross-check.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Runs whole rounds of one workload's operations (see ``workloads.py``) in
this process until ``--seconds`` have passed, checks every output against
the reference computations in ``oracle.py``, and prints one JSON object as
the last line of standard output.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced rounds and reports
the per-layer metrics of ``tracing.py``.  Set-up is timed in fresh
interpreters (``setup_child.py``).  Details and full results go to
``bench/out/<workload>-seed<N>-trace<T>/result.json``.  README.md lists
the workloads, checks and metrics.
"""

import os

# pinned before numpy loads: OpenBLAS's own threads made Howard solves vary
# more from run to run
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NISIO_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from calibrate import calibrate, reference_s  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 5
# time of setup_child.py's reference job on the reference machine
SETUP_REFERENCE_S = 0.13


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import nisio from this checkout's ``src``, and from nowhere else."""
    if not (SRC / "nisio" / "__init__.py").is_file():
        fail(f"no nisio sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nisio
    if Path(nisio.__file__).resolve().parent != SRC / "nisio":
        fail(f"imported nisio from {nisio.__file__}, not from {SRC}")
    return nisio


def measure_setup(configs) -> tuple[dict, list]:
    """Median set-up over ``SETUP_REPS`` fresh interpreters, after a warm-up.

    ``scaled_s`` is the set-up time scaled by the child's reference job, as
    the rounds are scaled by their calibration loops.
    """
    cmd = [sys.executable, str(HERE / "setup_child.py"), *map(str, configs)]
    samples = []
    for rep in range(SETUP_REPS + 1):   # the first fills the bytecode cache
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True, cwd=ROOT)
        if rep:
            samples.append(json.loads(proc.stdout.splitlines()[-1]))
    for s in samples:
        s["setup_s"] = s["import_s"] + s["config_s"] + s["build_s"]
        s["scaled_s"] = s["setup_s"] * SETUP_REFERENCE_S / s["reference_s"]
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}, samples


def environment(seed: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    try:   # the ceiling keeps git from finding an enclosing repository
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": {v: os.environ[v] for v in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "nisio_threads": os.environ["NISIO_THREADS"],
            "commit": commit, "seed": seed}


def run_round(workload, tracer) -> dict:
    """Every operation of the workload once, with its checks.

    The workload's calibration loop runs first, outside the round's time.
    """
    cal = calibrate(workload.name)
    ops = []
    with tracer.install():
        t0 = perf_counter()
        for op in workload.ops:
            try:
                failed, expected = workloads.judge(op, op.run())
            except Exception as exc:   # a crash is a failed operation; go on
                traceback.print_exc()
                failed, expected = [f"raised {type(exc).__name__}: {exc}"], False
            ops.append({"op": op.name, "failed": failed, "expected": expected})
        wall = perf_counter() - t0
    return {"wall_s": wall, "solve_s": tracer.solve_s, "mc_s": tracer.mc_s,
            "path_steps": tracer.path_steps, "cal_s": cal,
            "traced": tracer.full,
            "ops": ops, "layers": tracer.layer_metrics() if tracer.full else None}


def run(args) -> dict:
    load_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, out)
    setup, setup_samples = measure_setup(workload.configs)

    # whole rounds only, so failed/attempted is the same share in every run.
    # The first round warms caches and allocator and is not timed; a traced
    # run then alternates untraced and traced rounds.
    start = perf_counter()
    rounds = [run_round(workload, tracing.Tracer(full=False))]
    while (len(rounds) < 2 + args.trace
           or perf_counter() - start < args.seconds):
        traced = bool(args.trace) and len(rounds) % 2 == 0
        rounds.append(run_round(workload, tracing.Tracer(full=traced)))
        print(f"bench: round {len(rounds) - 1} {rounds[-1]['wall_s']:.3f} s "
              f"{'traced' if traced else ''}", file=sys.stderr)

    # each round's times are scaled by the calibration loops around it
    cal = [r["cal_s"] for r in rounds] + [calibrate(workload.name)]
    ref = reference_s(workload.name)
    for r, before, after in zip(rounds, cal, cal[1:]):
        r["speed"] = ref / (0.5 * (before + after))
    ops = [o for r in rounds for o in r["ops"]]
    plain = [r for r in rounds[1:] if not r["traced"]]
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        values = {k: statistics.median_low(r["layers"][k] for r in traced)
                  for k in traced[0]["layers"]}
        values.update({
            "init.import_s": setup["import_s"], "config.load_s": setup["config_s"],
            "generator.build_s": setup["build_s"],
            "trace.overhead_s": (
                statistics.median(r["speed"] * r["wall_s"] for r in traced)
                - statistics.median(r["speed"] * r["wall_s"] for r in plain))})
    else:
        values = {
            "wall_s": statistics.median(r["speed"] * r["wall_s"] for r in plain),
            "setup_s": setup["scaled_s"],
            "solve_s": statistics.median(r["speed"] * r["solve_s"] for r in plain),
            "path_steps_per_s": statistics.median(
                r["path_steps"] / (r["speed"] * r["mc_s"]) for r in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    result = {"correct": all(not o["failed"] or o["expected"] for o in ops),
              "attempted": len(ops), "failed": sum(bool(o["failed"]) for o in ops),
              "metrics": metrics}
    record = {**result, "workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(args.seed),
              "calibration_s": cal, "inputs": workload.inputs,
              "setup_samples": setup_samples,
              "rounds": rounds}
    (out / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="small sizes: every check, on good and corrupted outputs")
    args = parser.parse_args()
    if args.self_test:
        load_program()
        import selftest
        sys.exit(selftest.main(HERE / "out" / "self-test"))
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(run(args)))


if __name__ == "__main__":
    main()
