"""Self-test of the harness, at small sizes (``run.py --self-test``).

1. Every workload runs once, small, and every check passes.
2. For every check of every operation, an output damaged for that check
   (see :func:`workloads.corrupt`) makes the check fail.
3. At full size, the policy-iteration operation fails only on checks the
   named fault explains, and an output damaged beyond the fault's size
   (``rho`` shifted, or a large reported residual) is not explained by it,
   so a run with it would not be correct.
4. ``nisio simulate --sweep`` writes byte-identical files under
   ``NISIO_THREADS=1`` and ``2``, with enough paths for two chunks.

Prints one line per item; :func:`main` returns 1 if any item failed.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

import workloads


def main(out: Path) -> int:
    shutil.rmtree(out, ignore_errors=True)
    problems = 0

    def report(ok: bool, text: str) -> None:
        nonlocal problems
        problems += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {text}")

    for name, make in workloads.WORKLOADS.items():
        for op in make(seed=7, out=out / name, small=True).ops:
            good = op.run()
            verdicts = op.check(good)
            failed = sorted(k for k, ok in verdicts.items() if not ok)
            report(not failed, f"{name}/{op.name}: {len(verdicts)} checks pass"
                   + (f" (failed: {', '.join(failed)})" if failed else ""))
            for check in sorted(verdicts):
                caught = not op.check(workloads.corrupt(good, check))[check]
                report(caught, f"{name}/{op.name}: corrupted output fails {check}")

    op = workloads.howard_dv_1d(seed=7, out=out / "fault").ops[0]
    good = op.run()
    failed, expected = workloads.judge(op, good)
    report(bool(failed) and expected,
           f"howard_dv_1d/{op.name}: fails {', '.join(failed) or 'nothing'},"
           " explained by the named fault")
    damaged = {"rho + 0.1": {**good, "rho": good["rho"] + 0.1},
               "rho + 1e-7": {**good, "rho": good["rho"] + 1e-7},
               "reported residual 1e-7": {**good, "residual": 1e-7}}
    for label, bad in damaged.items():
        failed, expected = workloads.judge(op, bad)
        report(bool(failed) and not expected and not op.fault(bad),
               f"howard_dv_1d/{op.name}: {label} fails {', '.join(failed)},"
               " beyond the named fault")

    files = {}
    for threads in ("1", "2"):
        os.environ["NISIO_THREADS"] = threads
        wl = workloads.mc_sweep(seed=7, out=out / f"threads{threads}", small=True,
                                paths=5000)
        wl.ops[0].run()
        sim = out / f"threads{threads}" / "simulate"
        files[threads] = {p.name: p.read_bytes() for p in sorted(sim.iterdir())}
    os.environ["NISIO_THREADS"] = "1"
    report(files["1"] == files["2"],
           f"simulate --sweep output identical for NISIO_THREADS=1 and 2 "
           f"({', '.join(files['1'])})")
    print(f"self-test: {problems} problem(s)")
    return min(problems, 1)
