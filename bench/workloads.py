"""The benchmark's workloads: inputs, operations and output checks.

An operation is one ``nisio`` CLI command run in-process, or one solver
call, together with the checks of its outputs.  Inputs come from the seed
alone: it sets the phase of the cosine costs (a torus rotation that keeps
each problem's difficulty) and the Monte Carlo seed.  The policy-iteration
operation uses the fixed ``torus_two_control`` problem, on which it fails
every time for the inner-tolerance fault described in ``README.md``.

Reference values are computed once per run by :mod:`oracle`, which shares
no code with ``nisio``; each check returns a named pass/fail.  Every
workload also estimates one policy's cost by Monte Carlo and checks it
against the reference eigenvalue, as the program's own cross-check does.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

import oracle as O

TOL = 1e-9                 # solver.tol of every config, and SolveOptions().tol
DV_GAP_BOUND = 1e-9        # Donsker-Varadhan gap allowed (README)
DV_CERT_SLACK = 1e-10      # certificate may exceed the LAPACK root by this
MC_SIGMAS = 4.0            # standard errors allowed in the Monte Carlo margin
MC_DT = 0.001              # Euler-Maruyama step of every simulation
# the named policy-iteration fault: perron's relative stop (SolveOptions()
# .inner_tol), the checks it can make fail, and the slack on its size
INNER_TOL = 1e-13
FAULT_CHECKS = {"residual_reported", "residual", "oracle", "policy_root"}
FAULT_SLACK = 2.0


@dataclass
class Op:
    """One operation: ``run`` returns its outputs, ``check`` names verdicts.

    ``fault``, if set, tells whether an output's errors are no larger than
    the named fault explains.
    """

    name: str
    run: Callable[[], dict]
    check: Callable[[dict], dict]
    fault: Callable[[dict], bool] | None = None


def judge(op: Op, out: dict) -> tuple[list, bool]:
    """The failed checks of ``out``, and whether the named fault explains
    them: every failed check is one the fault touches, and the errors are
    within its size."""
    failed = sorted(k for k, ok in op.check(out).items() if not ok)
    expected = (bool(failed) and op.fault is not None
                and set(failed) <= FAULT_CHECKS and op.fault(out))
    return failed, expected


@dataclass
class Workload:
    name: str
    ops: list
    configs: list = field(default_factory=list)    # set-up loads these
    inputs: dict = field(default_factory=dict)     # recorded in results


# ---------------------------------------------------------------------------
# problems, as the config strings the program reads
# ---------------------------------------------------------------------------

def _cos(var: str, theta: float | None) -> str:
    return f"cos(2*pi*{var})" if theta is None else f"cos(2*pi*({var} - {theta}))"


def torus_two_control(n, theta=None):
    return O.Problem(1, n, "-1 ; 1", "1", "v1",
                     f"{_cos('x1', theta)} + 0.05*v1^2 + 0.5")


def torus_cosine(n, theta):
    return O.Problem(1, n, "0", "1", "0", _cos("x1", theta))


def torus2d_mixed(n, th1, th2):
    return O.Problem(2, n, "-1, -1 ; -1, 1 ; 1, -1 ; 1, 1",
                     "1, 0.25 ; 0.25, 1", "v1, v2",
                     f"{_cos('x1', th1)} + {_cos('x2', th2)}"
                     " + 0.05*(v1^2 + v2^2)")


def torus2d_separable(n, th1, th2):
    return O.Problem(2, n, "0", "1", "0, 0",
                     f"{_cos('x1', th1)} + {_cos('x2', th2)}")


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def pair_checks(st: O.Stencil, out: dict, rho_ref=None, beta_ref=None) -> dict:
    """Contract of a returned eigenpair, checked with the reference stencil."""
    rho, phi = out["rho"], out["phi"]
    c = {"residual_reported": out["residual"] <= TOL,
         "phi_positive": bool(phi.min() > 0)}
    if c["phi_positive"]:
        lo, hi, err = O.cw_band(st, phi)
        c["band"] = lo - err <= rho <= hi + err
        res, err = O.residual(st, rho, phi)
        c["residual"] = res - err <= TOL
    else:
        c["band"] = c["residual"] = False
    if rho_ref is not None:
        c["oracle"] = abs(rho - rho_ref) <= TOL
    if out.get("policy") is not None:
        c["policy_root"] = abs(rho - O.perron_root(st.dense(out["policy"]))[0]) <= TOL
    if "beta" in out:
        c["beta_residual_reported"] = out["beta_residual"] <= TOL
        # each value is within TOL of its exact counterpart, and beta >= rho
        c["beta_ge_rho"] = out["beta"] >= rho - 2 * TOL
        if beta_ref is not None:
            c["beta_oracle"] = abs(out["beta"] - beta_ref) <= TOL
    return c


def corrupt(out: dict, check: str) -> dict:
    """A copy of ``out`` damaged so that ``check`` must fail."""
    bad = dict(out)
    if check in ("band", "residual", "oracle", "dv_oracle"):
        bad["rho"] = out["rho"] + 10 * TOL
    elif check in ("residual_reported", "beta_residual_reported"):
        key = "residual" if check == "residual_reported" else "beta_residual"
        bad[key] = 10 * TOL
    elif check == "phi_positive":
        bad["phi"] = out["phi"].copy()
        bad["phi"][0] = -bad["phi"][0]
    elif check == "policy_root":
        bad["policy"] = out["policy"].max() - out["policy"]
    elif check == "beta_oracle":
        bad["beta"] = out["beta"] + 10 * TOL
    elif check == "beta_ge_rho":
        bad["beta"] = out["rho"] - 10 * TOL
    elif check == "dv_certificate":
        bad["certificate"] = out["certificate"] + 10 * TOL
    elif check == "dv_gap":
        bad["gap"] = 10 * DV_GAP_BOUND
    elif check == "mc_value":
        bad["value"] = out["value"] + 1.0
    elif check == "mc_sweep":
        bad["sweep"] = [v - 1.0 for v in out["sweep"]]
    else:
        raise KeyError(check)
    return bad


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _write_config(path: Path, p: O.Problem, extra: str = "") -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(p.config_text() + f"solver.tol = {TOL!r}\n" + extra)
    return path


def _cli(argv: list, outdir: Path) -> dict:
    """Run one ``nisio`` command in this process; return its report."""
    from nisio import cli
    with contextlib.redirect_stdout(io.StringIO()):   # the report is echoed
        code = cli.main([*argv, "--out", str(outdir)])
    if code != 0:
        raise RuntimeError(f"nisio {argv[0]} exited with code {code}")
    return json.loads((outdir / "report.json").read_text())


def _solve_op(name: str, cfg: Path, outdir: Path, st: O.Stencil, d: int,
              rho_ref=None, beta_ref=None) -> Op:
    def run():
        rep = _cli(["solve", str(cfg)], outdir)
        table = np.loadtxt(outdir / "phi.csv", delimiter=",", skiprows=1, ndmin=2)
        return {"rho": rep["rho"], "beta": rep["beta"],
                "residual": rep["residual"], "beta_residual": rep["beta_residual"],
                "phi": table[:, d],
                # a dense eigenproblem at the policy is affordable in 1-D only
                "policy": table[:, d + 1].astype(int) if d == 1 else None}
    return Op(name, run, lambda out: pair_checks(st, out, rho_ref, beta_ref))


def _inner_tolerance_fault(st: O.Stencil, rho_ref: float):
    """Whether a policy-iteration pair is off by no more than the named
    fault explains.

    ``perron`` stops at ``||Q x - lam x|| <= INNER_TOL * lam`` on
    ``Q = c I + A_u``, ``c = |min diag A_u| + max |r| + 1``, so the residual
    may reach ``INNER_TOL * lam``.  By the Collatz-Weilandt inequality
    ``rho`` is then within twice that over ``min phi`` of the root of
    ``A_u``.  Both bounds get ``FAULT_SLACK`` for rounding.
    """
    def explains(out):
        a = st.dense(out["policy"])
        lam = abs(np.diag(a).min()) + np.abs(st.r).max() + 1 + rho_ref
        res_bound = FAULT_SLACK * INNER_TOL * lam
        rho_bound = 2 * res_bound / out["phi"].min()
        res, _ = O.residual(st, out["rho"], out["phi"])
        return bool(out["residual"] <= res_bound and res <= res_bound
                    and abs(out["rho"] - rho_ref) <= rho_bound
                    and abs(out["rho"] - O.perron_root(a)[0]) <= rho_bound)
    return explains


def _policy_iteration_op(name: str, cfg: Path, st: O.Stencil, rho_ref) -> Op:
    from nisio import build_generator, eigensolver
    from nisio.config import load_config
    gen = build_generator(load_config(str(cfg)).problem)

    def run():
        pair = eigensolver.solve_policy_iteration(
            gen, eigensolver.SolveOptions(tol=TOL))
        return {"rho": pair.rho, "phi": pair.phi, "policy": pair.policy,
                "residual": pair.residual}
    return Op(name, run, lambda out: pair_checks(st, out, rho_ref),
              fault=_inner_tolerance_fault(st, rho_ref))


def _dv_op(name: str, cfg: Path, outdir: Path, lam: float) -> Op:
    def run():
        rep = _cli(["dv", str(cfg)], outdir)
        return {k: rep[k] for k in ("rho", "certificate", "gap", "rate")}

    def check(out):
        return {"dv_oracle": abs(out["rho"] - lam) <= TOL,
                "dv_certificate": out["certificate"] <= lam + DV_CERT_SLACK,
                "dv_gap": out["gap"] <= DV_GAP_BOUND}
    return Op(name, run, check)


def _mc_margin(log_ratio: float, rho: float, rho_fine: float,
               horizon: float) -> float:
    """Fixed part of the Monte Carlo margin: the finite-horizon term
    ``log(max phi / min phi) / T``, and the grid term, a Richardson estimate
    for the first-order scheme from the 4x finer grid."""
    return log_ratio / horizon + 4 / 3 * abs(rho_fine - rho)


def _howard_margin(p: O.Problem, horizon: float):
    """``(rho, policy, fixed margin)`` of a 1-D problem, by the oracle."""
    rho, phi, policy = O.howard(O.stencil(p))
    fine = O.howard(O.stencil(replace(p, n=4 * p.n)))[0]
    return rho, policy, _mc_margin(math.log(phi.max() / phi.min()), rho,
                                   fine, horizon)


def _mc_op(name: str, cfg: Path, policy, rho_ref: float, fixed: float,
           horizon: float, paths: int, seed: int) -> Op:
    """``mc.simulate_cost`` of one policy, checked against ``rho_ref``."""
    from nisio import mc
    from nisio.config import load_config
    conf = load_config(str(cfg))
    mc_cfg = mc.McConfig(T=horizon, dt_sim=MC_DT, N=paths, seed=seed,
                         x0=conf.mc_start(), policy=policy)

    def run():
        est = mc.simulate_cost(conf.problem, mc_cfg)
        return {"value": est.value, "stderr": est.stderr}

    def check(out):
        margin = fixed + MC_SIGMAS * out["stderr"]
        return {"mc_value": abs(out["value"] - rho_ref) <= margin}
    return Op(name, run, check)


def _simulate_op(name: str, cfg: Path, outdir: Path, p: O.Problem,
                 horizon: float) -> Op:
    rho_ref, _, fixed = _howard_margin(p, horizon)

    def run():
        rep = _cli(["simulate", str(cfg), "--sweep"], outdir)
        err = np.loadtxt(outdir / "sweep.csv", delimiter=",", skiprows=1,
                         usecols=2)
        return {"rho": rep["rho"], "value": rep["value"],
                "sweep": rep["sweep_values"], "stderr": float(err.max())}

    def check(out):
        margin = fixed + MC_SIGMAS * out["stderr"]
        return {"oracle": abs(out["rho"] - rho_ref) <= TOL,
                "mc_value": abs(out["value"] - rho_ref) <= margin,
                "mc_sweep": min(out["sweep"]) >= out["value"] - margin}
    return Op(name, run, check)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def phases(seed: int, k: int = 2) -> list[float]:
    """Seed-derived cosine phases, rounded so configs print them exactly."""
    return [round(float(t), 6) for t in np.random.default_rng(seed).uniform(size=k)]


def _cross_check(small: bool, seed: int) -> tuple[float, int, dict]:
    """Horizon, paths and input record of the Monte Carlo cross-check that
    runs beside the solvers."""
    horizon, paths = (1.0, 256) if small else (2.0, 1024)
    return horizon, paths, {"T": horizon, "N": paths, "dt_sim": MC_DT,
                            "x0": "centre", "seed": seed}


def solve_1d(seed, out: Path, small=False) -> Workload:
    p = torus_two_control(32 if small else 128, phases(seed)[0])
    st = O.stencil(p)
    cfg = _write_config(out / "solve_1d.cfg", p)
    horizon, paths, mc = _cross_check(small, seed)
    rho_ref, policy, fixed = _howard_margin(p, horizon)
    ops = [_solve_op("solve", cfg, out / "solve", st, 1,
                     rho_ref, O.howard(st, "maximize")[0]),
           _mc_op("mc", cfg, policy, rho_ref, fixed, horizon, paths, seed)]
    return Workload("solve_1d", ops, [cfg], {"solve": vars(p), "mc": mc})


def howard_dv_1d(seed, out: Path, small=False) -> Workload:
    n = 32 if small else 128
    torus = torus_two_control(n)
    cosine = torus_cosine(n, phases(seed)[0])
    st = O.stencil(torus)
    cfgs = [_write_config(out / "pi_torus.cfg", torus),
            _write_config(out / "dv.cfg", cosine, f"mc.seed = {seed}\n")]
    lam, phi = O.perron_root(O.stencil(cosine).dense(0))
    fine = O.perron_root(O.stencil(replace(cosine, n=4 * n)).dense(0))[0]
    horizon, paths, mc = _cross_check(small, seed)
    fixed = _mc_margin(math.log(phi.max() / phi.min()), lam, fine, horizon)
    ops = [_policy_iteration_op("pi_torus", cfgs[0], st, O.howard(st)[0]),
           _dv_op("dv", cfgs[1], out / "dv", lam),
           _mc_op("mc", cfgs[1], np.zeros(n, dtype=int), lam, fixed,
                  horizon, paths, seed)]
    return Workload("howard_dv_1d", ops, cfgs,
                    {"pi_torus": vars(torus), "dv": vars(cosine), "mc": mc})


def mc_sweep(seed, out: Path, small=False, paths=None) -> Workload:
    p = torus_two_control(16 if small else 64, phases(seed)[0])
    n_paths = paths or (256 if small else 1024)
    horizon = 1.0 if small else 4.0
    mc = (f"mc.seed = {seed}\nmc.n = {n_paths}\nmc.t = {horizon!r}\n"
          f"mc.dt_sim = {MC_DT!r}\n")
    cfg = _write_config(out / "mc_sweep.cfg", p, mc)
    op = _simulate_op("simulate", cfg, out / "simulate", p, horizon)
    return Workload("mc_sweep", [op], [cfg],
                    {"simulate": {**vars(p), "mc": mc.strip().split("\n")}})


def solve_2d(seed, out: Path, small=False) -> Workload:
    n = 16 if small else 48
    th1, th2 = phases(seed)
    mixed, sep = torus2d_mixed(n, th1, th2), torus2d_separable(n, th1, th2)
    # the separable operator is a Kronecker sum: rho is the sum of two 1-D
    # roots, and phi the product of the two 1-D vectors
    roots = [O.perron_root(O.stencil(torus_cosine(m, t)).dense(0))
             for m in (n, 4 * n) for t in (th1, th2)]
    rho_sep, rho_fine = roots[0][0] + roots[1][0], roots[2][0] + roots[3][0]
    log_ratio = sum(math.log(v.max() / v.min()) for _, v in roots[:2])
    ops, cfgs = [], []
    for label, p, ref in (("mixed", mixed, None), ("separable", sep, rho_sep)):
        cfgs.append(_write_config(out / f"{label}.cfg", p))
        ops.append(_solve_op(label, cfgs[-1], out / label, O.stencil(p), 2,
                             ref, ref))
    horizon, paths, mc = _cross_check(small, seed)
    ops.append(_mc_op("mc", cfgs[1], np.zeros(n * n, dtype=int), rho_sep,
                      _mc_margin(log_ratio, rho_sep, rho_fine, horizon),
                      horizon, paths, seed))
    return Workload("solve_2d", ops, cfgs,
                    {"mixed": vars(mixed), "separable": vars(sep), "mc": mc})


WORKLOADS = {"solve_1d": solve_1d, "howard_dv_1d": howard_dv_1d,
             "mc_sweep": mc_sweep, "solve_2d": solve_2d}
