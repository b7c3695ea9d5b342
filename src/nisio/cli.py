"""Command line driver.

Every subcommand loads one experiment config (see :mod:`nisio.config`),
runs the corresponding computation and writes ``report.json`` plus any
vector/time-series sidecars (CSV) into the output directory.  The report
is also printed to stdout.  Identical config and seed produce identical
numeric outputs.

Exit codes: 0 success, 1 invalid input (config or expression errors),
2 numerical failure (no convergence, blow-up), with a machine-readable
JSON error object on stderr.  ``NISIO_THREADS`` caps the Monte Carlo
worker count; it affects speed only, never results.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .cone import fit_exponential_rate
from .config import Config, load_config
from .eigensolver import _step_size, solve_evolution
from .errors import (
    InsufficientData,
    NisioError,
    NoConvergence,
    NonPositiveEta,
    NumericalError,
    ValidationError,
)
from .generator import MAXIMIZE, MINIMIZE, build_generator
from .mc import McConfig, _log_mean_exp, cost_samples, policy_sweep
from .perron import cw_lower, cw_upper, perron
from .semigroup import EvolveOptions, evolve
from .variational import cw_bounds, dv_check, hji_residual

__all__ = ["main"]


def _write_report(outdir: Path, payload: dict) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, indent=2, sort_keys=True)
    (outdir / "report.json").write_text(text + "\n")
    print(text)


def _write_csv(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _apply_overrides(cfg: Config, args) -> Config:
    problem, mc, output = cfg.problem, cfg.mc, cfg.output
    if args.n is not None:
        grid = dataclasses.replace(problem.grid, n=args.n)
        problem = dataclasses.replace(problem, grid=grid)
    if args.seed is not None:
        mc = dataclasses.replace(mc, seed=args.seed)
    if args.out is not None:
        output = dataclasses.replace(output, dir=args.out)
    return dataclasses.replace(cfg, problem=problem, mc=mc, output=output)


def _sidecar(cfg: Config, payload: dict, name: str, header, rows) -> None:
    """Write ``<name>.csv`` when CSV output is on, and name it in the report."""
    if "csv" in cfg.output.formats:
        _write_csv(Path(cfg.output.dir) / f"{name}.csv", header, rows)
        payload[f"{name}_csv"] = f"{name}.csv"


def _problem_meta(cfg: Config) -> dict:
    g = cfg.problem.grid
    return {"topology": g.topology, "n": g.n, "d": g.d, "extent": g.extent,
            "n_controls": cfg.problem.n_controls, "sense": cfg.problem.sense}


def cmd_solve(cfg: Config, args) -> dict:
    gen = build_generator(cfg.problem)
    # one control: the max envelope is the min envelope, bit for bit; a
    # maximize problem solves the max envelope alone
    if gen.n_controls == 1 or gen.sense == MAXIMIZE:
        pair = pair_max = solve_evolution(gen, cfg.solver)
    else:
        pair, pair_max = solve_evolution(gen, cfg.solver,
                                         senses=(MINIMIZE, MAXIMIZE))
    hist = np.bincount(pair.policy, minlength=gen.n_controls)
    payload = {"command": "solve", "rho": pair.rho, "beta": pair_max.rho,
               "residual": pair.residual, "beta_residual": pair_max.residual,
               "dt": _step_size(gen, cfg.solver),
               "iterations": pair.stats.n_iterations,
               "beta_iterations": pair_max.stats.n_iterations,
               "policy_histogram": hist.tolist(), **_problem_meta(cfg)}
    nodes = gen.grid.nodes()
    _sidecar(cfg, payload, "phi",
             [f"x{i+1}" for i in range(gen.grid.d)] + ["phi", "policy"],
             [list(nodes[i]) + [pair.phi[i], int(pair.policy[i])]
              for i in range(gen.size)])
    return payload


def cmd_bounds(cfg: Config, args) -> dict:
    gen = build_generator(cfg.problem)
    if args.f == "ones":
        f, label = gen.grid.ones(), "ones"
        rho = None
    else:
        pair = solve_evolution(gen, cfg.solver)
        f, label, rho = pair.phi, "phi", pair.rho
    report = cw_bounds(gen, f, f_label=label, rho=rho)
    return {"command": "bounds", "lower": report.lower, "upper": report.upper,
            "gap": report.gap, "f": label, "rho": rho, **_problem_meta(cfg)}


def cmd_dv(cfg: Config, args) -> dict:
    gen = build_generator(cfg.problem)
    report = dv_check(gen)
    return {"command": "dv", "rho": report.rho,
            "certificate": report.certificate, "gap": report.gap,
            "rate": report.rate, **_problem_meta(cfg)}


def cmd_hji_check(cfg: Config, args) -> dict:
    gen = build_generator(cfg.problem)
    pair = solve_evolution(gen, cfg.solver)
    report = hji_residual(gen, pair)
    return {"command": "hji-check", "residual": report.residual,
            "h": report.h, "rho": pair.rho, **_problem_meta(cfg)}


def cmd_simulate(cfg: Config, args) -> dict:
    gen = build_generator(cfg.problem)
    pair = solve_evolution(gen, cfg.solver)
    mc_cfg = McConfig(**{**dataclasses.asdict(cfg.mc), "x0": cfg.mc_start()},
                      policy=pair.policy)
    samples = cost_samples(cfg.problem, mc_cfg)
    est = _log_mean_exp(samples, mc_cfg)
    payload = {"command": "simulate", "value": est.value, "stderr": est.stderr,
               "n_effective": est.n_effective, "N": est.N, "T": est.T,
               "dt_sim": est.dt_sim, "seed": cfg.mc.seed, "rho": pair.rho,
               **_problem_meta(cfg)}
    if args.sweep:
        policies = [np.full(gen.size, v) for v in range(gen.n_controls)]
        sweep = policy_sweep(cfg.problem, mc_cfg, policies)
        _sidecar(cfg, payload, "sweep", ["policy", "value", "stderr"],
                 [[f"constant_{v}", e.value, e.stderr]
                  for v, e in enumerate(sweep)]
                 + [["optimal", est.value, est.stderr]])
        payload["sweep_values"] = [e.value for e in sweep]
    if args.histogram:
        counts, edges = np.histogram(samples, bins=50)
        _sidecar(cfg, payload, "histogram", ["bin_left", "bin_right", "count"],
                 [[edges[i], edges[i + 1], int(counts[i])]
                  for i in range(len(counts))])
    return payload


def cmd_orbit(cfg: Config, args) -> dict:
    gen = build_generator(cfg.problem)
    dt = _step_size(gen, cfg.solver)
    pair = solve_evolution(gen, cfg.solver)
    stats = pair.stats
    try:
        fit = fit_exponential_rate(stats)
        theta, r2 = fit.theta, fit.r2
    except (InsufficientData, NonPositiveEta):
        theta, r2 = None, None
    payload = {"command": "orbit", "growth_per_step": 1.0 + dt * pair.rho,
               "rho": pair.rho, "dt": dt,
               "iterations": stats.n_iterations, "theta": theta, "r2": r2,
               "zeta1": stats.zeta1, "p1_min": stats.p1_min,
               **_problem_meta(cfg)}
    _sidecar(cfg, payload, "orbit",
             ["iteration", "under_alpha", "over_alpha", "eta",
              "rho_estimate", "sup_norm"],
             [[int(stats.iterations[i]), stats.under_alpha[i],
               stats.over_alpha[i], stats.eta[i],
               stats.rho_estimate[i], stats.sup_norm[i]]
              for i in range(len(stats.iterations))])
    return payload


def cmd_evolve(cfg: Config, args) -> dict:
    if args.record_every < 1:
        raise ValidationError(
            f"record_every must be >= 1, got {args.record_every}",
            field="record_every")
    gen = build_generator(cfg.problem)
    dt = _step_size(gen, cfg.solver)
    opts = EvolveOptions(dt=dt, t_final=args.t_final,
                         record_every=args.record_every)
    f, times, snaps = evolve(gen, gen.grid.ones(), opts)
    sup = np.max(np.abs(snaps), axis=1)
    rows = []
    for t, s in zip(times, sup):
        rate = math.log(s) / t if t > 0 and s > 0 else ""
        rows.append([t, s, rate])
    final_rate = math.log(sup[-1]) / times[-1] if times[-1] > 0 else 0.0
    payload = {"command": "evolve", "t_final": float(times[-1]), "dt": dt,
               "sup_norm_final": float(sup[-1]), "log_growth_rate": final_rate,
               **_problem_meta(cfg)}
    _sidecar(cfg, payload, "evolve", ["t", "sup_norm", "log_growth"], rows)
    return payload


def cmd_matrix_cw(args) -> dict:
    try:
        q = np.loadtxt(args.matrix, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"--matrix {args.matrix}: {exc}",
                              field="matrix") from exc
    lam, x = perron(q, tol=args.tol)
    ones = np.ones(q.shape[0])
    return {"command": "matrix-cw", "lambda": lam, "x": x.tolist(),
            "n": int(q.shape[0]),
            "lower_at_ones": cw_lower(q, ones),
            "upper_at_ones": cw_upper(q, ones),
            "lower_at_x": cw_lower(q, x),
            "upper_at_x": cw_upper(q, x)}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nisio",
        description="principal eigenvalue tools for risk-sensitive control")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, needs_config=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        if needs_config:
            p.add_argument("config", help="experiment config file")
            p.add_argument("--n", type=int, help="override problem.n")
            p.add_argument("--seed", type=int, help="override mc.seed")
        p.add_argument("--out", help="override output directory")
        return p

    add("solve", help="compute (rho, phi) and the max-version pair")
    p = add("bounds", help="Collatz-Weilandt sandwich bounds")
    p.add_argument("--f", choices=["ones", "phi"], default="ones",
                   help="test function for the bounds")
    add("dv", help="Donsker-Varadhan identity check (single control)")
    add("hji-check", help="residual of the logarithmic-transform equation")
    p = add("simulate", help="Monte Carlo cost estimate under the optimal policy")
    p.add_argument("--sweep", action="store_true",
                   help="also sweep all constant-control policies")
    p.add_argument("--histogram", action="store_true",
                   help="write a histogram of per-path cost integrals")
    add("orbit", help="per-iteration statistics of the cone iteration "
                      "(an iteration is eight Euler steps)")
    p = add("evolve", help="time series of the semigroup evolution")
    p.add_argument("--t-final", type=float, default=1.0)
    p.add_argument("--record-every", type=int, default=16)
    p = add("matrix-cw", needs_config=False,
            help="Perron pair and sandwich bounds of a CSV matrix")
    p.add_argument("--matrix", required=True, help="CSV file with the matrix")
    p.add_argument("--tol", type=float, default=1e-12)
    return parser


_COMMANDS = {
    "solve": cmd_solve,
    "bounds": cmd_bounds,
    "dv": cmd_dv,
    "hji-check": cmd_hji_check,
    "simulate": cmd_simulate,
    "orbit": cmd_orbit,
    "evolve": cmd_evolve,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "matrix-cw":
            payload = cmd_matrix_cw(args)
            outdir = Path(args.out) if args.out else Path("out")
        else:
            cfg = _apply_overrides(load_config(args.config), args)
            payload = _COMMANDS[args.command](cfg, args)
            outdir = Path(cfg.output.dir)
        _write_report(outdir, payload)
        return 0
    except NisioError as exc:
        code = 2 if isinstance(exc, NumericalError) else 1
        error = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, NoConvergence):
            error["hint"] = "increase solver.max_iters or loosen solver.tol"
        print(json.dumps(error), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
