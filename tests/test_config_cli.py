"""Config parsing/validation and the command line driver."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jsonschema

from nisio import __version__ as nisio_version
from nisio import build_generator, cli, eigensolver, solve_evolution
from nisio.cli import main
from nisio.config import loads
from nisio import mc
from nisio.errors import ConfigError, ValidationError

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((ROOT / "schema" / "report.schema.json").read_text())

MINIMAL = """
# cosine potential, one control
problem.topology = torus
problem.n        = 64
problem.sigma    = "1"
problem.b        = "0"
problem.r        = "cos(2*pi*x1)"
"""

TWO_CONTROL = """
problem.topology = torus
problem.n        = 32
problem.controls = -1 ; 1
problem.sigma    = "1"
problem.b        = "v1"
problem.r        = "cos(2*pi*x1) + 0.05*v1^2 + min(x1, v1)*0"
solver.tol       = 1e-8
mc.t             = 2.0
mc.n             = 400
mc.seed          = 11
"""


def test_minimal_config():
    cfg = loads(MINIMAL)
    assert cfg.problem.grid.topology == "torus"
    assert cfg.problem.grid.n == 64
    assert cfg.problem.n_controls == 1
    assert cfg.solver.tol == 1e-9            # default
    assert cfg.mc.seed == 0


def test_two_control_config():
    cfg = loads(TWO_CONTROL)
    assert cfg.problem.controls == ((-1.0,), (1.0,))
    assert cfg.mc.T == 2.0 and cfg.mc.N == 400 and cfg.mc.seed == 11


def test_validation_small_n():
    with pytest.raises(ValidationError, match="n >= 8"):
        loads(MINIMAL.replace("problem.n        = 64", "problem.n        = 4"))


def test_parse_error_names_key_and_line():
    bad = MINIMAL.replace('problem.r        = "cos(2*pi*x1)"',
                          'problem.r        = "cos(2*pi*x1"')
    with pytest.raises(ConfigError, match=r"problem\.r"):
        loads(bad)
    try:
        loads(bad)
    except ConfigError as err:
        assert err.line == 7


DEEP_R = ["+".join(["x1"] * 1200), "(" * 400 + "x1" + ")" * 400,
          "-" * 1000 + "x1"]


@pytest.mark.parametrize("r", DEEP_R, ids=["sum", "parentheses", "unary-minus"])
def test_deep_expression_names_key_and_line(r):
    bad = MINIMAL.replace('"cos(2*pi*x1)"', f'"{r}"')
    with pytest.raises(ConfigError, match=r"problem\.r: .*200 levels") as err:
        loads(bad)
    assert err.value.line == 7


def test_unknown_and_duplicate_keys():
    with pytest.raises(ConfigError, match="unknown keys"):
        loads(MINIMAL + "\nproblem.shape = round\n")
    with pytest.raises(ConfigError, match="duplicate"):
        loads(MINIMAL + '\nproblem.r = "1"\n')
    with pytest.raises(ConfigError, match="section.key"):
        loads("just some words\n")


@pytest.mark.parametrize("key, value", [
    ("tol", "nan"), ("tol", "-1"), ("tol", "0"), ("tol", "inf"),
    ("dt_factor", "1.5"), ("dt_factor", "nan"), ("max_iters", "0")])
def test_bad_solver_value_names_key_and_line(key, value):
    line = f"solver.{key} = {value}"
    text = MINIMAL + f"\n{line}\nmc.seed = 3\n"
    with pytest.raises(ConfigError, match=rf"solver\.{key}") as err:
        loads(text)
    assert err.value.line == text.splitlines().index(line) + 1


@pytest.mark.parametrize("key, value", [
    ("n", "0"), ("n", "99"), ("dt_sim", "-1"), ("dt_sim", "0"),
    ("dt_sim", "nan"), ("dt_sim", "inf"), ("t", "nan"), ("t", "inf"),
    ("t", "0.005"), ("seed", "-1")])
def test_bad_mc_value_names_key_and_line(key, value):
    line = f"mc.{key} = {value}"
    text = MINIMAL + f"\n{line}\nsolver.tol = 1e-8\n"
    with pytest.raises(ConfigError, match=rf"mc\.{key}") as err:
        loads(text)
    assert err.value.line == text.splitlines().index(line) + 1


def test_dt_sim_too_long_for_default_horizon_names_its_line():
    # mc.t keeps its default of 20, which covers fewer than 10 steps of 5
    text = MINIMAL + "\nmc.dt_sim = 5\n"
    with pytest.raises(ConfigError, match=r"mc\.t") as err:
        loads(text)
    assert err.value.line == len(text.splitlines())


@pytest.mark.parametrize("line", [
    "problem.sense = foo", "problem.eps_a = -1", "problem.eps_a = nan",
    "problem.controls = -1 ; 1, 2", 'problem.sigma = "1, 0, 0, 1"'])
def test_bad_problem_value_names_key_and_line(line):
    text = MINIMAL + f"\n{line}\nmc.seed = 3\n"
    if line.startswith("problem.sigma"):
        text = text.replace('problem.sigma    = "1"\n', "")
    with pytest.raises(ConfigError, match=line.split(" ")[0]) as err:
        loads(text)
    assert err.value.line == text.splitlines().index(line) + 1


@pytest.mark.parametrize("line", [
    "problem.topology = sphere", "problem.d = 3", "problem.extent = nan",
    "problem.n = 16.5", "problem.n = inf", "problem.n = nan"])
def test_bad_grid_value_names_key_and_line(line):
    key = line.split(" ")[0]
    text = MINIMAL.replace(f"{key:<16} = ", "# ") + f"\n{line}\nmc.seed = 3\n"
    with pytest.raises(ConfigError, match=key) as err:
        loads(text)
    assert err.value.line == text.splitlines().index(line) + 1


@pytest.mark.parametrize("value, n", [("64", 64), ("64.0", 64), ("1e2", 100)])
def test_integral_n_spellings_load(value, n):
    cfg = loads(MINIMAL.replace("= 64", f"= {value}"))
    assert cfg.problem.grid.n == n and type(cfg.problem.grid.n) is int


@pytest.mark.parametrize("value", ["abc", "nan", "inf", "-inf", "3.0", "-0.5",
                                   "1.0000000000000002"])
def test_bad_mc_x0_names_key_and_line(value):
    line = f"mc.x0 = {value}"
    text = MINIMAL + f"\n{line}\nmc.seed = 3\n"
    with pytest.raises(ConfigError, match=r"mc\.x0") as err:
        loads(text)
    assert err.value.line == text.splitlines().index(line) + 1


@pytest.mark.parametrize("value", ["-0.0", "0", "1"])
def test_mc_x0_on_the_domain_boundary_loads(value):
    text = INTERVAL_START.replace("= 0.25", f"= {value}")
    assert loads(text).mc_start() == (float(value),)


INTEGER_KEYS = {
    "problem.d": MINIMAL.replace('problem.b        = "0"', 'problem.b = "0, 0"'),
    "mc.n": MINIMAL, "mc.seed": MINIMAL, "solver.max_iters": MINIMAL}


@pytest.mark.parametrize("key, value, field, expected", [
    ("problem.d", "2.0", lambda cfg: cfg.problem.grid.d, 2),
    ("mc.n", "1e4", lambda cfg: cfg.mc.N, 10_000),
    ("mc.seed", "3.0", lambda cfg: cfg.mc.seed, 3),
    ("mc.seed", "18446744073709551617", lambda cfg: cfg.mc.seed, 2 ** 64 + 1),
    ("solver.max_iters", "5e6", lambda cfg: cfg.solver.max_iters, 5_000_000)])
def test_integer_keys_load_float_spellings_as_int(key, value, field, expected):
    cfg = loads(INTEGER_KEYS[key] + f"\n{key} = {value}\n")
    assert field(cfg) == expected and type(field(cfg)) is int


@pytest.mark.parametrize("key", sorted(INTEGER_KEYS))
@pytest.mark.parametrize("value", ["16.5", "nan"])
def test_non_integer_value_names_key_and_line(key, value):
    line = f"{key} = {value}"
    text = INTEGER_KEYS[key] + f"\n{line}\nmc.t = 2.0\n"
    with pytest.raises(ConfigError, match=rf"{key}: expected an integer") as err:
        loads(text)
    assert err.value.line == text.splitlines().index(line) + 1


def test_mc_section_is_mc_settings():
    assert loads(MINIMAL).mc == mc.McSettings()
    assert loads(TWO_CONTROL).mc == mc.McSettings(T=2.0, N=400, seed=11)


@pytest.mark.parametrize("lines, key", [
    # McSettings checks dt_sim before N; SolveOptions tol before max_iters
    (["mc.n = 0", "mc.dt_sim = -1"], "mc.dt_sim"),
    (["mc.seed = -1", "mc.n = 99"], "mc.n"),
    (["solver.max_iters = 0", "solver.tol = 0"], "solver.tol"),
    (["solver.dt_factor = 2", "solver.max_iters = 0"], "solver.max_iters")])
def test_two_bad_keys_name_the_first_checked(lines, key):
    text = MINIMAL + "\n" + "\n".join(lines) + "\n"
    with pytest.raises(ConfigError, match=rf"{key}:") as err:
        loads(text)
    assert err.value.line == text.splitlines().index(
        next(line for line in lines if line.startswith(key))) + 1


@pytest.mark.parametrize("value", ["nan ; 1", "-1 ; inf"])
def test_non_finite_control_names_key_and_line(value):
    line = f"problem.controls = {value}"
    text = MINIMAL + f"\n{line}\nmc.seed = 3\n"
    with pytest.raises(ConfigError, match=r"problem\.controls") as err:
        loads(text)
    assert err.value.line == text.splitlines().index(line) + 1


def test_simulate_passes_every_mc_value_to_cost_samples(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cost_samples", lambda spec, cfg: seen.append(cfg)
                        or np.zeros(cfg.N))
    text = (MINIMAL.replace("= 64", "= 16") + "mc.t = 0.5\nmc.dt_sim = 2e-3\n"
            "mc.n = 123\nmc.seed = 17\nmc.x0 = 0.25\n")
    assert run_cli(["simulate", write_cfg(tmp_path, text),
                    "--out", tmp_path / "out"]) == 0
    (cfg,) = seen
    assert (cfg.T, cfg.dt_sim, cfg.N, cfg.seed, cfg.x0) == (
        0.5, 2e-3, 123, 17, (0.25,))
    assert cfg.policy.shape == (16,)


def test_solver_section_is_solve_options():
    cfg = loads(MINIMAL + "\nsolver.tol = 1e-7\nsolver.max_iters = 123\n")
    assert cfg.solver == eigensolver.SolveOptions(tol=1e-7, max_iters=123)
    assert loads(MINIMAL).solver == eigensolver.SolveOptions()


@pytest.mark.parametrize("formats", ["xml", "json,xml", "json,", "csv;json"])
def test_unknown_output_format_rejected(formats):
    text = MINIMAL + f"\noutput.formats = {formats}\n"
    with pytest.raises(ConfigError, match="output.formats") as err:
        loads(text)
    assert err.value.line == len(text.splitlines())


def test_readme_config_block_loads():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = loads(block)
    grid = cfg.problem.grid
    assert (grid.topology, grid.d, grid.n, grid.extent) == ("torus", 1, 64, 1.0)
    assert cfg.problem.controls == ((-1.0,), (1.0,))
    assert cfg.problem.sense == "minimize"
    assert cfg.solver == eigensolver.SolveOptions(dt_factor=0.9, tol=1e-9,
                                                  max_iters=5_000_000)
    assert (cfg.mc.T, cfg.mc.dt_sim, cfg.mc.N, cfg.mc.seed) == (
        20.0, 1e-3, 10_000, 0)
    assert cfg.mc_start() == (0.5,)
    assert (cfg.output.dir, cfg.output.formats) == ("out", ("json", "csv"))


INTERVAL_START = """
problem.topology = interval
problem.n        = 32
problem.sigma    = "1"
problem.b        = "0"
problem.r        = "cos(2*pi*x1)"
mc.t             = 0.5
mc.n             = 128
mc.x0            = 0.25
"""


def test_mc_start_key_with_digit(tmp_path, monkeypatch):
    assert loads(INTERVAL_START).mc_start() == (0.25,)
    starts = []
    simulate = cli.cost_samples
    monkeypatch.setattr(cli, "cost_samples",
                        lambda spec, cfg: starts.append(cfg.x0)
                        or simulate(spec, cfg))
    cfg = write_cfg(tmp_path, INTERVAL_START)
    assert run_cli(["simulate", cfg, "--out", tmp_path / "out"]) == 0
    assert starts == [(0.25,)]


@pytest.mark.parametrize("key", ["mc.", "1mc.x", "mc.x-0"])
def test_malformed_keys_rejected(key):
    with pytest.raises(ConfigError, match="malformed key"):
        loads(MINIMAL + f"\n{key} = 1\n")


def test_missing_required():
    with pytest.raises(ConfigError, match="problem.sigma"):
        loads("problem.topology = torus\nproblem.n = 64\n"
              'problem.b = "0"\nproblem.r = "0"\n')


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(args):
    return main([str(a) for a in args])


def read_report(outdir):
    payload = json.loads((outdir / "report.json").read_text())
    jsonschema.validate(payload, SCHEMA)
    return payload


def test_cli_solve(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert run_cli(["solve", cfg, "--out", out]) == 0
    payload = read_report(out)
    assert payload["command"] == "solve"
    assert payload["rho"] == pytest.approx(0.02532, abs=1e-4)
    assert payload["beta"] == pytest.approx(payload["rho"], abs=1e-10)
    assert (out / "phi.csv").exists()
    printed = json.loads(capsys.readouterr().out)
    assert printed == payload


def test_cli_solve_constant_rho(tmp_path):
    text = MINIMAL.replace('"cos(2*pi*x1)"', '"1"')
    out = tmp_path / "out"
    assert run_cli(["solve", write_cfg(tmp_path, text), "--out", out]) == 0
    assert read_report(out)["rho"] == pytest.approx(1.0, abs=1e-10)


def _count_solves(monkeypatch):
    """Record every ``solve_evolution`` call of the CLI with the sense of
    the generator it solves, or the senses it solves in one call."""
    calls = []

    def counting(name, fn):
        return lambda gen, *args, senses=None: (
            calls.append((name, senses or gen.sense))
            or fn(gen, *args, senses=senses))
    monkeypatch.setattr(cli, "solve_evolution",
                        counting("solve_evolution", cli.solve_evolution))
    return calls


def test_cli_solve_single_control_solves_once(tmp_path, monkeypatch):
    calls = _count_solves(monkeypatch)
    out = tmp_path / "out"
    assert run_cli(["solve", write_cfg(tmp_path, MINIMAL), "--out", out]) == 0
    assert calls == [("solve_evolution", "minimize")]
    payload = read_report(out)
    assert payload["beta"] == payload["rho"]
    assert payload["beta_residual"] == payload["residual"]
    # the shortcut stands for a max solve that agrees to the bit
    gen = build_generator(loads(MINIMAL).problem)
    pair = solve_evolution(gen)
    pair_max = solve_evolution(gen.with_sense("maximize"))
    assert pair_max.rho == pair.rho and pair_max.residual == pair.residual
    assert pair_max.phi.tobytes() == pair.phi.tobytes()
    assert pair_max.policy.tobytes() == pair.policy.tobytes()
    assert pair_max.stats.n_iterations == pair.stats.n_iterations
    assert payload["beta_iterations"] == payload["iterations"]
    assert payload["iterations"] == pair.stats.n_iterations


def test_cli_solve_two_controls_solves_max(tmp_path, monkeypatch):
    calls = _count_solves(monkeypatch)
    out = tmp_path / "out"
    assert run_cli(["solve", write_cfg(tmp_path, TWO_CONTROL), "--out", out]) == 0
    assert calls == [("solve_evolution", ("minimize", "maximize"))]
    payload = read_report(out)
    assert payload["beta"] >= payload["rho"]
    # a maximize problem: the solve is the max solve, made once
    calls.clear()
    text = TWO_CONTROL + "problem.sense = maximize\n"
    out = tmp_path / "max"
    assert run_cli(["solve", write_cfg(tmp_path, text), "--out", out]) == 0
    assert calls == [("solve_evolution", "maximize")]
    payload = read_report(out)
    assert payload["beta"] == payload["rho"]
    assert payload["beta_residual"] == payload["residual"]
    assert payload["beta_iterations"] == payload["iterations"]


def test_cli_solve_reports_step_and_iterations(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["solve", write_cfg(tmp_path, TWO_CONTROL),
                    "--out", out]) == 0
    payload = read_report(out)
    cfg = loads(TWO_CONTROL)
    gen = build_generator(cfg.problem)
    assert payload["dt"] == cfg.solver.dt_factor * gen.dt_max
    pair = solve_evolution(gen, cfg.solver)
    pair_max = solve_evolution(gen.with_sense("maximize"), cfg.solver)
    assert payload["iterations"] == pair.stats.n_iterations
    assert payload["beta_iterations"] == pair_max.stats.n_iterations
    assert payload["beta"] == pair_max.rho
    # the schema checks the new keys, and a report without them still passes
    for key, bad in [("dt", 0.0), ("iterations", -1), ("iterations", 2.5),
                     ("beta_iterations", -1), ("beta_iterations", "7")]:
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**payload, key: bad}, SCHEMA)
    jsonschema.validate({k: v for k, v in payload.items()
                         if k not in ("dt", "iterations", "beta_iterations")},
                        SCHEMA)


def test_cli_bounds_ones(tmp_path):
    cfg = write_cfg(tmp_path, TWO_CONTROL)
    out = tmp_path / "out"
    assert run_cli(["bounds", cfg, "--out", out]) == 0
    payload = read_report(out)
    # G(1) = min_v r: lower bound is the min over nodes of min_v r
    assert payload["lower"] == pytest.approx(-0.95, abs=1e-9)
    assert payload["f"] == "ones"


def test_cli_bounds_phi(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert run_cli(["bounds", cfg, "--f", "phi", "--out", out]) == 0
    payload = read_report(out)
    assert payload["gap"] <= 2e-9


def test_cli_dv_hji_orbit_evolve(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert run_cli(["dv", cfg, "--out", out]) == 0
    assert read_report(out)["gap"] <= 1e-3
    assert run_cli(["hji-check", cfg, "--out", out]) == 0
    assert read_report(out)["residual"] < 1e-3
    assert run_cli(["orbit", cfg, "--out", out]) == 0
    payload = read_report(out)
    assert payload["theta"] > 0 and (out / "orbit.csv").exists()
    assert run_cli(["evolve", cfg, "--t-final", "0.5", "--out", out]) == 0
    payload = read_report(out)
    assert payload["t_final"] == pytest.approx(0.5)
    assert (out / "evolve.csv").exists()


@pytest.mark.parametrize("value", [0, -3])
def test_cli_evolve_rejects_record_every_below_one(tmp_path, capsys, value):
    out = tmp_path / "out"
    argv = ["evolve", write_cfg(tmp_path, MINIMAL), "--record-every", value,
            "--out", out]
    assert run_cli(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NonPositiveInput"
    assert "record_every" in err["message"]
    assert err["field"] == "record_every"
    assert not out.exists()


def test_cli_orbit_reports_certified_rho(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL)
    assert run_cli(["solve", cfg, "--out", tmp_path / "solve"]) == 0
    assert run_cli(["orbit", cfg, "--out", tmp_path / "orbit"]) == 0
    solved = read_report(tmp_path / "solve")
    orbit = read_report(tmp_path / "orbit")
    assert orbit["rho"] == solved["rho"]
    assert orbit["growth_per_step"] == 1.0 + orbit["dt"] * orbit["rho"]


def test_cli_simulate_reproducible(tmp_path):
    cfg = write_cfg(tmp_path, TWO_CONTROL)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run_cli(["simulate", cfg, "--sweep", "--out", out1]) == 0
    assert run_cli(["simulate", cfg, "--sweep", "--out", out2]) == 0
    p1, p2 = read_report(out1), read_report(out2)
    assert p1 == p2                            # identical numeric outputs
    assert (out1 / "sweep.csv").read_text() == (out2 / "sweep.csv").read_text()
    assert p1["value"] >= p1["rho"] - 0.3      # loose sanity at small T/N


@pytest.mark.parametrize("value", ["four", "0", "-2"])
def test_cli_simulate_rejects_a_malformed_thread_count(tmp_path, capsys,
                                                       monkeypatch, value):
    monkeypatch.setenv("NISIO_THREADS", value)
    out = tmp_path / "out"
    assert run_cli(["simulate", write_cfg(tmp_path, TWO_CONTROL),
                    "--out", out]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert "NISIO_THREADS" in err["message"]
    assert not (out / "report.json").exists()


def test_cli_simulate_histogram_reuses_samples(tmp_path, monkeypatch):
    chunks = []
    simulate = mc._simulate_chunk
    monkeypatch.setattr(mc, "_simulate_chunk",
                        lambda *args: chunks.append(args) or simulate(*args))
    cfg = write_cfg(tmp_path, TWO_CONTROL)
    plain, hist = tmp_path / "plain", tmp_path / "hist"
    assert run_cli(["simulate", cfg, "--out", plain]) == 0
    assert run_cli(["simulate", cfg, "--histogram", "--out", hist]) == 0
    assert len(chunks) == 2                 # one 400-path chunk per run
    p, h = read_report(plain), read_report(hist)
    assert h["histogram_csv"] == "histogram.csv"
    for key in ("value", "stderr"):
        assert json.dumps(h[key]) == json.dumps(p[key])
    rows = (hist / "histogram.csv").read_text().splitlines()[1:]
    assert len(rows) == 50
    assert sum(int(row.split(",")[2]) for row in rows) == loads(
        Path(cfg).read_text()).mc.N


def test_cli_overrides(tmp_path):
    cfg = write_cfg(tmp_path, TWO_CONTROL)
    out = tmp_path / "out"
    assert run_cli(["simulate", cfg, "--n", 16, "--seed", 99, "--out", out]) == 0
    payload = read_report(out)
    assert payload["n"] == 16 and payload["seed"] == 99


def test_cli_matrix_cw(tmp_path):
    mat = tmp_path / "m.csv"
    np.savetxt(mat, np.array([[1.0, 1.0], [2.0, 1.0]]), delimiter=",")
    out = tmp_path / "out"
    assert run_cli(["matrix-cw", "--matrix", mat, "--out", out]) == 0
    payload = read_report(out)
    oracle = float(np.max(np.linalg.eigvals([[1.0, 1.0], [2.0, 1.0]]).real))
    assert payload["lambda"] == pytest.approx(oracle, rel=1e-10)
    assert payload["lower_at_ones"] <= oracle <= payload["upper_at_ones"]
    assert payload["lower_at_x"] == pytest.approx(oracle, rel=1e-9)


def test_cli_exit_codes(tmp_path, capsys):
    bad = write_cfg(tmp_path, MINIMAL.replace("= 64", "= 4"))
    assert run_cli(["solve", bad]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"

    mat = tmp_path / "periodic.csv"
    np.savetxt(mat, np.array([[0.0, 1.0], [2.0, 0.0]]), delimiter=",")
    assert run_cli(["matrix-cw", "--matrix", mat, "--out", tmp_path]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NoConvergence"


@pytest.mark.parametrize("r", DEEP_R, ids=["sum", "parentheses", "unary-minus"])
def test_cli_deep_expression_prints_a_json_config_error(tmp_path, capsys, r):
    cfg = write_cfg(tmp_path, MINIMAL.replace('"cos(2*pi*x1)"', f'"{r}"'))
    assert run_cli(["solve", cfg, "--out", tmp_path / "out"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["message"].startswith("line 7: problem.r: ")


def test_cli_matrix_cw_rejects_a_nan_tol(tmp_path, capsys):
    mat = tmp_path / "m.csv"
    np.savetxt(mat, np.array([[1.0, 1.0], [2.0, 1.0]]), delimiter=",")
    argv = ["matrix-cw", "--matrix", mat, "--tol", "nan", "--out", tmp_path]
    assert run_cli(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NonPositiveInput" and "tol" in err["message"]


def test_cli_matrix_cw_rejects_an_infinite_tol(tmp_path, capsys):
    # an infinite tol would stop the power iteration at once, at lambda = 3
    # where the root is 1 + sqrt(2)
    mat = tmp_path / "m.csv"
    np.savetxt(mat, np.array([[1.0, 1.0], [2.0, 1.0]]), delimiter=",")
    argv = ["matrix-cw", "--matrix", mat, "--tol", "inf", "--out", tmp_path]
    assert run_cli(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NonPositiveInput" and "tol" in err["message"]
    assert not (tmp_path / "report.json").exists()


def test_cli_error_object_names_its_field(tmp_path, capsys):
    mat = tmp_path / "m.csv"
    np.savetxt(mat, np.array([[1.0, 1.0], [2.0, 1.0]]), delimiter=",")
    runs = [(["evolve", write_cfg(tmp_path, MINIMAL), "--t-final", "inf"],
             {"error": "ValidationError", "field": "t_final",
              "message": "t_final must be nonnegative and finite"}),
            (["matrix-cw", "--matrix", mat, "--tol", "nan"],
             {"error": "NonPositiveInput", "field": "tol",
              "message": "tol must be positive and finite"})]
    for argv, want in runs:
        assert run_cli([*argv, "--out", tmp_path / "out"]) == 1
        assert json.loads(capsys.readouterr().err) == want
    # a config file error names its line, and no field
    bad = write_cfg(tmp_path, MINIMAL.replace("= 64", "= 4"), "bad.cfg")
    assert run_cli(["solve", bad, "--out", tmp_path / "out"]) == 1
    assert "field" not in json.loads(capsys.readouterr().err)


@pytest.mark.parametrize("argv, error", [
    (["solve", "missing.cfg"], "ConfigError"),
    (["matrix-cw", "--matrix", "words.csv"], "ValidationError"),
    (["matrix-cw", "--matrix", "ragged.csv"], "ValidationError"),
    (["matrix-cw", "--matrix", "missing.csv"], "ValidationError")],
    ids=["missing-config", "non-numeric-csv", "ragged-csv", "missing-csv"])
def test_cli_unreadable_input_files_print_json_error(tmp_path, capsys, argv,
                                                      error):
    (tmp_path / "words.csv").write_text("1,a\n2,3\n")
    (tmp_path / "ragged.csv").write_text("1,2\n3\n")
    path = tmp_path / argv[-1]
    argv = [*argv[:-1], path, "--out", tmp_path / "out"]
    assert run_cli(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error and path.name in err["message"]


def test_python_m_nisio_runs_the_cli(tmp_path):
    src = str(ROOT / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [src, *filter(None, [os.environ.get("PYTHONPATH")])])}

    def nisio(*args):
        return subprocess.run([sys.executable, "-m", "nisio", *map(str, args)],
                              capture_output=True, text=True, env=env,
                              cwd=tmp_path, timeout=120)

    version = nisio("--version")
    assert version.returncode == 0
    assert version.stdout.strip() == nisio_version
    bad = nisio("solve", write_cfg(tmp_path, MINIMAL.replace("= 64", "= 4")))
    assert bad.returncode == 1
    assert json.loads(bad.stderr)["error"] == "ConfigError"


def test_cli_json_only_names_no_csv(tmp_path):
    cfg = write_cfg(tmp_path, TWO_CONTROL + "output.formats = json\n")
    runs = [["solve"], ["simulate", "--sweep", "--histogram"], ["orbit"],
            ["evolve", "--t-final", "0.01"]]
    for k, argv in enumerate(runs):
        out = tmp_path / f"out{k}"
        assert run_cli([argv[0], cfg, *argv[1:], "--out", out]) == 0
        payload = read_report(out)
        assert not [key for key in payload if key.endswith("_csv")], argv
        assert sorted(p.name for p in out.iterdir()) == ["report.json"]
