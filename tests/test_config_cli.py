"""Config parsing/validation and the command line driver."""

import json

import numpy as np
import pytest

import jsonschema

from nisio.cli import main
from nisio.config import loads
from nisio import mc
from nisio.errors import ConfigError, ValidationError

SCHEMA = json.load(open("schema/report.schema.json"))

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


def test_unknown_and_duplicate_keys():
    with pytest.raises(ConfigError, match="unknown keys"):
        loads(MINIMAL + "\nproblem.shape = round\n")
    with pytest.raises(ConfigError, match="duplicate"):
        loads(MINIMAL + '\nproblem.r = "1"\n')
    with pytest.raises(ConfigError, match="section.key"):
        loads("just some words\n")


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
        open(cfg).read()).mc.N


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
