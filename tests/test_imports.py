"""Import cost: heavy scipy submodules load only where they are used."""

import subprocess
import sys
from pathlib import Path
from types import ModuleType

import nisio

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("scipy.optimize", "scipy.sparse.linalg", "scipy.sparse.csgraph")


def test_import_nisio_skips_heavy_scipy_modules():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import nisio; "
            f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.split() == []


def test_star_import_binds_no_module_and_no_retired_name():
    exported = {name: getattr(nisio, name) for name in nisio.__all__}
    assert not [n for n, v in exported.items() if isinstance(v, ModuleType)]
    assert not {"apply_linear", "evolve_linear", "solve_max"} & set(exported)
    for module, name in [(nisio.generator, "apply_linear"),
                         (nisio.semigroup, "evolve_linear"),
                         (nisio.eigensolver, "solve_max")]:
        assert not hasattr(module, name)


DV_CONFIG = """
problem.topology = torus
problem.n        = 32
problem.sigma    = "1"
problem.b        = "0"
problem.r        = "cos(2*pi*x1)"
"""


def test_nisio_dv_skips_scipy_optimize(tmp_path):
    (tmp_path / "dv.cfg").write_text(DV_CONFIG)
    code = ("import contextlib, io, sys; sys.path.insert(0, sys.argv[1]); "
            "from nisio import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['dv', sys.argv[2], '--out', sys.argv[3]])\n"
            "print(code, 'scipy.optimize' in sys.modules)")
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC), str(tmp_path / "dv.cfg"),
         str(tmp_path / "out")],
        capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.split() == ["0", "False"]


TWO_CONTROL_CONFIG = """
problem.topology = torus
problem.n        = 32
problem.controls = -1 ; 1
problem.sigma    = "1"
problem.b        = "v1"
problem.r        = "cos(2*pi*x1) + 0.05*v1^2"
mc.t             = 0.5
mc.dt_sim        = 0.01
mc.n             = 128
"""


def test_nisio_solve_and_simulate_skip_sparse_linalg_and_csgraph(tmp_path):
    """Neither the evolution solve nor Monte Carlo loads SuperLU (through
    ``scipy.sparse.linalg``) or the graph routines: only Noda does."""
    (tmp_path / "two.cfg").write_text(TWO_CONTROL_CONFIG)
    code = ("import contextlib, io, sys; sys.path.insert(0, sys.argv[1]); "
            "from nisio import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main([cmd, sys.argv[2], '--out', sys.argv[3]])\n"
            "             for cmd in ('solve', 'simulate')]\n"
            "print(*codes, *(m for m in ('scipy.sparse.linalg', "
            "'scipy.sparse.csgraph') if m in sys.modules))")
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC), str(tmp_path / "two.cfg"),
         str(tmp_path / "out")],
        capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.split() == ["0", "0"]
