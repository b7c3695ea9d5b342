"""Import cost: heavy scipy submodules load only where they are used."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("scipy.optimize", "scipy.sparse.linalg", "scipy.sparse.csgraph")


def test_import_nisio_skips_heavy_scipy_modules():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import nisio; "
            f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.split() == []
