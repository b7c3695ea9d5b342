"""Time one cold set-up: ``import nisio``, config load and generator build.

Usage: ``python3 bench/setup_child.py CONFIG...``.  Prints one JSON object
with the three times in seconds, and the time of a fixed reference job run
before them.  ``run.py`` starts this in a fresh interpreter several times,
because an import can be timed only once per process.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# a fixed compile-and-execute job, the same kind of work as an import, to
# measure how fast this interpreter runs right now.  It runs first, so that
# nothing the program leaves on the heap changes its time.
t0 = perf_counter()
source = "\n".join(f"def f{i}(x, y=1):\n    z = [x * {i} + k for k in range(3)]\n"
                   f"    return {{'a': z, 'b': (x, y)}}\n" for i in range(1500))
exec(compile(source, "reference", "exec"), {})
t1 = perf_counter()
import nisio  # noqa: E402
from nisio.config import load_config  # noqa: E402
t2 = perf_counter()
cfgs = [load_config(path) for path in sys.argv[1:]]
t3 = perf_counter()
for cfg in cfgs:
    nisio.build_generator(cfg.problem)
t4 = perf_counter()
print(json.dumps({"reference_s": t1 - t0, "import_s": t2 - t1,
                  "config_s": t3 - t2, "build_s": t4 - t3}))
