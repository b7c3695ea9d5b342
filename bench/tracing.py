"""Spans around calls into ``nisio``, installed from the benchmark's side.

A :class:`Tracer` replaces a public function of a ``nisio`` module by a
timing wrapper in every ``nisio`` module that imported it, and puts the
originals back on exit.  Per span name it keeps the total time, the number
of calls and, for every enclosing span, the time spent inside it, so a
layer's self time is its time minus its children's.  Spans are aggregated
as they close rather than kept one by one: a solve makes about 80k of them.

Untraced rounds install only the solver and Monte Carlo spans (a few calls
per operation), which give the end-to-end ``solve_s`` and
``path_steps_per_s``.  Traced rounds install every span listed in
:func:`Tracer.install`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self, full: bool):
        self.full = full
        self.stack: list[str] = []
        self.time: Counter = Counter()
        self.calls: Counter = Counter()
        self.within: Counter = Counter()      # (outer, inner) -> seconds
        self.count: Counter = Counter()       # work counts read off results
        self.records_mb = 0.0                 # largest cone record buffer

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, result)`` reads counts."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in self.stack:            # recursion: outermost call only
                return fn(*args, **kwargs)
            self.stack.append(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.stack.pop()
                self.time[name] += dt
                self.calls[name] += 1
                for outer in self.stack:
                    self.within[outer, name] += dt
            if after is not None:
                after(args, result)
            return result
        return wrapper

    # -- counts read from return values -------------------------------------

    def _cone(self, args, result):
        import nisio.cone
        _, ref, stats = result
        self.count["cone.iterations"] += stats.n_iterations
        retained = len(stats.iterations)
        if stats.n_iterations > retained:     # thinned: the list was full once
            retained = getattr(nisio.cone, "_MAX_RECORDS", retained - 1) + 1
        self.records_mb = max(self.records_mb, retained * ref.size * 8 / 1e6)

    def _sweeps(self, args, pair):
        self.count["eigensolver.sweeps"] += pair.policy_iterations

    def _paths(self, args, samples):
        cfg = args[1]
        self.count["mc.path_steps"] += cfg.N * int(round(cfg.T / cfg.dt_sim))

    def _power_iterate(self, fn):
        step = functools.partial(self.span, "semigroup.step")

        def power_iterate(map_fn, *args, **kwargs):
            return fn(step(map_fn), *args, **kwargs)
        return self.span("cone.power_iterate", power_iterate, self._cone)

    # -- installation -------------------------------------------------------

    @contextlib.contextmanager
    def install(self):
        # by module name: the package re-exports a function called ``perron``
        (cli, cone, config, eigensolver, expr, generator, mc, perron,
         variational) = (importlib.import_module(f"nisio.{m}") for m in (
             "cli", "cone", "config", "eigensolver", "expr", "generator", "mc",
             "perron", "variational"))
        targets = [
            (eigensolver, "solve_evolution", "solve.evolution", None),
            (eigensolver, "solve_policy_iteration", "solve.policy_iteration",
             self._sweeps),
            (mc, "cost_samples", "mc.cost_samples", self._paths),
        ]
        if self.full:
            targets += [
                (config, "load_config", "config.load", None),
                (generator, "build_generator", "generator.build", None),
                (generator, "apply_G", "generator.apply_G", None),
                (expr, "evaluate", "expr.evaluate", None),
                (perron, "perron", "perron", None),
                (variational, "dv_check", "variational.dv_check", None),
                (variational, "dv_rate", "variational.dv_rate", None),
                (cli, "_write_report", "cli.write", None),
                (cli, "_write_csv", "cli.write", None),
            ]
        saved = []
        modules = [m for k, m in sys.modules.items()
                   if (k == "nisio" or k.startswith("nisio.")) and m is not None]

        def patch(owner_list, attr, original, replacement):
            for owner in owner_list:
                if owner.__dict__.get(attr) is original:
                    saved.append((owner, attr, original))
                    setattr(owner, attr, replacement)

        try:
            for module, attr, name, after in targets:
                original = getattr(module, attr)
                patch(modules, attr, original, self.span(name, original, after))
            if self.full:
                original = cone.power_iterate
                patch(modules, "power_iterate", original,
                      self._power_iterate(original))
                original = generator.DiscreteGenerator.step_matrices
                patch([generator.DiscreteGenerator], "step_matrices", original,
                      self.span("generator.step_matrices", original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- metrics ------------------------------------------------------------

    @property
    def solve_s(self) -> float:
        return self.time["solve.evolution"] + self.time["solve.policy_iteration"]

    @property
    def mc_s(self) -> float:
        return self.time["mc.cost_samples"]

    @property
    def path_steps(self) -> int:
        return self.count["mc.path_steps"]

    def layer_metrics(self) -> dict:
        """Per-layer values of one traced round (see README for units)."""
        t, n, w = self.time, self.calls, self.within

        def per(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        steps = n["semigroup.step"]
        iters = self.count["cone.iterations"]
        path_steps = self.count["mc.path_steps"]
        mc_eval = w["mc.cost_samples", "expr.evaluate"]
        return {
            "expr.eval_s": t["expr.evaluate"],
            "expr.eval_calls": n["expr.evaluate"],
            "generator.step_matrices_s": t["generator.step_matrices"],
            "generator.apply_G_s": t["generator.apply_G"],
            "generator.apply_G_calls": n["generator.apply_G"],
            "semigroup.steps": steps,
            "semigroup.step_us": per(t["semigroup.step"], steps, 1e6),
            "cone.iterations": iters,
            "cone.overhead_us": per(
                t["cone.power_iterate"] - w["cone.power_iterate", "semigroup.step"],
                iters, 1e6),
            "cone.records_mb": self.records_mb,
            "perron.s": t["perron"],
            "perron.calls": n["perron"],
            "eigensolver.sweeps": self.count["eigensolver.sweeps"],
            "eigensolver.howard_self_s": (
                t["solve.policy_iteration"] - w["solve.policy_iteration", "perron"]),
            "variational.dv_s": t["variational.dv_check"],
            "variational.dv_rate_s": t["variational.dv_rate"],
            "mc.path_steps": path_steps,
            "mc.eval_s": mc_eval,
            "mc.path_step_us": per(t["mc.cost_samples"] - mc_eval, path_steps, 1e6),
            "cli.write_s": t["cli.write"],
        }
