"""Per-layer tracing of riskpath by wrapping module attributes from outside.

Nothing under ``src/`` changes: inside a ``with Tracer():`` block each traced
function is replaced on its module by a timing wrapper, and the original is put
back on exit. Hot inner calls (about 670k state solves on a full small path)
are aggregated, not stored: calls, inclusive time and self time per layer and
per phase, where a phase is one gamma point of the path (from the start of its
``solver.minimize`` call to the start of the next), or the set-up before and
the reporting after the path. One coarse span is kept per gamma point and per
``cli.cmd_path`` call. Self time is a call's duration minus the time spent in
traced calls it made.
"""

from __future__ import annotations

import importlib
import time

# (module whose attribute is replaced, attribute, layer name reported).
# Callers look these names up on the module at call time, so replacing the
# attribute intercepts every call made through it.
TARGETS = (
    ("riskpath.objective", "solve_state", "grid.solve_state"),
    ("riskpath.objective", "assemble", "grid.assemble"),
    ("riskpath.objective", "evaluate", "objective.evaluate"),
    ("riskpath.objective", "objective_only", "objective.objective_only"),
    ("riskpath.objective", "unpenalized_objective", "objective.unpenalized_objective"),
    ("riskpath.cone", "constraint_eval", "cone.constraint_eval"),
    ("riskpath.cone", "penalty", "cone.penalty"),
    ("riskpath.cone", "penalty_multiplier", "cone.penalty_multiplier"),
    ("riskpath.cone", "constraint_adjoints", "cone.constraint_adjoints"),
    ("riskpath.risk", "evaluate", "risk.evaluate"),
    ("riskpath.risk", "subgradient", "risk.subgradient"),
    ("riskpath.solver", "minimize", "solver.minimize"),
    ("riskpath.kkt", "check_limit_system", "kkt.check_limit_system"),
    ("riskpath.path", "run_path", "path.run_path"),
    ("riskpath.path", "shrink_to_feasible", "path.shrink_to_feasible"),
    ("riskpath.path", "records_to_csv", "path.records_to_csv"),
    ("riskpath.config", "build_problem", "config.build_problem"),
    ("riskpath.config", "sample", "scenario.sample"),
    ("riskpath.cli", "cmd_path", "cli.cmd_path"),
)

PRE, POST = "pre", "post"


class Tracer:
    """Context manager that traces the TARGETS while it is active."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.absent: list[str] = []
        self.by_phase: dict[str, dict[str, list]] = {}
        self.spans: list[dict] = []
        self._saved: list[tuple] = []
        self._stack: list[float] = []  # child time accumulated by each open call
        self._set_phase(PRE)

    def _set_phase(self, phase: str):
        self._current = self.by_phase.setdefault(phase, {})

    def __enter__(self):
        for module_name, attr, layer in self.targets:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                self.absent.append(layer)
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(layer)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, layer: str, fn):
        stack = self._stack
        clock = time.perf_counter
        on_enter = on_exit = None
        if layer == "solver.minimize":
            on_enter, on_exit = self._gamma_enter, self._gamma_exit
        elif layer == "path.run_path":
            on_exit = self._path_exit
        elif layer == "cli.cmd_path":
            on_enter, on_exit = self._command_enter, self._command_exit

        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter(args, kwargs)
            stack.append(0.0)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                elapsed = end - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats = self._current.get(layer)
                if stats is None:
                    stats = self._current[layer] = [0, 0.0, 0.0]
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - child
                if on_exit is not None:
                    on_exit(start, end, result)

        traced.__wrapped__ = fn
        return traced

    def _gamma_enter(self, args, kwargs):
        gamma = kwargs.get("gamma", args[1] if len(args) > 1 else None)
        self._gamma = float(gamma)
        self._set_phase(f"gamma={self._gamma:.0e}")

    def _gamma_exit(self, start, end, result):
        self.spans.append({
            "name": "solver.minimize",
            "gamma": self._gamma,
            "start": start,
            "end": end,
            "iterations": getattr(result, "iterations", None),
        })

    def _path_exit(self, start, end, result):
        self._set_phase(POST)

    def _command_enter(self, args, kwargs):
        self._set_phase(PRE)

    def _command_exit(self, start, end, result):
        self.spans.append({"name": "cli.cmd_path", "start": start, "end": end, "exit": result})

    def totals(self) -> dict[str, dict]:
        """Per layer: calls, inclusive seconds and self seconds over all phases."""
        out = {}
        for phase_stats in self.by_phase.values():
            for layer, (calls, incl, self_s) in phase_stats.items():
                acc = out.setdefault(layer, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
                acc["calls"] += calls
                acc["incl_s"] += incl
                acc["self_s"] += self_s
        return out

    def gamma_iterations(self) -> dict[float, int]:
        """Solver iterations summed per gamma value over all traced paths."""
        out: dict[float, int] = {}
        for span in self.spans:
            if span["name"] == "solver.minimize" and span["iterations"] is not None:
                out[span["gamma"]] = out.get(span["gamma"], 0) + span["iterations"]
        return out

    def phases(self) -> dict[str, dict]:
        return {
            phase: {layer: {"calls": c, "incl_s": i, "self_s": s} for layer, (c, i, s) in stats.items()}
            for phase, stats in self.by_phase.items()
            if stats
        }
