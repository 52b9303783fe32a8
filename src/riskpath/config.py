"""Run configuration: JSON schema, validation with field-level messages, builders."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from . import path as path_mod
from .cone import ConstraintMap
from .grid import Grid
from .objective import ProblemData
from .risk import RiskMeasure
from .scenario import GENERATOR_NAME, ScenarioConfig, sample
from .solver import SolveOptions


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


DEFAULTS = {
    "problem": {
        "n_interior": 127,
        "y_d": {"kind": "parabola", "amplitude": 2.0},
        "mu_tik": 0.01,
        "control_lo": -50.0,
        "control_hi": 50.0,
        "constraint": {"kind": "mixed", "epsilon": 0.05, "delta": 1e-8},
        "tol_feas": 1e-9,
    },
    "scenarios": {
        "n_scenarios": 16,
        "seed": 7,
        "a0": 1.0,
        "sigma": [0.3, 0.15],
        "a_min": 0.3,
        "bound_spec": {"kind": "constant", "value": 0.1},
    },
    "risk": {"kind": "expectation", "alpha": 0.5, "tau": 1e-3},
    "solver": {"max_iters": 50000, "tol_stationarity": 1e-8, "accelerate": True},
    "gamma_schedule": {"start_exp": 0, "stop_exp": 6, "per_decade": 1},
    "feasible_reference": {"mode": "scaled-initial"},
    "output_dir": "out",
}


# Subsections that an override replaces wholesale instead of merging key by key:
# name -> (selector key, its default, {selector value: {allowed key: required}}).
# Keys hold numbers, except "path" (a string) and "values" (a list of numbers).
VARIANTS = {
    "problem.y_d": ("kind", "parabola", {"zero": {}, "parabola": {"amplitude": False},
                                         "sine": {"amplitude": False}, "values": {"values": True}}),
    "problem.constraint": ("kind", None, {kind: {"epsilon": False, "delta": False}
                                          for kind in ("mixed", "volume", "gradient")}),
    "scenarios.bound_spec": ("kind", None, {"constant": {"value": True},
                                            "affine-in-s": {"c0": True, "c1": True},
                                            "per-scenario-file": {"path": True}}),
    "feasible_reference": ("mode", "none", {"scaled-initial": {}, "none": {}}),
}
SCHEDULE_KEYS = {"start_exp": False, "stop_exp": False, "per_decade": False}


def _merge(defaults, overrides, prefix=""):
    if not isinstance(overrides, dict):
        raise ConfigError(f"{prefix or 'config'} must be an object")
    merged = {}
    for key, default in defaults.items():
        if key in overrides:
            value = overrides[key]
            name = f"{prefix}{key}"
            if name in VARIANTS:
                _variant(value, name)
            elif isinstance(default, dict) and name != "gamma_schedule":
                value = _merge(default, value, f"{name}.")
            merged[key] = value
        else:
            merged[key] = default
    for key in overrides:
        if key not in defaults:
            raise ConfigError(f"unknown config key {prefix}{key}")
    return merged


def _subsection(spec, name: str, keys: dict, selector=None):
    """Reject unknown or missing keys of a wholesale subsection and type-check its values."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{name} must be an object")
    for key, value in spec.items():
        if key == selector:
            continue
        if key not in keys:
            raise ConfigError(f"unknown config key {name}.{key}")
        if key == "path":
            _require(isinstance(value, str), f"{name}.path must be a string")
        elif key == "values":
            _require(isinstance(value, list), f"{name}.values must be a list of numbers")
            for v in value:
                _number(v, f"{name}.values")
        else:
            _number(value, f"{name}.{key}", integer=name == "gamma_schedule")
    for key, required in keys.items():
        if required and key not in spec:
            raise ConfigError(f"{name}.{key} is required")


def _variant(spec, name: str):
    selector, default, variants = VARIANTS[name]
    if not isinstance(spec, dict):
        raise ConfigError(f"{name} must be an object")
    value = spec.get(selector, default)
    if not (isinstance(value, str) and value in variants):
        raise ConfigError(f"{name}.{selector} must be {' | '.join(variants)}")
    _subsection(spec, name, variants[value], selector)


def load_config(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return resolve(raw)


def resolve(raw: dict) -> dict:
    """Merge with defaults and validate; returns the fully resolved config."""
    cfg = _merge(DEFAULTS, raw)
    problem, scenarios, constraint = cfg["problem"], cfg["scenarios"], cfg["problem"]["constraint"]
    _require(_number(problem["n_interior"], "problem.n_interior", integer=True) >= 1,
             "problem.n_interior must be >= 1")
    _require(_number(problem["mu_tik"], "problem.mu_tik") > 0.0, "problem.mu_tik must be > 0")
    _require(
        _number(problem["control_lo"], "problem.control_lo")
        <= _number(problem["control_hi"], "problem.control_hi"),
        "problem.control_lo must be <= problem.control_hi",
    )
    _number(problem["tol_feas"], "problem.tol_feas")
    _require(isinstance(cfg["output_dir"], str), "output_dir must be a string")
    _require(constraint.get("epsilon", 0.0) >= 0.0, "problem.constraint.epsilon must be >= 0")
    _require(constraint.get("delta", 0.0) >= 0.0, "problem.constraint.delta must be >= 0")
    _require(_number(scenarios["n_scenarios"], "scenarios.n_scenarios", integer=True) >= 1,
             "scenarios.n_scenarios must be >= 1")
    _number(scenarios["seed"], "scenarios.seed", integer=True)
    _require(_number(scenarios["a_min"], "scenarios.a_min") > 0.0, "scenarios.a_min must be > 0")
    _require(isinstance(scenarios["sigma"], list), "scenarios.sigma must be a list of numbers")
    _require(
        _number(scenarios["a0"], "scenarios.a0")
        - sum(abs(_number(s, "scenarios.sigma")) for s in scenarios["sigma"]) > 0.0,
        "scenarios.a0 minus the sigma budget must stay positive",
    )
    _require(cfg["risk"]["kind"] in ("expectation", "avar", "avar-smooth"),
             "risk.kind must be expectation | avar | avar-smooth")
    _require(0.0 < _number(cfg["risk"]["alpha"], "risk.alpha") <= 1.0,
             "risk.alpha must lie in (0, 1]")
    _number(cfg["risk"]["tau"], "risk.tau")
    solver = cfg["solver"]
    _require(_number(solver["max_iters"], "solver.max_iters", integer=True) >= 1,
             "solver.max_iters must be >= 1")
    _require(_number(solver["tol_stationarity"], "solver.tol_stationarity") > 0.0,
             "solver.tol_stationarity must be > 0")
    _require(isinstance(solver["accelerate"], bool), "solver.accelerate must be true or false")
    sched = cfg["gamma_schedule"]
    values = isinstance(sched, dict) and "values" in sched
    _subsection(sched, "gamma_schedule", {"values": True} if values else SCHEDULE_KEYS)
    if values:
        try:
            path_mod.validate_schedule(sched["values"])
        except ValueError as exc:
            raise ConfigError(f"gamma_schedule.values: {exc}") from exc
    else:
        _require(sched.get("stop_exp", 6) > sched.get("start_exp", 0),
                 "gamma_schedule.stop_exp must exceed start_exp")
        _require(sched.get("per_decade", 1) >= 1, "gamma_schedule.per_decade must be >= 1")
    cfg["generator"] = GENERATOR_NAME
    return cfg


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _number(value, name: str, integer: bool = False):
    """value if it is a JSON number (an integer if asked); ConfigError naming the field otherwise."""
    kinds = int if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(f"{name} must be {'an integer' if integer else 'a number'}")
    return value


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _target_field(spec, nodes: np.ndarray) -> np.ndarray:
    kind = spec.get("kind", "parabola")
    if kind == "zero":
        return np.zeros_like(nodes)
    if kind == "parabola":
        return spec.get("amplitude", 1.0) * nodes * (1.0 - nodes)
    if kind == "sine":
        return spec.get("amplitude", 1.0) * np.sin(np.pi * nodes)
    values = np.asarray(spec["values"], dtype=float)
    if values.shape != nodes.shape:
        raise ConfigError("problem.y_d.values length must equal n_interior")
    return values


def _bound_spec_tuple(spec: dict):
    kind = spec["kind"]  # checked by resolve against VARIANTS
    if kind == "constant":
        return ("constant", float(spec["value"]))
    if kind == "affine-in-s":
        return ("affine-in-s", float(spec["c0"]), float(spec["c1"]))
    return ("per-scenario-file", spec["path"])


def build_problem(cfg: dict) -> ProblemData:
    grid = Grid(n_interior=int(cfg["problem"]["n_interior"]))
    ckind = cfg["problem"]["constraint"]["kind"]
    if ckind == "mixed":
        bound_points = grid.nodes
    elif ckind == "gradient":
        bound_points = grid.cell_midpoints
    else:
        bound_points = np.array([0.0])
    try:
        scen_cfg = ScenarioConfig(
            n_scenarios=int(cfg["scenarios"]["n_scenarios"]),
            seed=int(cfg["scenarios"]["seed"]),
            a0=float(cfg["scenarios"]["a0"]),
            sigma=tuple(cfg["scenarios"]["sigma"]),
            a_min=float(cfg["scenarios"]["a_min"]),
            bound_spec=_bound_spec_tuple(cfg["scenarios"]["bound_spec"]),
        )
        scenarios = sample(scen_cfg, grid.n_cells, bound_points)
    except ValueError as exc:
        raise ConfigError(f"scenarios: {exc}") from exc
    constraint = ConstraintMap(
        kind=ckind,
        grid=grid,
        bounds=scenarios.bounds,
        epsilon=float(cfg["problem"]["constraint"].get("epsilon", 0.0)),
        delta=float(cfg["problem"]["constraint"].get("delta", 1e-8)),
    )
    try:
        risk = RiskMeasure(
            kind=cfg["risk"]["kind"],
            alpha=float(cfg["risk"]["alpha"]),
            tau=float(cfg["risk"]["tau"]),
        )
    except ValueError as exc:
        raise ConfigError(f"risk: {exc}") from exc
    y_d = _target_field(cfg["problem"]["y_d"], grid.nodes)
    return ProblemData.build(
        grid=grid,
        scenarios=scenarios,
        constraint=constraint,
        risk=risk,
        y_d=y_d,
        mu_tik=float(cfg["problem"]["mu_tik"]),
        lo=float(cfg["problem"]["control_lo"]),
        hi=float(cfg["problem"]["control_hi"]),
        tol_feas=float(cfg["problem"].get("tol_feas", 1e-9)),
    )


def build_schedule(cfg: dict) -> np.ndarray:
    sched = cfg["gamma_schedule"]
    if "values" in sched:
        return path_mod.validate_schedule(sched["values"])
    return path_mod.decade_schedule(
        int(sched.get("start_exp", 0)),
        int(sched.get("stop_exp", 6)),
        int(sched.get("per_decade", 1)),
    )


def build_solve_options(cfg: dict) -> SolveOptions:
    return SolveOptions(**cfg["solver"])  # the solver section holds exactly its fields
