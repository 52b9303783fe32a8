"""Run configuration: one schema table, validation with field-level messages, builders."""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import path as path_mod
from .cone import ConstraintMap
from .grid import EllipticityError, Grid
from .objective import ProblemData
from .risk import RiskMeasure
from .scenario import GENERATOR_NAME, ScenarioConfig, sample
from .solver import SolveOptions


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


# JSON value kinds, each named as its error message names it.
INT, NUM, STR = "an integer", "a finite number", "a string"
NUMS = "a list of finite numbers"
REQUIRED = object()  # the default of a key that must be given
_MAX = sys.float_info.max


def _finite(v) -> bool:
    return type(v) in (int, float) and -_MAX <= v <= _MAX  # NaN, ±inf, huge ints, bool: False


_IS = {
    INT: lambda v: type(v) is int,
    NUM: _finite,
    STR: lambda v: type(v) is str,
    NUMS: lambda v: type(v) is list and all(map(_finite, v)),
}

# Range rules: (test, what the error message says the value must do).
POSITIVE = (lambda v: v > 0, "be > 0")
NONNEGATIVE = (lambda v: v >= 0, "be >= 0")
AT_LEAST_ONE = (lambda v: v >= 1, "be >= 1")


@dataclass(frozen=True)
class Variant:
    """A section whose keys depend on its form: ``forms`` maps each form to its keys.

    The form is the value of the selector ``key``, or ``fallback`` when the section
    omits it (no fallback: the key is required). Without a selector the form is the
    one a key of the section names, else ``fallback``. ``absent`` stands in for an
    omitted section; a section given in part takes the defaults of its form's keys.
    """

    absent: dict
    key: str | None
    fallback: str | None
    forms: dict


_CONSTRAINT_KEYS = {"epsilon": (0.0, NUM, NONNEGATIVE), "delta": (1e-8, NUM, NONNEGATIVE)}

# Every config key: (default, JSON kind[, range rule]), a nested section or a Variant.
SCHEMA = {
    "problem": {
        "n_interior": (127, INT, AT_LEAST_ONE),
        "y_d": Variant({"kind": "parabola", "amplitude": 2.0}, "kind", "parabola", {
            "zero": {},
            "parabola": {"amplitude": (1.0, NUM)},
            "sine": {"amplitude": (1.0, NUM)},
            "values": {"values": (REQUIRED, NUMS)},
        }),
        "mu_tik": (0.01, NUM, POSITIVE),
        "control_lo": (-50.0, NUM),
        "control_hi": (50.0, NUM),
        "constraint": Variant({"kind": "mixed", "epsilon": 0.05, "delta": 1e-8}, "kind", None,
                              dict.fromkeys(("mixed", "volume", "gradient"), _CONSTRAINT_KEYS)),
        "tol_feas": (1e-9, NUM),
    },
    "scenarios": {
        "n_scenarios": (16, INT, AT_LEAST_ONE),
        "seed": (7, INT, NONNEGATIVE),
        "a0": (1.0, NUM),
        "sigma": ([0.3, 0.15], NUMS),
        "a_min": (0.3, NUM, POSITIVE),
        "bound_spec": Variant({"kind": "constant", "value": 0.1}, "kind", None, {
            "constant": {"value": (REQUIRED, NUM)},
            "affine-in-s": {"c0": (REQUIRED, NUM), "c1": (REQUIRED, NUM)},
            "per-scenario-file": {"path": (REQUIRED, STR)},
        }),
    },
    "risk": {
        "kind": ("expectation", STR, (lambda v: v in ("expectation", "avar", "avar-smooth"),
                                      "be expectation | avar | avar-smooth")),
        "alpha": (0.5, NUM, (lambda v: 0 < v <= 1, "lie in (0, 1]")),
        "tau": (1e-3, NUM),
    },
    "solver": {
        "max_iters": (50000, INT, AT_LEAST_ONE),
        "tol_stationarity": (1e-8, NUM, POSITIVE),
    },
    "gamma_schedule": Variant({}, None, "exponents", {
        "values": {"values": (REQUIRED, NUMS)},
        "exponents": {"start_exp": (0, INT), "stop_exp": (6, INT),
                      "per_decade": (1, INT, AT_LEAST_ONE)},
    }),
    "feasible_reference": Variant({"mode": "scaled-initial"}, "mode", "none",
                                  {"scaled-initial": {}, "none": {}}),
    "output_dir": ("out", STR),
}


def _field(name: str, key: str) -> str:
    return f"{name}.{key}" if name else key


def _section(schema, raw, name: str) -> dict:
    """A new dict of every key of ``schema``: ``raw``'s value, checked, or the default."""
    if type(raw) is not dict:
        raise ConfigError(f"{name or 'config'} must be an object")
    out = {}
    if isinstance(schema, Variant):
        if schema.key is None:
            form = next((f for f in schema.forms if f in raw), schema.fallback)
        else:
            form = out[schema.key] = raw.get(schema.key, schema.fallback)
            if type(form) is not str or form not in schema.forms:
                raise ConfigError(f"{name}.{schema.key} must be {' | '.join(schema.forms)}")
        schema = schema.forms[form]
    for key, entry in schema.items():
        if type(entry) is tuple:
            if key not in raw:
                if entry[0] is REQUIRED:
                    raise ConfigError(f"{_field(name, key)} is required")
                out[key] = entry[0]
                continue
            value = out[key] = raw[key]
            if not _IS[entry[1]](value):
                raise ConfigError(f"{_field(name, key)} must be {entry[1]}")
            if len(entry) > 2 and not entry[2][0](value):
                raise ConfigError(f"{_field(name, key)} must {entry[2][1]}")
        else:
            absent = entry.absent if isinstance(entry, Variant) else {}
            out[key] = _section(entry, raw.get(key, absent), _field(name, key))
    for key in raw:
        if key not in out:
            raise ConfigError(f"unknown config key {_field(name, key)}")
    return out


def load_config(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return resolve(raw)


def resolve(raw: dict) -> dict:
    """Check ``raw`` against SCHEMA and fill in defaults; returns the complete config."""
    cfg = _section(SCHEMA, raw, "")
    problem, scenarios, sched = cfg["problem"], cfg["scenarios"], cfg["gamma_schedule"]
    _require(problem["control_lo"] <= problem["control_hi"],
             "problem.control_lo must be <= problem.control_hi")
    _require(scenarios["a0"] - sum(abs(s) for s in scenarios["sigma"]) > 0.0,
             "scenarios.a0 minus the sigma budget must stay positive")
    if "values" in sched:
        try:
            path_mod.validate_schedule(sched["values"])
        except ValueError as exc:
            raise ConfigError(f"gamma_schedule.values: {exc}") from exc
    else:
        _require(sched["stop_exp"] > sched["start_exp"],
                 "gamma_schedule.stop_exp must exceed start_exp")
        # gamma = 10^exp must be a finite, positive, normal float
        _require(sched["stop_exp"] <= sys.float_info.max_10_exp,
                 f"gamma_schedule.stop_exp must be <= {sys.float_info.max_10_exp}")
        _require(sched["start_exp"] >= sys.float_info.min_10_exp,
                 f"gamma_schedule.start_exp must be >= {sys.float_info.min_10_exp}")
    cfg["generator"] = GENERATOR_NAME
    return cfg


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _target_field(spec, nodes: np.ndarray) -> np.ndarray:
    kind = spec["kind"]
    if kind == "zero":
        return np.zeros_like(nodes)
    if kind == "parabola":
        return spec["amplitude"] * nodes * (1.0 - nodes)
    if kind == "sine":
        return spec["amplitude"] * np.sin(np.pi * nodes)
    values = np.asarray(spec["values"], dtype=float)
    if values.shape != nodes.shape:
        raise ConfigError("problem.y_d.values length must equal n_interior")
    return values


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
            # (kind, then the keys of its form in SCHEMA order), e.g. ("constant", value)
            bound_spec=tuple(cfg["scenarios"]["bound_spec"].values()),
        )
        scenarios = sample(scen_cfg, grid.n_cells, bound_points)
    except ValueError as exc:
        raise ConfigError(f"scenarios: {exc}") from exc
    constraint = ConstraintMap(
        kind=ckind,
        grid=grid,
        bounds=scenarios.bounds,
        epsilon=float(cfg["problem"]["constraint"]["epsilon"]),
        delta=float(cfg["problem"]["constraint"]["delta"]),
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
    try:
        return ProblemData.build(
            grid=grid,
            scenarios=scenarios,
            constraint=constraint,
            risk=risk,
            y_d=y_d,
            mu_tik=float(cfg["problem"]["mu_tik"]),
            lo=float(cfg["problem"]["control_lo"]),
            hi=float(cfg["problem"]["control_hi"]),
            tol_feas=float(cfg["problem"]["tol_feas"]),
        )
    except EllipticityError as exc:  # the sampled conductivities give no finite stencil
        raise ConfigError(f"scenarios: {exc}") from exc


def build_schedule(cfg: dict) -> np.ndarray:
    sched = cfg["gamma_schedule"]
    if "values" in sched:
        return path_mod.validate_schedule(sched["values"])
    return path_mod.decade_schedule(sched["start_exp"], sched["stop_exp"], sched["per_decade"])


def build_solve_options(cfg: dict) -> SolveOptions:
    return SolveOptions(**cfg["solver"])  # the solver section holds exactly its fields
