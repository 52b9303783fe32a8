"""Batch entry point: solve / path / verify subcommands over a JSON config."""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import objective as obj_mod
from . import path as path_mod
from . import risk as risk_mod
from .cone import constraint_adjoints, constraint_eval, constraint_slope, penalty, project
from .config import ConfigError
from .grid import DivergedError, solve_state

def _write(path: Path, text: str):
    """Replace the file at ``path`` with ``text`` in UTF-8: one unbuffered binary write,
    repeated on the rest of the bytes if the system writes only a part of them."""
    data = memoryview(text.encode())
    with open(path, "wb", buffering=0) as f:
        while data:
            data = data[f.write(data):]


def _write_json(path: Path, payload):
    # one line with sorted keys, so json.dumps runs its C encoder
    _write(path, json.dumps(payload, sort_keys=True) + "\n")


def _header(cfg):  # the tag of the output files, and the start of each summary
    digest = config_mod.config_hash(cfg)
    return f"{digest}_s{cfg['scenarios']['seed']}", {
        "config": cfg,
        "config_hash": digest,
        "generator": cfg["generator"],
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def cmd_solve(cfg: dict, gamma: float, out: Path) -> int:
    data = config_mod.build_problem(cfg)
    opts = config_mod.build_solve_options(cfg)
    tag, summary = _header(cfg)
    log_lines = []

    def log_cb(it, f, stat, step, products):
        log_lines.append(f"iter={it} j_gamma={float(f)!r} stationarity={float(stat)!r} "
                         f"step={float(step)!r} cg={products}")

    try:
        (point,) = path_mod.run_path(data, [gamma], opts, callback=log_cb)
    except DivergedError as exc:
        print(f"{exc}: {exc.__cause__}", file=sys.stderr)
        return 1
    record, result = point.record, point.result
    summary.update(
        {
            "gamma": gamma,
            "converged": record.converged,
            "iterations": record.iterations,
            "hessian_products": result.hessian_products,
            "backtracks": result.backtracks,
            "stationarity": record.stationarity,
            "j_gamma": record.j_gamma,
            "j": record.j,
            "feasible": float(np.max(result.bundle.constraint_values)) <= data.tol_feas,
            "max_violation": record.max_violation,
            "control": [repr(float(v)) for v in result.bundle.x1],
        }
    )
    _write_json(out / f"solve_{tag}.json", summary)
    _write_json(out / f"kkt_{tag}.json", point.report.as_dict())
    _write(out / f"iterations_{tag}.log", "\n".join(log_lines) + "\n")
    return 0 if record.converged else 2


def cmd_path(cfg: dict, out: Path, cold: bool = False) -> int:
    data = config_mod.build_problem(cfg)
    opts = config_mod.build_solve_options(cfg)
    schedule = config_mod.build_schedule(cfg)
    tag, slopes = _header(cfg)
    records, reports = [], []  # plain values: a point's bundle goes once the next is solved
    try:
        for step in path_mod.run_path(data, schedule, opts, warm_start=not cold):
            records.append(step.record)
            reports.append(step.report.as_dict())
    except DivergedError as exc:
        _write(out / f"path_{tag}.csv", path_mod.records_to_csv(records))
        print(f"path aborted: {exc}", file=sys.stderr)
        return 1

    _write(out / f"path_{tag}.csv", path_mod.records_to_csv(records))
    _write_json(out / f"kkt_path_{tag}.json", reports)

    assertions = {}
    jg = [r.j_gamma for r in records]
    assertions["j_gamma_nondecreasing"] = all(
        b >= a - 1e-10 for a, b in zip(jg, jg[1:])
    )
    sq = [r.sq_violation for r in records if r.sq_violation > 0]
    assertions["sq_violation_decreasing_after_first_decade"] = all(
        b < a for a, b in zip(sq[1:], sq[2:])
    )
    if cfg["feasible_reference"]["mode"] == "scaled-initial":
        try:
            _, j_ref = path_mod.shrink_to_feasible(data, step.result.bundle)  # the last point's
        except ValueError as exc:
            print(f"error: feasible_reference.mode scaled-initial: {exc}", file=sys.stderr)
            return 1
        assertions["sandwich_j_le_jgamma_le_jref"] = all(
            r.j <= r.j_gamma + 1e-10 and r.j_gamma <= j_ref + 1e-10 for r in records
        )
        assertions["j_reference"] = j_ref
    try:
        slope, r2 = path_mod.fit_decay_slope(records, "sq_violation")
        slopes["sq_violation_slope"] = slope
        slopes["sq_violation_r2"] = r2
    except path_mod.InsufficientDataError as exc:
        slopes["sq_violation_slope_error"] = str(exc)
    slopes["assertions"] = assertions
    w_min = float(data.scenarios.weights.min())  # paths compare at equal gamma w_min
    slopes["points"] = [{"gamma": r.gamma, "gamma_min_weight": r.gamma * w_min} for r in records]
    _write_json(out / f"slopes_{tag}.json", slopes)
    return 0 if all(r.converged for r in records) else 2


@np.errstate(over="ignore", invalid="ignore")  # an overflow fails the check as NaN
def reduced_gradient_fd_error(data, rng) -> float:
    """Worst relative error of the reduced gradient against central differences.

    Random control, random unit directions d. A d with |<g, d>| below its root
    mean square |g|/sqrt(n) is redrawn: near-orthogonal to g, round-off in the
    difference quotient, not the gradient, would set its relative error.
    """
    gamma, eps = 10.0, 1e-6
    n = data.grid.n_interior
    x0 = data.clamp(rng.standard_normal(n))
    grad = obj_mod.evaluate(data, gamma, x0).gradient
    floor = np.linalg.norm(grad) / np.sqrt(n)
    errors = []
    for _ in range(10):
        for _ in range(100):  # bounded: a non-finite gradient must fail, not stall
            d = rng.standard_normal(n)
            d /= np.linalg.norm(d)
            an = float(np.dot(grad, d))
            if abs(an) >= floor:
                break
        fd = (
            obj_mod.objective_only(data, gamma, x0 + eps * d)
            - obj_mod.objective_only(data, gamma, x0 - eps * d)
        ) / (2 * eps)
        errors.append(abs(fd - an) / max(1e-12, abs(fd)))
    return float(np.max(errors))  # NaN propagates and fails the check


def _verify_checks(cfg: dict):
    """The headless verification battery; yields (name, passed, detail)."""
    rng = np.random.Generator(np.random.Philox(12345))
    data = config_mod.build_problem(cfg)
    g, cone = data.grid, data.cone  # the cone the penalty uses

    # projection characterization, idempotence, nonexpansiveness
    ok, worst = True, 0.0
    for _ in range(200):
        k = rng.standard_normal(g.shape)
        p = project(k)
        resid = abs(cone.inner(p, k - p))
        worst = max(worst, resid)
        ok &= np.all(p >= 0.0) and resid <= 1e-12
        q = rng.standard_normal(g.shape)
        ok &= cone.norm(project(k) - project(q)) <= cone.norm(k - q) + 1e-12
        ok &= np.allclose(project(p), p)
    yield "projection_identities", bool(ok), f"max |(p, k-p)_H| = {worst:.3e}"

    # penalty gradient vs central differences of the envelope
    ok, worst = True, 0.0
    gamma = 37.0
    for _ in range(50):
        i_val = rng.standard_normal(g.shape)
        lam = penalty(cone, gamma, i_val).multiplier  # the solver's multiplier
        eps = 1e-6
        for _ in range(3):
            d = rng.standard_normal(g.shape)
            fd = (
                penalty(cone, gamma, i_val + eps * d).value
                - penalty(cone, gamma, i_val - eps * d).value
            ) / (2 * eps)
            an = cone.inner(lam, d)
            err = abs(fd - an) / max(1.0, abs(an))
            worst = max(worst, err)
            ok &= err <= 1e-6
    yield "penalty_gradient_fd", bool(ok), f"max rel err = {worst:.3e}"

    # risk axioms on the configured measure
    rm = data.risk
    weights = np.full(8, 1.0 / 8)
    ok = True
    for _ in range(200):
        xi = rng.standard_normal(8)
        xi2 = rng.standard_normal(8)
        r_xi, r_xi2 = risk_mod.evaluate(rm, xi, weights), risk_mod.evaluate(rm, xi2, weights)
        for lam_mix in (0.25, 0.5, 0.75):
            mixed = risk_mod.evaluate(rm, lam_mix * xi + (1 - lam_mix) * xi2, weights)
            ok &= mixed <= lam_mix * r_xi + (1 - lam_mix) * r_xi2 + 1e-10
        ok &= risk_mod.evaluate(rm, np.minimum(xi, xi2), weights) <= risk_mod.evaluate(
            rm, np.maximum(xi, xi2), weights
        ) + 1e-12
        c = float(rng.standard_normal())
        ok &= abs(risk_mod.evaluate(rm, xi + c, weights) - r_xi - c) <= 1e-10
        if rm.positively_homogeneous:  # the coherent measures
            lam_pos = float(rng.uniform(0.1, 3.0))
            ok &= abs(risk_mod.evaluate(rm, lam_pos * xi, weights) - lam_pos * r_xi) <= 1e-10
            theta = risk_mod.subgradient(rm, xi, weights).theta
            ok &= risk_mod.duality_gap(rm, xi, theta, weights) <= 1e-12
    yield "risk_axioms_and_duality", bool(ok), f"measure = {rm.kind}"

    # constraint adjoint identity on the configured problem, first scenario
    x1 = rng.standard_normal(g.shape)
    x2 = rng.standard_normal(g.shape)
    ok, worst, i_slope = True, 0.0, constraint_slope(data.constraint, x2)
    for _ in range(10):
        i0 = constraint_eval(data.constraint, x1, x2)[0]
        lam = np.abs(rng.standard_normal(i0.shape))
        du = rng.standard_normal(g.shape)
        dy = rng.standard_normal(g.shape)
        eps = 1e-7
        ip = constraint_eval(data.constraint, x1 + eps * du, x2 + eps * dy)[0]
        im = constraint_eval(data.constraint, x1 - eps * du, x2 - eps * dy)[0]
        fd = cone.inner(lam, (ip - im) / (2 * eps))
        adj_y = constraint_adjoints(data.constraint, i_slope, lam)  # i_x1^* lam = -c adj_y
        an = float(np.dot(-data.constraint.control_coefficient * adj_y, du) + np.dot(adj_y, dy))
        err = abs(fd - an) / max(1.0, abs(an))
        worst = max(worst, err)
        ok &= err <= 1e-6
    yield "constraint_adjoint_identity", bool(ok), f"max rel err = {worst:.3e}"

    # reduced gradient vs central differences on the configured problem
    tol = 1e-6 if data.risk.kind == "expectation" else 1e-4
    if data.risk.kind == "avar":
        yield "reduced_gradient_fd", True, "skipped: exact tail risk is nonsmooth"
    else:
        try:
            worst = reduced_gradient_fd_error(data, rng)
        except DivergedError:  # a state or adjoint solve overflowed
            worst = np.nan
        yield "reduced_gradient_fd", bool(worst <= tol), f"max rel err = {worst:.3e}"

    # solve self-adjointness, every scenario's operator at once
    op = data.operator
    r = rng.standard_normal(op.diag.shape)
    q = rng.standard_normal(op.diag.shape)
    lhs = g.inner(solve_state(op, r), q)
    rhs = g.inner(r, solve_state(op, q))
    err = float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs))))
    yield "solve_self_adjointness", err <= 1e-10, f"rel err = {err:.3e}"


def cmd_verify(cfg: dict, out: Path) -> int:
    checks = []
    for name, passed, detail in _verify_checks(cfg):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})
    tag, payload = _header(cfg)
    payload["checks"] = checks
    _write_json(out / f"checks_{tag}.json", payload)
    failed = [c["name"] for c in checks if not c["passed"]]
    if failed:
        print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
        return 3
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskpath",
        description="Penalty-path solver for scenario-based risk-averse control "
        "with almost-sure state constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "path", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        if name == "solve":
            p.add_argument("--gamma", type=float, required=True)
        if name == "path":
            p.add_argument("--cold", action="store_true",
                           help="disable warm starts along the schedule")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "solve" and not (np.isfinite(args.gamma) and args.gamma > 0.0):
            raise ConfigError("--gamma must be a finite positive number")
        cfg = config_mod.load_config(args.config)
        args.out.mkdir(parents=True, exist_ok=True)
        if args.command == "solve":
            return cmd_solve(cfg, args.gamma, args.out)
        if args.command == "path":
            return cmd_path(cfg, args.out, cold=args.cold)
        return cmd_verify(cfg, args.out)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
