"""Batch entry point: solve / path / verify subcommands over a JSON config."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import kkt as kkt_mod
from . import objective as obj_mod
from . import path as path_mod
from . import risk as risk_mod
from . import solver as solver_mod
from .cone import ConeSpec, constraint_adjoints, constraint_eval, penalty, penalty_multiplier, project
from .config import ConfigError
from .grid import inner_h, solve_state

ENV_OUT_DIR = "RISKPATH_OUT"


def _out_dir(cfg, cli_out):
    out = os.environ.get(ENV_OUT_DIR) or cli_out or cfg["output_dir"]
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _tag(cfg):
    return f"{config_mod.config_hash(cfg)}_s{cfg['scenarios']['seed']}"


def _json_default(o):
    if isinstance(o, np.bool_):
        return bool(o)
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def _write_json(path: Path, payload):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n")


def _summary_base(cfg):
    return {
        "config": cfg,
        "config_hash": config_mod.config_hash(cfg),
        "generator": cfg["generator"],
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def cmd_solve(cfg: dict, gamma: float, out: Path) -> int:
    data = config_mod.build_problem(cfg)
    opts = config_mod.build_solve_options(cfg)
    tag = _tag(cfg)
    log_lines = []

    def log_cb(it, f, stat, step, products):
        log_lines.append(f"iter={it} j_gamma={float(f)!r} stationarity={float(stat)!r} "
                         f"step={float(step)!r} cg={products}")

    try:
        result = solver_mod.minimize(data, gamma, opts, callback=log_cb)
    except solver_mod.DivergedError as exc:
        print(f"solve diverged at gamma={gamma}: {exc}", file=sys.stderr)
        return 1
    report = kkt_mod.check_limit_system(data, result.bundle)
    j, feasible, max_violation = obj_mod.unpenalized_objective(data, result.x1_opt)
    summary = _summary_base(cfg)
    summary.update(
        {
            "gamma": gamma,
            "converged": result.converged,
            "iterations": result.iterations,
            "hessian_products": result.hessian_products,
            "backtracks": result.backtracks,
            "stationarity": result.stationarity_norm,
            "j_gamma": result.bundle.j_gamma,
            "j": j,
            "feasible": feasible,
            "max_violation": max_violation,
            "control": [repr(float(v)) for v in result.x1_opt],
        }
    )
    _write_json(out / f"solve_{tag}.json", summary)
    _write_json(out / f"kkt_{tag}.json", report.as_dict())
    (out / f"iterations_{tag}.log").write_text("\n".join(log_lines) + "\n")
    return 0 if result.converged else 2


def cmd_path(cfg: dict, out: Path, cold: bool = False) -> int:
    data = config_mod.build_problem(cfg)
    opts = config_mod.build_solve_options(cfg)
    schedule = config_mod.build_schedule(cfg)
    tag = _tag(cfg)
    try:
        records, details = path_mod.run_path(
            data, schedule, opts, warm_start=not cold, return_details=True
        )
    except path_mod.PathAborted as exc:
        (out / f"path_{tag}.csv").write_text(path_mod.records_to_csv(exc.records))
        print(f"path aborted: {exc}", file=sys.stderr)
        return 1

    (out / f"path_{tag}.csv").write_text(path_mod.records_to_csv(records))
    _write_json(out / f"path_{tag}.json", [r.__dict__ for r in records])
    _write_json(out / f"kkt_path_{tag}.json", [d.report.as_dict() for d in details])

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
            ref = path_mod.shrink_to_feasible(data, details[-1].result.x1_opt)
        except ValueError as exc:
            print(f"error: feasible_reference.mode scaled-initial: {exc}", file=sys.stderr)
            return 1
        j_ref, _, _ = obj_mod.unpenalized_objective(data, ref)
        assertions["sandwich_j_le_jgamma_le_jref"] = all(
            r.j <= r.j_gamma + 1e-10 and r.j_gamma <= j_ref + 1e-10 for r in records
        )
        assertions["j_reference"] = j_ref
    slopes = dict(_summary_base(cfg))
    try:
        slope, r2 = path_mod.fit_decay_slope(records, "sq_violation")
        slopes["sq_violation_slope"] = slope
        slopes["sq_violation_r2"] = r2
    except path_mod.InsufficientDataError as exc:
        slopes["sq_violation_slope_error"] = str(exc)
    slopes["assertions"] = assertions
    _write_json(out / f"slopes_{tag}.json", slopes)
    return 0 if all(r.converged for r in records) else 2


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
    g = data.grid

    # projection characterization, idempotence, nonexpansiveness
    cone = ConeSpec(weight=g.h)
    ok, worst = True, 0.0
    for _ in range(200):
        k = rng.standard_normal(g.n_interior)
        p = project(cone, k)
        resid = abs(cone.inner(p, k - p))
        worst = max(worst, resid)
        ok &= np.all(p >= 0.0) and resid <= 1e-12
        q = rng.standard_normal(g.n_interior)
        ok &= cone.norm(project(cone, k) - project(cone, q)) <= cone.norm(k - q) + 1e-12
        ok &= np.allclose(project(cone, p), p)
    yield "projection_identities", bool(ok), f"max |(p, k-p)_H| = {worst:.3e}"

    # penalty gradient vs central differences of the envelope
    ok, worst = True, 0.0
    gamma = 37.0
    for _ in range(50):
        i_val = rng.standard_normal(g.n_interior)
        lam = penalty_multiplier(cone, gamma, i_val)
        eps = 1e-6
        for _ in range(3):
            d = rng.standard_normal(g.n_interior)
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
        for lam_mix in (0.25, 0.5, 0.75):
            mixed = risk_mod.evaluate(rm, lam_mix * xi + (1 - lam_mix) * xi2, weights)
            ok &= mixed <= lam_mix * risk_mod.evaluate(rm, xi, weights) + (
                1 - lam_mix
            ) * risk_mod.evaluate(rm, xi2, weights) + 1e-10
        ok &= risk_mod.evaluate(rm, np.minimum(xi, xi2), weights) <= risk_mod.evaluate(
            rm, np.maximum(xi, xi2), weights
        ) + 1e-12
        c = float(rng.standard_normal())
        ok &= abs(
            risk_mod.evaluate(rm, xi + c, weights) - risk_mod.evaluate(rm, xi, weights) - c
        ) <= 1e-10
        if rm.positively_homogeneous:
            lam_pos = float(rng.uniform(0.1, 3.0))
            ok &= abs(
                risk_mod.evaluate(rm, lam_pos * xi, weights)
                - lam_pos * risk_mod.evaluate(rm, xi, weights)
            ) <= 1e-10
        if rm.kind != "avar-smooth":
            theta = risk_mod.subgradient(rm, xi, weights).theta
            ok &= risk_mod.duality_gap(rm, xi, theta, weights) <= 1e-12
    yield "risk_axioms_and_duality", bool(ok), f"measure = {rm.kind}"

    # constraint adjoint identity on the configured problem, first scenario
    x1 = rng.standard_normal(g.n_interior)
    x2 = rng.standard_normal(g.n_interior)
    cone_c = data.cone
    ok, worst = True, 0.0
    for _ in range(10):
        i0 = constraint_eval(data.constraint, x1, x2)[0]
        lam = np.abs(rng.standard_normal(i0.shape))
        du = rng.standard_normal(g.n_interior)
        dy = rng.standard_normal(g.n_interior)
        eps = 1e-7
        ip = constraint_eval(data.constraint, x1 + eps * du, x2 + eps * dy)[0]
        im = constraint_eval(data.constraint, x1 - eps * du, x2 - eps * dy)[0]
        fd = cone_c.inner(lam, (ip - im) / (2 * eps))
        adj_u, adj_y = constraint_adjoints(data.constraint, x1, x2, lam)
        an = float(np.dot(adj_u, du) + np.dot(adj_y, dy))
        err = abs(fd - an) / max(1.0, abs(an))
        worst = max(worst, err)
        ok &= err <= 1e-6
    yield "constraint_adjoint_identity", bool(ok), f"max rel err = {worst:.3e}"

    # reduced gradient vs central differences on the configured problem
    tol = 1e-6 if data.risk.kind == "expectation" else 1e-4
    if data.risk.kind == "avar":
        yield "reduced_gradient_fd", True, "skipped: exact tail risk is nonsmooth"
    else:
        worst = reduced_gradient_fd_error(data, rng)
        yield "reduced_gradient_fd", bool(worst <= tol), f"max rel err = {worst:.3e}"

    # solve self-adjointness, every scenario's operator at once
    op = data.operator
    r = rng.standard_normal(op.diag.shape)
    q = rng.standard_normal(op.diag.shape)
    lhs = inner_h(g, solve_state(op, r), q)
    rhs = inner_h(g, r, solve_state(op, q))
    err = float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs))))
    yield "solve_self_adjointness", err <= 1e-10, f"rel err = {err:.3e}"


def cmd_verify(cfg: dict, out: Path) -> int:
    checks = []
    for name, passed, detail in _verify_checks(cfg):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})
    payload = _summary_base(cfg)
    payload["checks"] = checks
    _write_json(out / f"checks_{_tag(cfg)}.json", payload)
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
        p.add_argument("--out", default=None, help="output directory")
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
        out = _out_dir(cfg, args.out)
        if args.command == "solve":
            return cmd_solve(cfg, args.gamma, out)
        if args.command == "path":
            return cmd_path(cfg, out, cold=args.cold)
        return cmd_verify(cfg, out)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
