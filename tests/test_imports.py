"""What the package loads at import time, and what its functions take.

``src/`` needs numpy and ``scipy.linalg.lapack`` only. ``scipy.optimize`` (with
``scipy.special``) costs about 20 MB of resident memory and 0.3 s of start-up
on every ``riskpath`` process, so it stays a test-only dependency (the L-BFGS-B
reference in tests/reference.py).
"""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import riskpath

SRC = Path(riskpath.__file__).resolve().parents[1]


def test_cli_import_leaves_scipy_optimize_and_special_out():
    code = ("import sys, riskpath, riskpath.cli; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.special') if m in sys.modules))")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True)
    assert done.stdout == "[]\n"


def test_no_function_takes_a_problem_beside_a_bundle():
    # a bundle records the problem it was evaluated for: a separate problem
    # argument could only disagree with it
    scanned = {}
    for info in pkgutil.iter_modules(riskpath.__path__):
        module = importlib.import_module(f"riskpath.{info.name}")
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if fn.__module__ == module.__name__ and (
                    not name.startswith("_") or info.name == "solver"):
                scanned[f"{info.name}.{name}"] = set(inspect.signature(fn).parameters)
    assert {"objective.hessian_operator", "kkt.check_limit_system", "solver._stationarity",
            "solver._newton_direction", "solver._line_search"} <= set(scanned)
    assert [name for name, params in scanned.items() if {"data", "bundle"} <= params] == []


def test_every_parameter_is_read():
    # a parameter no body reads is an argument every caller forms for nothing
    unread = []
    for path in sorted((SRC / "riskpath").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, [a.vararg, a.kwarg])]
                body = node.body if isinstance(node.body, list) else [node.body]
                read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
                name = getattr(node, "name", "<lambda>")
                unread += [f"{path.stem}.{name}: {p.arg}" for p in params
                           if p.arg not in read | {"self", "cls"}]
    assert unread == []


def test_only_the_grid_reads_the_mesh_width():
    # the grid owns the lumped mass and the spacing: every other module takes its
    # products, norms, Riesz map, integral and difference quotient from Grid's methods
    readers = [f"{path.stem}:{node.lineno}"
               for path in sorted((SRC / "riskpath").glob("*.py")) if path.stem != "grid"
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr == "h"]
    assert readers == []


def test_the_solver_layers_compare_no_model_kind():
    # the risk measure, the penalty and the constraint map own their formulas: the layers
    # that compose them (the chain rule, the solver, the KKT report, the path) branch on no kind
    compares = [f"{stem}.py:{node.lineno}"
                for stem in ("objective", "solver", "kkt", "path")
                for node in ast.walk(ast.parse((SRC / "riskpath" / f"{stem}.py").read_text()))
                if isinstance(node, ast.Compare)
                and any(isinstance(n, ast.Attribute) and n.attr == "kind"
                        for side in (node.left, *node.comparators) for n in ast.walk(side))]
    assert compares == []
