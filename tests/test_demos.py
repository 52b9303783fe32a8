"""Every narrative demo runs to completion.

Each demo runs in-process as ``__main__``: an exception fails the test, and
so does a ``SystemExit`` with a non-zero code.
"""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo, monkeypatch):
    monkeypatch.chdir(ROOT)
    try:
        runpy.run_path(str(demo), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0), f"{demo.name} exited with {exc.code!r}"
