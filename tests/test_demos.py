"""Smoke test: every script under demos/ runs to completion.

Each demo runs in its own interpreter, as a user would run it, so a demo
whose top level breaks when imported a second time, or that a library
change leaves stale, fails here.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from tests.conftest import REPO_ROOT

DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert not any(tmp_path.iterdir()), "demos write no files"
