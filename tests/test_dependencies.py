from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tomllib

from tests.conftest import REPO_ROOT

# Lists the top-level modules that importing the CLI and the pipeline loads,
# past those the interpreter had loaded at startup.
IMPORT_CLOSURE = """
import json, sys
before = set(sys.modules)
import sqlsynth.cli, sqlsynth.pipeline
print(json.dumps(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def declared_dependencies() -> set[str]:
    pyproject = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    return {
        re.match(r"[A-Za-z0-9._-]+", requirement).group().lower().replace("-", "_")
        for requirement in pyproject["project"]["dependencies"]
    }


def test_runtime_imports_are_stdlib_or_declared():
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_CLOSURE],
        capture_output=True, text=True, env=env, check=True,
    )
    loaded = set(json.loads(result.stdout))
    allowed = set(sys.stdlib_module_names) | {"sqlsynth"} | declared_dependencies()
    assert "sqlsynth" in loaded
    assert loaded <= allowed, sorted(loaded - allowed)
