"""Packaging metadata and import-cost contracts.

A clean install must import and run: every third-party module the package
imports is a declared runtime dependency, the console script the README and
``--help`` name exists, and ``import repro.cli`` stays light by deferring
scipy and networkx to the calls that need them.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser

tomllib = pytest.importorskip("tomllib")

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"


def _project() -> dict:
    with open(REPO / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)["project"]


def _third_party_imports() -> set[str]:
    roots: set[str] = set()
    for path in (SRC / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                roots.add(node.module.split(".")[0])
    return {root for root in roots if root not in sys.stdlib_module_names} - {"repro"}


def test_runtime_dependencies_cover_every_third_party_import():
    declared = set(_project()["dependencies"])
    assert {"numpy", "scipy"} <= declared
    assert _third_party_imports() <= declared


def test_console_script_matches_the_cli_name():
    prog = build_parser().prog
    assert prog == "repro-spam"
    assert _project()["scripts"][prog] == "repro.cli:main"


def test_cli_import_defers_scipy_and_networkx():
    probe = (
        "import sys, repro.cli; "
        "print(sorted(m for m in ('scipy', 'networkx') if m in sys.modules))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    assert completed.stdout.strip() == "[]"
