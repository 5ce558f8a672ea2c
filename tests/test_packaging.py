"""Packaging metadata and import-cost contracts.

A clean install must import and run: every third-party module the package
imports is a declared runtime dependency, the console script the README and
``--help`` name exists, and ``import repro.cli`` stays light by deferring
scipy and networkx to the calls that need them.  Rendering and exporting a
figure never needs scipy: the 95 % t quantiles of every shipped sample size
are tabulated in :mod:`repro.analysis.stats`.
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


def _probe(code: str) -> str:
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    return completed.stdout.strip()


def test_cli_import_defers_scipy_and_networkx():
    probe = (
        "import sys, repro.cli; "
        "print(sorted(m for m in ('scipy', 'networkx') if m in sys.modules))"
    )
    assert _probe(probe) == "[]"


def test_rendering_and_exporting_a_figure_skips_scipy():
    probe = "\n".join([
        "import json, sys",
        "from repro.analysis.report import format_sweep, series_side_by_side",
        "from repro.analysis.stats import summarize_samples",
        "from repro.analysis.sweeps import SweepResult",
        "from repro.experiments.common import SCALES",
        "summarize_samples([float(i % 5) for i in range(16)]).as_dict()",
        "largest = max(scale.messages_per_rate_point for scale in SCALES.values())",
        "result = SweepResult(name='demo', x_label='x', y_label='y')",
        "series = result.add_series('a')",
        "series.add(1, [float(i) for i in range(16)])",
        "series.add(2, [float(i % 7) for i in range(largest)])",
        "format_sweep(result), series_side_by_side(result)",
        "json.dumps(result.as_dict())",
        "print('scipy' in sys.modules)",
    ])
    assert _probe(probe) == "False"
