"""The TID251 bans in pyproject.toml, enforced without ruff.

Reads ``banned-api`` and the TID251 ``per-file-ignores`` from pyproject.toml
and walks every module under ``src/`` with :mod:`ast`: any reference to a
banned name (an import of it, or an attribute chain that resolves to it)
outside an exempt file fails the suite.
"""

from __future__ import annotations

import ast
import fnmatch
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LINT = tomllib.loads((ROOT / "pyproject.toml").read_text())["tool"]["ruff"]["lint"]
BANNED = set(LINT["flake8-tidy-imports"]["banned-api"])
EXEMPT = [glob for glob, rules in LINT["per-file-ignores"].items() if "TID251" in rules]


def banned_uses(source: str, module: str) -> list[tuple[int, str]]:
    """``(line, name)`` for each banned reference in *source* (of *module*)."""
    tree, names, hits = ast.parse(source), {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                top = a.name.split(".")[0]
                names[a.asname or top] = a.name if a.asname else top
        elif isinstance(node, ast.ImportFrom):
            base = module.split(".")[: -node.level] if node.level else []
            origin = ".".join([*base, *([node.module] if node.module else [])])
            for a in node.names:
                names[a.asname or a.name] = f"{origin}.{a.name}"
                if f"{origin}.{a.name}" in BANNED:
                    hits.append((node.lineno, f"{origin}.{a.name}"))
    for node in ast.walk(tree):
        chain, inner = [], node
        while isinstance(inner, ast.Attribute):
            chain.append(inner.attr)
            inner = inner.value
        if isinstance(inner, ast.Name) and isinstance(node, (ast.Name, ast.Attribute)):
            dotted = ".".join([names.get(inner.id, inner.id), *reversed(chain)])
            if dotted in BANNED:
                hits.append((node.lineno, dotted))
    return hits


def test_no_banned_api_outside_exempt_files():
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        relative = path.relative_to(ROOT).as_posix()
        if any(fnmatch.fnmatch(relative, glob) for glob in EXEMPT):
            continue
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        found += [f"{relative}:{line} uses {name}" for line, name in banned_uses(path.read_text(), module)]
    assert found == [], "banned APIs (see pyproject.toml banned-api):\n" + "\n".join(found)


@pytest.mark.parametrize(
    "source",
    [
        "import sqlite3\nsqlite3.connect(':memory:')",
        "import sqlite3 as db\ndb.connect(':memory:')",
        "from sqlite3 import connect",
        "from repro.service.tcp import PipelinedTcpTransport",
        "from .endpoints import EndpointSet",
        "from repro.service import endpoints\nendpoints.EndpointSet([])",
        "from concurrent.futures import ThreadPoolExecutor",
        "import concurrent.futures\nconcurrent.futures.ThreadPoolExecutor(2)",
    ],
)
def test_checker_sees_each_form_of_a_banned_reference(source):
    assert banned_uses(source, "repro.service.client")
