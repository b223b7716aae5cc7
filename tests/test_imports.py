"""Import hygiene and invariant style of the package, checked with the
standard library only.

Every name a module imports must be used in that module, and no module may
import another module's private (underscore) names.  `__init__.py` only
re-exports, so its imports are exempt from the unused check.  No module may
use an `assert` statement: `python -O` strips them, so a check that guards a
result must raise instead.  Nor may it raise `AssertionError`: an internal
check raises `InvariantError`, which the CLI reports as `internal error:`
with exit code 1 instead of a traceback.  The only third-party package a
module may import is numpy: scipy alone once took most of `import cliquedim`.
Every name `cliquedim` exports must have a reader: a library module other
than `__init__.py`, the benchmark under `perfbench/`, or the README.
"""

import ast
import re
import subprocess
import sys
import types
from pathlib import Path

import cliquedim

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cliquedim"


def import_findings(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}  # bound name -> line
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if node.level and alias.name.startswith("_"):
                    findings.append(f"{path.name}:{node.lineno} private import {alias.name}")
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    if path.name == "__init__.py":
        return findings
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for name, line in sorted(imported.items(), key=lambda item: item[1]):
        if name not in used:
            findings.append(f"{path.name}:{line} unused import {name}")
    return findings


def third_party_imports(path: Path) -> set:
    """Top-level names of the absolute imports that are neither the
    standard library nor this package."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
    return names - sys.stdlib_module_names - {"cliquedim"}


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def assert_findings(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            findings.append(f"{path.name}:{node.lineno} assert statement")
        elif _raises_assertion_error(node):
            findings.append(f"{path.name}:{node.lineno} raise AssertionError")
    return findings


def test_no_unused_or_private_imports():
    findings = [f for path in sorted(SRC.glob("*.py")) for f in import_findings(path)]
    assert findings == []


def test_lint_reports_both_kinds(tmp_path):
    bad = tmp_path / "mod.py"
    bad.write_text(
        "from math import isqrt, sqrt\n"
        "from .dimensions import _graph\n"
        "import numpy as np\n"
        "print(sqrt(2), _graph, np.zeros)\n"
    )
    assert import_findings(bad) == [
        "mod.py:2 private import _graph",
        "mod.py:1 unused import isqrt",
    ]


def test_numpy_is_the_only_third_party_import():
    found = set().union(*(third_party_imports(path) for path in SRC.glob("*.py")))
    assert found == {"numpy"}


def test_third_party_lint_sees_every_import_form(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import os.path, numpy as np\n"
        "from scipy.stats import beta\n"
        "from . import graph\n"
        "from .errors import InvariantError\n"
        "def f():\n"
        "    import sympy.core\n"
    )
    assert third_party_imports(mod) == {"numpy", "scipy", "sympy"}


def test_importing_the_cli_loads_no_scipy():
    code = "import sys, cliquedim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=SRC.parent, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


def test_no_assert_statements():
    findings = [f for path in sorted(SRC.glob("*.py")) for f in assert_findings(path)]
    assert findings == []


def test_assert_lint_reports_asserts(tmp_path):
    bad = tmp_path / "mod.py"
    bad.write_text(
        "def f(x):\n"
        "    assert x > 0, 'positive'\n"
        "    if x:\n"
        "        assert x\n"
        "    return 'assert x'\n"
    )
    assert sorted(assert_findings(bad)) == ["mod.py:2 assert statement", "mod.py:4 assert statement"]


def test_assert_lint_reports_raised_assertion_errors(tmp_path):
    bad = tmp_path / "mod.py"
    bad.write_text(
        "def f(x):\n"
        "    if x:\n"
        "        raise AssertionError(f'bad {x}')\n"
        "    if x is None:\n"
        "        raise AssertionError\n"
        "    raise ValueError('AssertionError')\n"
    )
    assert sorted(assert_findings(bad)) == [
        "mod.py:3 raise AssertionError",
        "mod.py:5 raise AssertionError",
    ]


# ─── every export has a reader ───────────────────────────────────────────


def referenced_names(path: Path, strings: bool = False) -> set:
    """Identifiers a module reads (names and attributes), and with
    `strings` its string constants too: the benchmark names the functions
    it traces as strings."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def backticked_names(text: str) -> set:
    """Identifiers inside the inline code spans and fenced blocks of a
    markdown text."""
    spans = re.findall(r"```.*?```|`[^`]+`", text, re.S)
    return {word for span in spans for word in re.findall(r"[A-Za-z_]\w*", span)}


def caller_less_exports(exports, src: Path, perfbench: Path, readme: Path) -> list:
    """The exports that no module of `src` but `__init__.py` reads, that
    `perfbench` neither reads nor names in a string, and that the README
    does not show in backticks.  A name read only by dead code still
    counts as read."""
    read = set()
    for path in sorted(src.glob("*.py")):
        if path.name != "__init__.py":
            read |= referenced_names(path)
    for path in sorted(perfbench.glob("*.py")):
        read |= referenced_names(path, strings=True)
    read |= backticked_names(readme.read_text(encoding="utf-8"))
    return sorted(name for name in exports if name not in read)


def public_exports(module) -> list:
    return [
        name
        for name in module.__all__
        if not name.startswith("__") and not isinstance(getattr(module, name), types.ModuleType)
    ]


def test_every_export_has_a_reader():
    exports = public_exports(cliquedim)
    assert caller_less_exports(exports, SRC, ROOT / "perfbench", ROOT / "README.md") == []


def test_export_lint_reports_a_caller_less_export(tmp_path):
    src = tmp_path / "src"
    bench = tmp_path / "perfbench"
    src.mkdir()
    bench.mkdir()
    (src / "__init__.py").write_text(
        "from .mod import dead, inner, timed, shown\n"
        "dead, inner, timed, shown\n"
    )
    (src / "mod.py").write_text(
        "def dead(): pass\n"
        "def inner(): pass\n"
        "def timed(): pass\n"
        "def shown(): pass\n"
        "def outer(x):\n"
        "    return inner(x.size)\n"
    )
    (bench / "spans.py").write_text('TRACED = (("mod", "timed"),)\n')
    readme = tmp_path / "README.md"
    readme.write_text("Call `shown(x)`; dead code is not documented.\n```\nouter(1)\n```\n")
    exports = ["dead", "inner", "timed", "shown", "size", "outer"]
    assert caller_less_exports(exports, src, bench, readme) == ["dead"]
