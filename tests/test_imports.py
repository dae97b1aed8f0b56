"""No unused imports under src/, scripts/ and tests/.

No linter is installed, so this walks each file's syntax tree: a name that
an import binds must be referenced somewhere else in the same file.  Package
``__init__.py`` files re-export their imports, ``__future__`` imports are
compiler directives, and a line marked ``# noqa: F401`` is an intended
re-export (such as an instrumentation hook point).
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED = ("src", "scripts", "tests")


def _unused_imports(path: Path, root: Path = ROOT) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    imported = []  # (name, line)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*" and "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.append((alias.asname or alias.name.split(".")[0], alias.lineno))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    where = path.relative_to(root)
    return [f"{where}:{line}: {name}" for name, line in imported if name not in used]


def test_no_unused_imports():
    found = [
        entry
        for top in CHECKED
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.name != "__init__.py"
        for entry in _unused_imports(path)
    ]
    assert found == [], "unused imports:\n" + "\n".join(found)


def test_the_guard_names_an_unused_import(tmp_path):
    """The walk reports file:line for an unused name, and skips used and marked ones."""
    module = tmp_path / "m.py"
    module.write_text(
        "import os\n"
        "import sys\n"
        "from math import pi, tau\n"
        "from json import dumps  # noqa: F401\n"
        "import os.path as osp\n"
        "from re import (\n"
        "    escape,  # noqa: F401\n"
        "    sub,\n"
        ")\n"
        "print(sys.argv, pi)\n"
    )
    assert _unused_imports(module, tmp_path) == [
        "m.py:1: os", "m.py:3: tau", "m.py:5: osp", "m.py:8: sub"
    ]
