"""No function or method under src/ that nothing runs.

This walks the syntax trees of src/ and scripts/: a function or method
defined under src/ must be named somewhere there, as a name or as an
attribute, other than by an import.  Dunder methods are called by Python
itself.  A name that perfbench/tracer.py wraps, or that a README code span
mentions, is allowed, and so are the few below, each with its reason.
"""

from __future__ import annotations

import ast
import re
import types
from pathlib import Path

from test_cli import _tracer_patches

ROOT = Path(__file__).resolve().parent.parent

ALLOWED = {
    "brute_force_ms": "oracle: the defining double sum the MS recursion is tested against",
    "brute_force_msr": "oracle: the defining double sum the MSR recursion is tested against",
    "integrated_cost_proxy": "the function bayes_threshold minimizes, kept to test its root",
    "posterior_no_change": "P(no change yet) of an MS state, a library readout",
    "check_cp2_partial": "the prior's r-complete condition, which info_rate rows will report",
    "_SeedWords.generate_state": "numpy calls it while seeding a bit generator",
    "ObservationModel.increments_for": "perfbench's lockstep_alarms scores its paths with it",
}


def _unused_functions(root: Path = ROOT) -> list[str]:
    """file:line: qualified name of each function or method under src/ that
    no file under src/ or scripts/ names, in file order."""
    defined, named = [], set()

    def visit(node, where: Path, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}{child.name}."
                if not isinstance(child, ast.ClassDef) and where.parts[0] == "src":
                    defined.append((f"{where}:{child.lineno}", f"{scope}{child.name}"))
            elif isinstance(child, ast.Name):
                named.add(child.id)
            elif isinstance(child, ast.Attribute):
                named.add(child.attr)
            visit(child, where, inner)

    for top in ("src", "scripts"):
        for path in sorted((root / top).rglob("*.py")):
            visit(ast.parse(path.read_text(), filename=str(path)), path.relative_to(root), "")
    return [
        f"{where}: {qualname}"
        for where, qualname in defined
        if (name := qualname.rsplit(".", 1)[-1]) not in named
        and not (name.startswith("__") and name.endswith("__"))
    ]


def _unexplained(root: Path = ROOT) -> list[str]:
    """The entries of ``_unused_functions`` that no tracer wrap, ALLOWED entry
    or README code span accounts for: a plain README word names nothing."""
    wrapped = {
        attr if isinstance(owner, types.ModuleType) else f"{owner.__name__}.{attr}"
        for owner, attr in _tracer_patches()
    }
    spans = re.findall(r"`+([^`]+)`+", (root / "README.md").read_text())
    in_readme = {word for span in spans for word in re.findall(r"\w+", span)}
    return [
        entry
        for entry in _unused_functions(root)
        if (qualname := entry.split(": ", 1)[1]) not in wrapped | ALLOWED.keys()
        and qualname.rsplit(".", 1)[-1] not in in_readme
    ]


def test_no_unused_functions():
    found = _unexplained()
    assert found == [], "functions that nothing under src/ or scripts/ names:\n" + "\n".join(found)


def test_only_a_readme_code_span_accounts_for_a_function(tmp_path):
    """A name inside backticks or a fenced block is documented; the same word
    in running text is not."""
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "scripts").mkdir()
    (tmp_path / "src" / "pkg" / "m.py").write_text(
        "def spanned():\n    pass\ndef fenced():\n    pass\ndef mentioned():\n    pass\n"
    )
    (tmp_path / "README.md").write_text(
        "Call `pkg.spanned()`; a word such as mentioned is prose.\n\n```\nfenced()\n```\n"
    )
    assert _unexplained(tmp_path) == ["src/pkg/m.py:5: mentioned"]


def test_the_guard_names_an_unused_function(tmp_path):
    """The walk reports file:line and the qualified name of each function or
    method nothing names, an import aside, and skips dunders and those named
    by a call, an attribute or a script."""
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "scripts").mkdir()
    (tmp_path / "src" / "pkg" / "m.py").write_text(
        "from .other import planted\n"
        "def used():\n"
        "    def inner():\n"
        "        pass\n"
        "    return 1\n"
        "def planted():\n"
        "    return used()\n"
        "class Model:\n"
        "    def __init__(self):\n"
        "        self.method()\n"
        "    def method(self):\n"
        "        pass\n"
        "    def orphan(self):\n"
        "        pass\n"
        "def scripted():\n"
        "    pass\n"
    )
    (tmp_path / "scripts" / "run.py").write_text("from pkg.m import scripted\nscripted()\n")
    assert _unused_functions(tmp_path) == [
        "src/pkg/m.py:3: used.inner",
        "src/pkg/m.py:6: planted",
        "src/pkg/m.py:13: Model.orphan",
    ]
