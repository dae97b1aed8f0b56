"""Observation models hold no state: no method but ``__init__`` writes to ``self``.

A path's history (AR lags, HMM filter, RNG position) belongs to the sampler
and increment states that callers keep, so one model can serve several
streams and the Monte Carlo engine at once, and pickles to the same bytes
after any run.  This walks the syntax tree of ``models.py`` and names
``file:line`` of every assignment, augmented assignment or annotated
assignment in a method other than ``__init__`` whose target is an attribute
of the method's first parameter, or an item of one (``self.x = ...``,
``self.x += ...``, ``self.x[i] = ...``, ``self[i] = ...``).
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "src" / "mixdetect" / "models.py"


def _rooted_at(target: ast.AST, name: str) -> bool:
    """Is ``target`` an attribute or item chain that starts at the name ``name``?"""
    if not isinstance(target, (ast.Attribute, ast.Subscript)):
        return False
    node = target
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return isinstance(node, ast.Name) and node.id == name


def _targets(node: ast.AST) -> list[ast.AST]:
    """The assignment targets of ``node``, tuples and starred names unpacked."""
    if isinstance(node, ast.Assign):
        todo = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        todo = [node.target]
    else:
        return []
    out = []
    while todo:
        t = todo.pop()
        if isinstance(t, (ast.Tuple, ast.List)):
            todo.extend(t.elts)
        elif isinstance(t, ast.Starred):
            todo.append(t.value)
        else:
            out.append(t)
    return out


def _self_writes(path: Path, root: Path = ROOT) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    where = path.relative_to(root)
    found = []
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            decorators = {d.id for d in fn.decorator_list if isinstance(d, ast.Name)}
            if fn.name == "__init__" or "staticmethod" in decorators or not fn.args.args:
                continue
            me = fn.args.args[0].arg
            for node in ast.walk(fn):
                for target in _targets(node):
                    if _rooted_at(target, me):
                        found.append(f"{where}:{target.lineno}: {cls.name}.{fn.name}")
    return sorted(set(found), key=lambda entry: int(entry.split(":")[1]))


def test_models_write_no_state_after_init():
    found = _self_writes(MODELS)
    assert found == [], "model methods that write to self:\n" + "\n".join(found)


def test_the_guard_names_a_write_to_self(tmp_path):
    """The walk reports file:line for each write to self or an item of it, in
    any method but ``__init__``, and skips locals, other objects and statics."""
    module = tmp_path / "m.py"
    module.write_text(
        "class A:\n"
        "    def __init__(self):\n"
        "        self.t = 0\n"
        "    def reset(self):\n"
        "        self.t = 0\n"
        "    def bump(self, state):\n"
        "        self.t += 1\n"
        "        state['n'] += 1\n"
        "        t = self.t\n"
        "    def fill(self, rows):\n"
        "        self.buf[rows] = 0.0\n"
        "        a, self.b = 1, 2\n"
        "    def put(me, key):\n"
        "        me[key]: int = 1\n"
        "    @staticmethod\n"
        "    def free(self):\n"
        "        self.x = 1\n"
        "    def read(self):\n"
        "        return self.t\n"
    )
    assert _self_writes(module, tmp_path) == [
        "m.py:5: A.reset", "m.py:7: A.bump", "m.py:11: A.fill", "m.py:12: A.fill", "m.py:14: A.put"
    ]
