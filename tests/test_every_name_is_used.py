"""Every top-level function and class in the package, and every method and
class-level name of its classes, has a caller; every module-level import in
it is used by its own module.

A name counts as used when src/, demos/ or perfbench/ names it outside its
own definition: as a name, an attribute, an import, or an identifier string
(perfbench patches some functions by name). Tests do not count, so code
kept alive by its own tests alone fails here. Dunder methods are called by
Python itself and are not checked. An import counts as used when its
module names what it binds outside import statements; `__future__`
imports bind nothing.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stanza"
USERS = (ROOT / "src", ROOT / "demos", ROOT / "perfbench")

# the ledger writers' coming caller is `run --ledger DIR` (ROADMAP item 9)
ALLOWED: set[str] = {"transport.TrafficLedger.export_csv",
                     "transport.TrafficLedger.export_summary_json"}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names_in(node, skip=frozenset()):
    """Every identifier node names in its subtree, except those in `skip`."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        elif isinstance(sub, ast.alias):
            name = sub.name.rsplit(".", 1)[-1]
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            name = sub.value
        else:
            continue
        if name.isidentifier() and name not in skip:
            yield name


def _defined_by(node) -> set[str]:
    """The names a statement defines: a function's or class's name, or the
    plain-name targets of an assignment."""
    if isinstance(node, DEFINITIONS):
        return {node.name}
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _uses() -> Counter:
    """How often each identifier is named. A definition's own names are not
    counted inside it, nor is a class-level name at its own definition."""
    uses = Counter()
    for root in USERS:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in tree.body:
                if not isinstance(node, ast.ClassDef):
                    uses.update(_names_in(node, skip=_defined_by(node)))
                    continue
                for part in (*node.bases, *node.keywords,
                             *node.decorator_list):
                    uses.update(_names_in(part, skip={node.name}))
                for member in node.body:
                    uses.update(_names_in(
                        member, skip={node.name} | _defined_by(member)))
    return uses


def _checked(name: str) -> bool:
    return not (name.startswith("__") and name.endswith("__"))


def _definitions():
    """(qualified, name) for each top-level definition, and for each
    non-dunder method and class-level name of a top-level class."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, DEFINITIONS):
                yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    for name in filter(_checked, _defined_by(member)):
                        yield f"{path.stem}.{node.name}.{name}", name


def test_every_top_level_name_has_a_caller():
    uses = _uses()
    unused = sorted(qualified for qualified, name in _definitions()
                    if not uses[name] and qualified not in ALLOWED)
    assert unused == []


def test_allow_list_is_current():
    uses = _uses()
    defined = dict(_definitions())
    assert all(q in defined and not uses[defined[q]] for q in ALLOWED)


def _unused_imports(tree: ast.Module):
    """Names bound by the module's top-level imports that it never names."""
    bound = [alias.asname or alias.name.split(".")[0]
             for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    named = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
    return [name for name in bound if name not in named]


def test_every_import_is_used_by_its_module():
    unused = sorted(f"{path.stem}.{name}"
                    for path in sorted(PACKAGE.glob("*.py"))
                    for name in _unused_imports(
                        ast.parse(path.read_text(encoding="utf-8"))))
    assert unused == []


def test_unused_import_check_catches_a_leftover():
    tree = ast.parse("from __future__ import annotations\n"
                     "import numpy as np\n"
                     "import os.path\n"
                     "from numpy.lib.stride_tricks import (as_strided,\n"
                     "                                     sliding_window_view)\n"
                     "def f(x):\n"
                     "    return as_strided(np.asarray(x), os.path.sep)\n")
    assert _unused_imports(tree) == ["sliding_window_view"]
