"""README's "What a process caches" table names every process-level cache
in ``src/``, and names nothing that is not there.

A process-level cache is a top-level function decorated with
``functools.lru_cache`` or ``functools.cache``, or a module-level
``_Table(...)``.  The table's first column names them in backticks:
``module.name`` names one and sets the module of the bare names after it in
that cell."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "wclass_sim"
# process-level caches that are neither a cached function nor a _Table
OTHER_CACHES: set = set()


def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _is_cache_decorator(node):
    target = node.func if isinstance(node, ast.Call) else node
    return (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "functools"
        and target.attr in ("lru_cache", "cache")
    )


def _caches(tree):
    """Names of the module's cached top-level functions and module-level
    ``_Table(...)`` values."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            if any(_is_cache_decorator(d) for d in node.decorator_list):
                out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            value = node.value
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "_Table"
            ):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                out.update(t.id for t in targets if isinstance(t, ast.Name))
    return out


def _top_level_names(tree):
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Assign):
            out.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.add(node.target.id)
    return out


def _table_names():
    """``module.name`` for each name in the first column of README's cache
    table."""
    lines = iter((ROOT / "README.md").read_text().splitlines())
    for line in lines:
        if line.startswith("| cache |"):
            break
    else:
        raise AssertionError("README has no cache table")
    next(lines)  # the header's rule
    names = []
    for line in lines:
        if not line.startswith("|"):
            break
        module = None
        for token in re.findall(r"`([\w.]+)`", line.split("|")[1]):
            if "." in token:
                module, token = token.split(".")
            assert module, f"{token} in the cache table has no module"
            names.append(f"{module}.{token}")
    return names


def test_every_process_cache_is_in_the_readme_table():
    caches = {f"{mod}.{name}" for mod, tree in _modules().items() for name in _caches(tree)}
    assert caches  # the scan finds the caches it looks for
    missing = sorted((caches | OTHER_CACHES) - set(_table_names()))
    assert not missing, f"README's cache table lacks {missing}"


def test_every_name_in_the_readme_table_exists():
    defined = {
        f"{mod}.{name}" for mod, tree in _modules().items() for name in _top_level_names(tree)
    }
    stale = [name for name in _table_names() if name not in defined]
    assert not stale, f"README's cache table names {stale}, which src/ does not define"
