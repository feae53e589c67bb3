"""README's "What a process caches" table names every process-level cache
in ``src/``, and names nothing that is not there.

A process-level cache is a top-level function decorated with
``functools.lru_cache`` or ``functools.cache``, or a module-level
``_Table(...)``.  The table's first column names them in backticks:
``module.name`` names one and sets the module of the bare names after it in
that cell.  A size after a name, "(last N)" or "(N)", is its bound, and
"(N each)" bounds it and the unsized names before it in the cell; a cache
shown with no size keeps every entry."""

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


def _maxsize(decorator):
    """The bound a cache decorator sets, ``None`` for no bound."""
    if isinstance(decorator, ast.Call):
        kind = decorator.func.attr
        args = decorator.args + [k.value for k in decorator.keywords if k.arg == "maxsize"]
    else:
        kind, args = decorator.attr, []
    if kind == "cache":
        return None
    return ast.literal_eval(args[0]) if args else 128  # functools' default


def _caches(tree):
    """The module's cached top-level functions and module-level
    ``_Table(...)`` values, by name, with their bounds (``None``: no bound)."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            for d in node.decorator_list:
                if _is_cache_decorator(d):
                    out[node.name] = _maxsize(d)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            value = node.value
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "_Table"
            ):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                out.update((t.id, None) for t in targets if isinstance(t, ast.Name))
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


def _table_sizes():
    """``module.name`` for each name in the first column of README's cache
    table, with the size shown for it (``None``: no size)."""
    lines = iter((ROOT / "README.md").read_text().splitlines())
    for line in lines:
        if line.startswith("| cache |"):
            break
    else:
        raise AssertionError("README has no cache table")
    next(lines)  # the header's rule
    sizes = {}
    for line in lines:
        if not line.startswith("|"):
            break
        module = None
        unsized = []  # names since the last size in this cell
        for token, size, each in re.findall(
            r"`([\w.]+)`(?:\s*\((?:last )?(\d+)( each)?\))?", line.split("|")[1]
        ):
            if "." in token:
                module, token = token.split(".")
            assert module, f"{token} in the cache table has no module"
            name = f"{module}.{token}"
            sizes[name] = int(size) if size else None
            if each:
                sizes.update(dict.fromkeys(unsized, sizes[name]))
            unsized = [] if size else [*unsized, name]
    return sizes


def test_every_process_cache_is_in_the_readme_table():
    caches = {f"{mod}.{name}" for mod, tree in _modules().items() for name in _caches(tree)}
    assert caches  # the scan finds the caches it looks for
    missing = sorted((caches | OTHER_CACHES) - set(_table_sizes()))
    assert not missing, f"README's cache table lacks {missing}"


def test_every_name_in_the_readme_table_exists():
    defined = {
        f"{mod}.{name}" for mod, tree in _modules().items() for name in _top_level_names(tree)
    }
    stale = [name for name in _table_sizes() if name not in defined]
    assert not stale, f"README's cache table names {stale}, which src/ does not define"


def test_every_size_in_the_readme_table_is_its_caches_bound():
    # "(last N)", "(N)" and "(N each)" are the decorator's maxsize, and a
    # cache shown with no size is unbounded; a name that is no cache (the
    # function a cache is read through) shows no size
    bounds = {f"{mod}.{name}": bound for mod, tree in _modules().items()
              for name, bound in _caches(tree).items()}
    shown = _table_sizes()
    assert any(size is not None for size in shown.values())
    assert any(size is None and name in bounds for name, size in shown.items())
    wrong = {
        name: (size, bounds.get(name))
        for name, size in shown.items()
        if size != bounds.get(name)
    }
    assert not wrong, f"README's cache table shows (size, bound) {wrong}"
