"""The benchmark's span tracer (``bench/spans.py``) wraps program names from
the outside, by attribute; a refactor that drops or moves one of them, or
that calls past the wrapped binding, breaks every traced benchmark run.
This checks the names, and that one small call reaches the enumerators
through them."""

import ast
import importlib.util
from pathlib import Path

import wclass_sim
import wclass_sim.cli  # noqa: F401  (the tracer wraps names bound in cli)

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_name_the_benchmark_wraps_exists():
    targets = _spans()._targets(wclass_sim)
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in targets
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_a_traced_teleport_call_records_every_enumerator(tmp_path):
    spans = _spans()
    tracer = spans.Tracer()
    argv = ["teleport", "--cap", "5", "--eta", "0", "--trials", "1", "--seed", "1",
            "--workers", "1", "-o", str(tmp_path / "r.json")]
    with tracer.install(wclass_sim):
        assert wclass_sim.cli.main(argv) == 0
    summary = tracer.summary()
    # the per-mode outcome enumerators (spans.OUTCOME_ENUMERATORS) stay
    # wrapped, but rounds are enumerated by photon-number sector without them
    names = spans.ENUMERATORS
    assert {name: summary.count(name) > 0 for name in names} == dict.fromkeys(names, True)


def test_unused_imports_in_src_are_bindings_the_benchmark_wraps():
    # no linter is installed: an import a module never uses must be one the
    # tracer wraps there, else it is dead code
    wrapped = {}
    for owner, attr, _ in _spans()._targets(wclass_sim):
        wrapped.setdefault(owner, set()).add(attr)
    unused = {}
    for path in sorted(Path(wclass_sim.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = getattr(wclass_sim, path.stem)
        extra = imported - used - wrapped.get(module, set())
        if extra:
            unused[path.stem] = sorted(extra)
    assert unused == {}
