"""The benchmark's span tracer (``bench/spans.py``) wraps program names from
the outside, by attribute; a refactor that drops or moves one of them, or
that calls past the wrapped binding, breaks every traced benchmark run.
This checks the names, and that one small call reaches the enumerators
through them."""

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
    names = (*spans.ENUMERATORS, *spans.OUTCOME_ENUMERATORS)
    assert {name: summary.count(name) > 0 for name in names} == dict.fromkeys(names, True)
