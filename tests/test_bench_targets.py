"""The benchmark's span tracer (``bench/spans.py``) wraps program names from
the outside, by attribute; a refactor that drops or moves one of them breaks
every traced benchmark run.  This checks the names without running one."""

import importlib.util
from pathlib import Path

import wclass_sim
import wclass_sim.cli  # noqa: F401  (the tracer wraps names bound in cli)

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_name_the_benchmark_wraps_exists():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans._targets(wclass_sim)
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in targets
        if attr not in owner.__dict__
    ]
    assert missing == []
