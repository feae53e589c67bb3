"""Golden reports: fixed command lines whose reports must not change.

Each case runs ``wclass-sim`` in-process and compares the report with the
committed file ``tests/golden/<name>.json`` (``<name>.csv`` for a
``csv-summary`` case) byte for byte.  Two cases cover
budget-exhausted trials: ``w3_exhausted`` (a multi-stage chain whose
budget of 200 rounds most trials spend) and ``teleport_cap4_exhausted``
(9 of its 30 trials reach a W123 outcome from which W456 has no completing
path under the cap).  Every chain case also runs with its node table cold,
cached, and cached by a batch at another seed, to the same bytes.  A golden
file changes only when the random stream or a reported formula changes on
purpose.  To rewrite the files after such a change (and say why in
CHANGES.md), run

    PYTHONPATH=src python tests/test_golden.py

which prints every value that changed in a rewritten file, old and new,
with the distance between them in ulps (floats) or units (integers).
"""

from __future__ import annotations

import csv
import io
import json
import struct
import sys
from pathlib import Path

import pytest

from wclass_sim.cli import main
from wclass_sim.montecarlo import _chain_engine

GOLDEN = Path(__file__).resolve().parent / "golden"

W_COMMON = ["--eta", "0.3", "--pe", "0.01", "--trials", "100", "--workers", "1"]

SWEEP = ["scaling-sweep", "--n-min", "3", "--n-max", "5", "--eta", "0.2", "--pe", "0.03",
         "--trials", "60", "--seed", "9", "--workers", "1"]

# name -> (argv, exit code)
CASES = {
    "epr_n2": (["epr", "--n", "2", "--eta", "0.1", "--pe", "0.01", "--trials", "300",
                "--seed", "1", "--workers", "1"], 0),
    "epr_default_n": (["epr", "--eta", "0.3", "--pe", "0.02", "--phases", "0,0.4,1.3",
                       "--trials", "300", "--seed", "2", "--workers", "1"], 0),
    "epr_budget_30": (["epr", "--pe", "0.01", "--max-attempts", "30", "--trials", "300",
                       "--seed", "3", "--workers", "1"], 0),
    "epr_pe0": (["epr", "--pe", "0", "--max-attempts", "40", "--trials", "20",
                 "--seed", "4", "--workers", "1"], 1),
    "w3": (["w-state", "--n", "3", *W_COMMON, "--seed", "13"], 0),
    "w4": (["w-state", "--n", "4", *W_COMMON, "--seed", "14"], 0),
    "w5": (["w-state", "--n", "5", *W_COMMON, "--seed", "15"], 0),
    "w6": (["w-state", "--n", "6", *W_COMMON, "--seed", "16"], 0),
    "w4_cap3_finite": (["w-state", "--n", "4", "--cap", "3", "--na", "100", "--finite-size",
                        "--no-double-pair", "--phases", "0,0.5,1.2,-0.7", "--eta", "0.1",
                        "--pe", "0.03", "--trials", "100", "--seed", "7", "--workers", "1"], 0),
    "w3_workers2": (["w-state", "--n", "3", "--eta", "0.2", "--pe", "0.02", "--trials", "100",
                     "--seed", "5", "--workers", "2"], 0),
    "sweep": (SWEEP, 0),
    "sweep_csv": ([*SWEEP, "--format", "csv-summary"], 0),
    "teleport_cap5": (["teleport", "--cap", "5", "--alpha-re", "0.6", "--beta-re", "0.8",
                       "--pe", "0.05", "--eta", "0.1", "--trials", "4", "--seed", "11",
                       "--workers", "1"], 0),
    "w3_exhausted": (["w-state", "--n", "3", "--pe", "0.02", "--max-attempts", "200",
                      "--trials", "200", "--seed", "4", "--workers", "1"], 0),
    "teleport_cap4_exhausted": (["teleport", "--alpha-re", "0.6", "--beta-re", "0.8",
                                 "--pe", "0.02", "--eta", "0.2", "--trials", "30",
                                 "--seed", "3", "--workers", "1"], 0),
}


# the cases whose report is JSON, with a config echo
JSON_CASES = sorted(name for name, (argv, _) in CASES.items() if "csv-summary" not in argv)


def golden_path(name: str) -> Path:
    return GOLDEN / f"{name}.{'json' if name in JSON_CASES else 'csv'}"


def _run(name: str, out: Path) -> int:
    return main([*CASES[name][0], "-o", str(out)])


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    out = tmp_path / "report"
    assert _run(name, out) == CASES[name][1]
    assert out.read_bytes() == golden_path(name).read_bytes()


CHAIN_CASES = sorted(name for name, (argv, _) in CASES.items() if argv[0] != "teleport")


def _reseeded(argv: list[str]) -> list[str]:
    k = argv.index("--seed") + 1
    return [*argv[:k], str(int(argv[k]) + 1000), *argv[k + 1 :]]


@pytest.mark.parametrize("name", CHAIN_CASES)
def test_report_independent_of_cached_tables(name, tmp_path):
    # cold, warm, and warm after a batch of the same configuration at
    # another seed: the cached node tables must not show in the bytes
    argv, code = CASES[name]
    out = tmp_path / "report"
    _chain_engine.cache_clear()
    for run in ("cold", "warm", "reseeded"):
        if run == "reseeded":
            main([*_reseeded(argv), "-o", str(tmp_path / "other")])
        assert main([*argv, "-o", str(out)]) == code
        assert out.read_bytes() == golden_path(name).read_bytes(), run


def test_budget_is_part_of_the_table_key(tmp_path):
    # w3_exhausted's configuration at the default budget first: a table
    # shared across budgets would let its trials run past 200 rounds
    argv, code = CASES["w3_exhausted"]
    k = argv.index("--max-attempts")
    _chain_engine.cache_clear()
    assert main([*argv[:k], *argv[k + 2 :], "-o", str(tmp_path / "unbounded")]) == 0
    out = tmp_path / "report"
    assert main([*argv, "-o", str(out)]) == code
    assert out.read_bytes() == golden_path("w3_exhausted").read_bytes()


def _fields(name: str, data: bytes):
    """A golden file's values: the JSON document, or the CSV rows as dicts
    with the numbers parsed."""
    text = data.decode("utf-8")
    if name in JSON_CASES:
        return json.loads(text)
    rows = csv.DictReader(io.StringIO(text))
    return [{k: _number(v) for k, v in row.items()} for row in rows]


def _number(cell: str):
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def _changes(old, new, path: str = ""):
    """``(path, old value, new value)`` for every leaf that differs."""
    if isinstance(old, dict) and isinstance(new, dict):
        for k in [*old, *(k for k in new if k not in old)]:
            yield from _changes(old.get(k), new.get(k), f"{path}.{k}" if path else str(k))
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for k, (a, b) in enumerate(zip(old, new)):
            yield from _changes(a, b, f"{path}[{k}]")
    elif type(old) is not type(new) or old != new:
        yield path, old, new


def _ulps(a: float, b: float) -> int:
    """How many floats apart ``a`` and ``b`` are."""

    def ordinal(x: float) -> int:
        bits = struct.unpack("<q", struct.pack("<d", x))[0]
        return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)

    return abs(ordinal(a) - ordinal(b))


def _distance(a, b) -> str:
    if isinstance(a, float) and isinstance(b, float):
        return f" ({_ulps(a, b)} ulps)"
    if type(a) is int and type(b) is int:
        return f" ({b - a:+d})"
    return ""


if __name__ == "__main__":
    # rewrite every golden file, and print each changed field of those that
    # change: old value, new value and their distance
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        path = golden_path(case)
        old = path.read_bytes() if path.exists() else None
        code = _run(case, path)
        print(f"{case}: exit {code}", file=sys.stderr)
        new = path.read_bytes()
        if old is None or old == new:
            continue
        changes = list(_changes(_fields(case, old), _fields(case, new)))
        for field, a, b in changes:
            print(f"  {field}: {a!r} -> {b!r}{_distance(a, b)}", file=sys.stderr)
        if not changes:
            print("  bytes changed, no value did", file=sys.stderr)
