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
"""

from __future__ import annotations

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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        code = _run(case, golden_path(case))
        print(f"{case}: exit {code}", file=sys.stderr)
