"""Golden reports: fixed command lines whose reports must not change.

Each case runs ``wclass-sim`` in-process and compares the report with the
committed file ``tests/golden/<name>.json`` (``<name>.csv`` for a
``csv-summary`` case) byte for byte.  Two cases cover
budget-exhausted trials: ``w3_exhausted`` (a multi-stage chain whose
budget of 200 rounds all its trials spend, so it reports with exit code 1)
and ``teleport_cap4_exhausted`` (at the default cap, 14 of its 30 trials
spend a budget of 50000 rounds).
Every case also runs with its node table cold, cached, and cached by a
batch at another seed, and cold after a batch of another configuration that
shares its per-process scaffolding or does not, to the same bytes.  A golden
file changes only when the random stream or a reported formula changes on
purpose.  To rewrite the files after such a change (and say why in
CHANGES.md), run

    PYTHONPATH=src python tests/test_golden.py

which prints every value that changed in a rewritten file, old and new,
with the distance between them in ulps (floats) or units (integers).  With
``--check`` it writes no file: it prints every value that a rewrite would
change, the same way, and exits with status 1 if there is one.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from wclass_sim import montecarlo, protocol
from wclass_sim.cli import main, parse_args
from wclass_sim.fock import debug_serialize
from wclass_sim.montecarlo import _chain_engine, run_batch

from compare_reports import ulps
from oracle_helpers import chain_records

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
    "teleport_cap5_single_pair": (["teleport", "--cap", "5", "--no-double-pair",
                                   "--alpha-re", "0.6", "--beta-re", "0.8", "--eta", "0.1",
                                   "--trials", "4", "--seed", "1", "--workers", "1"], 0),
    "w3_exhausted": (["w-state", "--n", "3", "--pe", "0.02", "--max-attempts", "200",
                      "--trials", "200", "--seed", "4", "--workers", "1"], 1),
    "teleport_cap4_exhausted": (["teleport", "--alpha-re", "0.6", "--beta-re", "0.8",
                                 "--pe", "0.05", "--eta", "0.2", "--max-attempts", "50000",
                                 "--trials", "30", "--seed", "3", "--workers", "1"], 0),
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


def _reseeded(argv: list[str]) -> list[str]:
    k = argv.index("--seed") + 1
    return [*argv[:k], str(int(argv[k]) + 1000), *argv[k + 1 :]]


def _clear_process_caches() -> None:
    """Empty every per-process cache of the engine: the chain tables, the
    scaffolding they share (layouts with their W states, tally tables) and
    the rounds' tables."""
    for module in (montecarlo, protocol):
        for cache in vars(module).values():
            if hasattr(cache, "cache_clear"):
                cache.cache_clear()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_independent_of_cached_tables(name, tmp_path):
    # cold, warm, and warm after a batch of the same configuration at
    # another seed; then cold again after a batch of another configuration
    # that shares its scaffolding (another p_e: the same n, N_a, finite size
    # and cap) or does not (another N_a).  The cached node tables, which
    # teleport batches share with w-state batches, and the scaffolding
    # cached beside them must not show in the bytes
    argv, code = CASES[name]
    out = tmp_path / "report"
    before = {
        "cold": None,
        "warm": None,
        "reseeded": _reseeded(argv),
        "after-shared": [*argv, "--pe", "0.031"],
        "after-unshared": [*argv, "--na", "77", "--finite-size"],
    }
    for run, other in before.items():
        if run in ("cold", "after-shared", "after-unshared"):
            _clear_process_caches()
        if other is not None:
            main([*other, "-o", str(tmp_path / "other")])
        assert main([*argv, "-o", str(out)]) == code
        assert out.read_bytes() == golden_path(name).read_bytes(), run


CHAIN_CASES = sorted(
    name for name in JSON_CASES if CASES[name][0][0] in ("epr", "w-state")
)


def _terminal_states(argv: list[str]) -> list[str]:
    """``debug_serialize`` of each terminal state of the table a chain
    command's batch draws from, read from the process's cached shape."""
    spec = parse_args(argv)
    cfg = spec.config.table_config()
    stages = (protocol.epr_stage(1, 2),) if argv[0] == "epr" else None
    return [debug_serialize(t[0]) for t in protocol.ChainSimulator(cfg, stages).shape.terminals]


@pytest.mark.parametrize("name", CHAIN_CASES)
def test_shapes_built_by_another_pe_and_eta_change_no_byte(name, tmp_path):
    # one chain table serves every (p_e, eta > 0) of its shape: the case
    # run cold, and run after a configuration of its shape with another p_e
    # (and another eta > 0, when the case's eta is positive) built the
    # table, and that other configuration run cold and after the case, give
    # the same report bytes and the same terminal states
    argv = CASES[name][0]
    other = [*argv, "--pe", "0.043"]
    if parse_args(argv).config.eta > 0.0:
        other += ["--eta", "0.17"]
    reports, states = {}, {}
    for order in ((argv, other), (other, argv), (argv,), (other,)):
        _clear_process_caches()
        for run in order:
            out = tmp_path / "report"
            main([*run, "-o", str(out)])
            key = "case" if run is argv else "other"
            reports.setdefault(key, set()).add(out.read_bytes())
            states.setdefault(key, set()).add(tuple(_terminal_states(run)))
    assert reports["case"] == {golden_path(name).read_bytes()}
    assert len(reports["other"]) == 1
    assert len(states["case"]) == len(states["other"]) == 1
    assert states["case"] == states["other"]


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


def test_one_terminal_state_reports_its_fidelity_exactly():
    # w4_cap3_finite's trials all end in one state: the report's mean is
    # that state's fidelity to the last bit, with no spread
    spec = parse_args(CASES["w4_cap3_finite"][0])
    report = run_batch(spec.config, spec.trials)
    fids = {r.fidelity for r in chain_records(spec.config, spec.trials) if r.succeeded}
    assert len(fids) == 1
    assert report.fidelity_mean == fids.pop()
    assert report.confidence["fidelity_mean_se"] == 0.0


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


def _distance(a, b) -> str:
    if isinstance(a, float) and isinstance(b, float):
        return f" ({ulps(a, b)} ulps)"
    if type(a) is int and type(b) is int:
        return f" ({b - a:+d})"
    return ""


def _rewrite(check: bool) -> int:
    """Run every case into its golden file (into a scratch file with
    ``check``) and print each changed field of the files that change: old
    value, new value and their distance.  Returns how many files change."""
    changed = 0
    with tempfile.TemporaryDirectory() as scratch:
        for case in sorted(CASES):
            path = golden_path(case)
            old = path.read_bytes() if path.exists() else None
            out = Path(scratch) / path.name if check else path
            code = _run(case, out)
            print(f"{case}: exit {code}", file=sys.stderr)
            new = out.read_bytes()
            if old == new:
                continue
            changed += 1
            if old is None:
                print("  new file", file=sys.stderr)
                continue
            changes = list(_changes(_fields(case, old), _fields(case, new)))
            for field, a, b in changes:
                print(f"  {field}: {a!r} -> {b!r}{_distance(a, b)}", file=sys.stderr)
            if not changes:
                print("  bytes changed, no value did", file=sys.stderr)
    return changed


if __name__ == "__main__":
    check = sys.argv[1:] == ["--check"]
    if sys.argv[1:] and not check:
        sys.exit(f"usage: {sys.argv[0]} [--check]")
    if not check:
        GOLDEN.mkdir(exist_ok=True)
    changed = _rewrite(check)
    print(f"{changed} of {len(CASES)} golden files {'would change' if check else 'changed'}",
          file=sys.stderr)
    sys.exit(1 if check and changed else 0)
