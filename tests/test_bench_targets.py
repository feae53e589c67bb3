"""The benchmark's span tracer (``bench/spans.py``) wraps program names from
the outside, by attribute; a refactor that drops or moves one of them, or
that calls past the wrapped binding, breaks every traced benchmark run.
This checks the names, and that one small call reaches the enumerators
through them.  Its report checker (``bench/checks.py``) calls into the
program too; small reports must pass it, and the mean rounds of chain
reports must agree with its exact law whatever the random stream."""

import ast
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

import wclass_sim
import wclass_sim.cli  # noqa: F401  (the tracer wraps names bound in cli)
from oracle_helpers import terminal_law_reference

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
CHECKS = SPANS.with_name("checks.py")


def _load(path):
    spec = importlib.util.spec_from_file_location(f"bench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _spans():
    return _load(SPANS)


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
    # the W-state chain table is shared: built afresh, its rounds run traced
    wclass_sim.montecarlo._chain_engine.cache_clear()
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


def test_every_export_is_run_by_the_program_or_wrapped_by_the_benchmark():
    # a name the package exports must be read by another module of src/, a
    # demo or the benchmark, or be a binding the tracer wraps; a name only
    # the tests read belongs with them, in tests/oracle_helpers.py
    package = Path(wclass_sim.__file__).parent
    root = package.parents[1]
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    sources = [p for p in package.glob("*.py") if p.stem != "__init__"]
    sources += [*root.joinpath("demos").glob("*.py"), *root.joinpath("bench").glob("*.py")]
    referenced = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    wrapped = {attr for _, attr, _ in _spans()._targets(wclass_sim)}
    assert sorted(exported - referenced - wrapped) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["epr", "--eta", "0.3", "--trials", "200", "--seed", "3"],
        ["w-state", "--n", "4", "--eta", "0.3", "--trials", "200", "--seed", "4"],
        ["teleport", "--cap", "5", "--eta", "0.1", "--trials", "3", "--seed", "5"],
    ],
    ids=["epr", "w4", "teleport"],
)
def test_the_benchmark_checker_passes_small_reports(argv, capsys):
    # the benchmark scores every report with bench/checks.py, which calls
    # into cli and protocol: if those entry points drift, every call of a
    # benchmark run reads "incorrect"
    checks = _load(CHECKS)
    assert wclass_sim.cli.main(argv) == 0
    report = capsys.readouterr().out
    problems, z = checks.Checker(wclass_sim.cli, wclass_sim.protocol).check(argv, report)
    assert problems == []
    assert (z is None) == (argv[0] == "teleport")


# EPR and W chains of 3 to 6 ensembles, without and with loss, at caps 4 and 5
EXACT_ROUNDS_CASES = [
    [*chain, "--eta", eta, "--cap", cap]
    for chain in (["epr"], *(["w-state", "--n", str(n)] for n in range(3, 7)))
    for eta in ("0", "0.3")
    for cap in ("4", "5")
]


def test_mean_rounds_agree_with_the_exact_law(capsys):
    # a check that no random stream can pass by luck or fail by bad luck:
    # each report's mean rounds against the exact E[R] and Var[R] of its own
    # table (the compound geometric law of bench/checks.py), within 20
    # standard errors per report and 5 pooled over all of them
    checks = _load(CHECKS)
    checker = checks.Checker(wclass_sim.cli, wclass_sim.protocol)
    zs = []
    for seed, case in enumerate(EXACT_ROUNDS_CASES, start=100):
        argv = [*case, "--pe", "0.02", "--trials", "400", "--seed", str(seed), "--workers", "1"]
        assert wclass_sim.cli.main(argv) == 0
        problems, z = checker.check(argv, capsys.readouterr().out)
        assert problems == [], argv
        assert abs(z) <= checks.CALL_Z_LIMIT
        zs.append(z)
    assert abs(checks.pooled_z(zs)) <= checks.POOLED_Z_LIMIT


def _exact_success_fields(config, epr):
    """``{field: (mean, variance)}`` per completed trial of ``fidelity_mean``,
    ``w_fraction`` and ``vacuum_fraction``, from the terminal law of the
    chain table of ``config`` (:func:`terminal_law_reference`) and each final
    state's fidelity and P(last two ensembles empty).  A trial counts as W
    when its fidelity passes one half; any other is classified vacuum with
    that probability; an EPR pair is never classified.  A field that is the
    same on every final state has that value and no variance."""
    from wclass_sim.fock import count_excitations, fidelity, left_sum
    from wclass_sim.protocol import ChainSimulator, epr_stage, epr_state

    sim = ChainSimulator(config.table_config(), stages=(epr_stage(1, 2),) if epr else None)
    terminals, law = terminal_law_reference(sim)
    target = epr_state(sim.layout, 1, 2, 0.0) if epr else sim.layout.w_state
    per_terminal = {"fidelity_mean": [], "w_fraction": [], "vacuum_fraction": []}
    for br in terminals:
        fid = fidelity(br.state, target)
        is_w = not epr and fid > 0.5
        empty = 0.0
        if not (epr or is_w):
            empty = count_excitations(br.state, sim.layout.ensembles[-2:]).get(0, 0.0)
        per_terminal["fidelity_mean"].append(fid)
        per_terminal["w_fraction"].append(float(is_w))
        per_terminal["vacuum_fraction"].append(empty)
    out = {}
    for field, xs in per_terminal.items():
        if len(set(xs)) == 1:
            out[field] = (xs[0], 0.0)
            continue
        mean = left_sum(p * x for p, x in zip(law, xs))
        if field == "fidelity_mean":
            out[field] = (mean, left_sum(p * (x - mean) ** 2 for p, x in zip(law, xs)))
        else:  # the share of trials drawn with probability x on their final state
            out[field] = (mean, mean * (1.0 - mean))
    return out


def test_success_fields_agree_with_the_terminal_law(capsys):
    # fidelity_mean, w_fraction and vacuum_fraction of each report against
    # their exact law over the final states a completed pass ends in, whatever
    # the random stream: within 20 standard errors per report and field, and
    # 5 pooled per field over all reports; a field with no variance is exact
    checks = _load(CHECKS)
    zs = {}
    for seed, case in enumerate(EXACT_ROUNDS_CASES, start=100):
        argv = [*case, "--pe", "0.02", "--trials", "400", "--seed", str(seed), "--workers", "1"]
        assert wclass_sim.cli.main(argv) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        exact = _exact_success_fields(wclass_sim.cli.parse_args(argv).config, case[0] == "epr")
        for field, (mean, var) in exact.items():
            if var == 0.0:
                assert res[field] == mean, (argv, field)
                continue
            z = (res[field] - mean) / math.sqrt(var / res["successes"])
            assert abs(z) <= checks.CALL_Z_LIMIT, (argv, field, z)
            zs.setdefault(field, []).append(z)
    assert zs  # some field varies
    for field, field_zs in zs.items():
        assert abs(checks.pooled_z(field_zs)) <= checks.POOLED_Z_LIMIT, field
