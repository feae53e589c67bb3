"""The side-by-side report check (``tests/compare_reports.py``): a tree
matches itself, and a checkout whose reports differ is caught."""

import shutil

import compare_reports
from compare_reports import ROOT, compare

from wclass_sim.cli import SCHEMA_VERSION

BUMP = (f"SCHEMA_VERSION = {SCHEMA_VERSION}", f"SCHEMA_VERSION = {SCHEMA_VERSION + 1}")


def test_the_tree_matches_itself_on_teleport_and_chain_blocks():
    assert compare(ROOT, ROOT, "teleport-loss", seed=1, blocks=2) == (6, 0, 6, None)
    assert compare(ROOT, ROOT, "chain-sample", seed=1, blocks=1) == (5, 0, 5, None)


def test_a_checkout_with_other_reports_is_caught(tmp_path, capsys):
    # each checkout runs its own src/: bump the schema version in a copy
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "wclass_sim" / "cli.py"
    cli.write_text(cli.read_text().replace(*BUMP))
    args = [str(tmp_path), "--workload", "teleport-loss", "--seed", "1", "--blocks", "1"]
    assert compare_reports.main(args) == 1
    out = capsys.readouterr().out
    assert out.startswith("first report that differs: call 0: teleport ")
    v = SCHEMA_VERSION
    assert f'-  "schema_version": {v + 1},\n+  "schema_version": {v},' in out
    assert out.endswith(
        "3 of 3 differing reports differ only in schema_version\n0 of 3 identical\n"
    )


def test_a_difference_past_the_schema_version_is_counted_apart(tmp_path, capsys):
    # a bumped schema and a changed result: the reports differ, and not only
    # in their schema version
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "wclass_sim" / "cli.py"
    text = cli.read_text().replace(*BUMP)
    cli.write_text(text.replace('"command": spec.command,', '"command": spec.command * 2,'))
    args = [str(tmp_path), "--workload", "chain-sample", "--seed", "1", "--blocks", "1"]
    assert compare_reports.main(args) == 1
    assert capsys.readouterr().out.endswith(
        "0 of 5 differing reports differ only in schema_version\n0 of 5 identical\n"
    )


def test_field_differences_give_each_numeric_fields_largest_distance():
    one = '{"results": {"p": 0.5, "n": 3, "label": "w", "xs": [1.0, 2.0]}}'
    two = '{"results": {"p": 0.5000000000000002, "n": 5, "label": "v", "xs": [1.0, 2.0]}}'
    three = '{"results": {"p": 0.5000000000000003, "n": 3, "label": "w", "xs": [1.0, null]}}'
    numeric, other = compare_reports.field_differences(
        [((0, one), (0, two)), ((0, one), (1, three)), ((0, "a,b\n"), (0, "a,c\n"))]
    )
    assert numeric == {"results.p": "3 ulps", "results.n": "2 units"}
    assert other == {
        "results.label": 1, "exit code": 1, "results.xs[1]": 1, "report (not JSON)": 1,
    }


def test_differing_reports_print_their_field_distances(tmp_path, capsys):
    # a mean moved by one ulp and a changed string, in every chain report
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    mc = tmp_path / "src" / "wclass_sim" / "montecarlo.py"
    mc.write_text(mc.read_text().replace(
        "mean_time_s=mean_time,", "mean_time_s=math.nextafter(mean_time, math.inf),"
    ))
    cli = tmp_path / "src" / "wclass_sim" / "cli.py"
    cli.write_text(cli.read_text().replace('"command": spec.command,', '"command": "x",'))
    args = [str(tmp_path), "--workload", "chain-sample", "--seed", "1", "--blocks", "1"]
    assert compare_reports.main(args) == 1
    out = capsys.readouterr().out
    assert (
        "largest distance per numeric field:\n  results.mean_time_s: 1 ulps\n"
        "other differences:\n  command: 5 reports\n"
    ) in out
