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
