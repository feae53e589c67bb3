"""The side-by-side report check (``tests/compare_reports.py``): a tree
matches itself, and a checkout whose reports differ is caught."""

import shutil

import compare_reports
from compare_reports import ROOT, compare


def test_the_tree_matches_itself_on_teleport_and_chain_blocks():
    assert compare(ROOT, ROOT, "teleport-loss", seed=1, blocks=2) == (6, 6, None)
    assert compare(ROOT, ROOT, "chain-sample", seed=1, blocks=1) == (5, 5, None)


def test_a_checkout_with_other_reports_is_caught(tmp_path, capsys):
    # each checkout runs its own src/: bump the schema version in a copy
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "wclass_sim" / "cli.py"
    cli.write_text(cli.read_text().replace("SCHEMA_VERSION = 1", "SCHEMA_VERSION = 2"))
    args = [str(tmp_path), "--workload", "teleport-loss", "--seed", "1", "--blocks", "1"]
    assert compare_reports.main(args) == 1
    out = capsys.readouterr().out
    assert out.startswith("first report that differs: call 0: teleport ")
    assert '-  "schema_version": 2,\n+  "schema_version": 1,' in out
    assert out.endswith("0 of 3 identical\n")
