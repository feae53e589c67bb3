"""The in-process timing comparison (``tests/ab_calls.py``): a tree timed
against itself gives identical reports, and a checkout whose reports differ
is caught."""

import re
import shutil
from types import SimpleNamespace

import ab_calls
from compare_reports import ROOT

from wclass_sim.cli import SCHEMA_VERSION


def test_the_tree_times_against_itself_on_chain_and_scan_blocks(capsys):
    for workload in ("chain-sample", "param-scan"):
        args = [str(ROOT), "--workload", workload, "--seed", "1", "--blocks", "1"]
        assert ab_calls.main(args) == 0
        ratios, summary, *caches = capsys.readouterr().out.splitlines()
        assert re.fullmatch(r"ratios \d+\.\d{4}", ratios)
        assert re.fullmatch(
            r"other/this time per block: median \d+\.\d{4}, quartiles \d+\.\d{4} \d+\.\d{4}, "
            r"this tree faster in [01] of 1 blocks",
            summary,
        )
        # each side's shape cache after the timed calls: both sides run the
        # same calls from fresh caches, so they count alike
        assert len(caches) == 2
        for label, line in zip(("this", "other"), caches):
            assert re.fullmatch(
                label + r" _chain_shape: hits \d+, misses [1-9]\d*, size [1-9]\d* of 128", line
            )
        assert caches[0][len("this"):] == caches[1][len("other"):]


def test_a_checkout_with_other_reports_is_caught(tmp_path, capsys):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "wclass_sim" / "cli.py"
    bump = (f"SCHEMA_VERSION = {SCHEMA_VERSION}", f"SCHEMA_VERSION = {SCHEMA_VERSION + 1}")
    cli.write_text(cli.read_text().replace(*bump))
    args = [str(tmp_path), "--workload", "param-scan", "--seed", "1", "--blocks", "1"]
    assert ab_calls.main(args) == 1
    assert capsys.readouterr().out.startswith("call 0 gives different reports: w-state ")


def test_a_side_without_a_shape_cache_prints_no_cache_line():
    # a checkout from before chain tables were kept per shape has no
    # protocol._chain_shape: its side is skipped
    this = ab_calls.load_cli(ROOT, "ab_this")
    lines = ab_calls.shape_cache_lines((this, SimpleNamespace(__package__="ab_missing")))
    assert len(lines) == 1 and lines[0].startswith("this _chain_shape: hits ")
