"""Run a benchmark workload's calls through two checkouts and compare their
reports byte for byte.

    python tests/compare_reports.py OTHER_CHECKOUT --workload teleport-loss --seed 1 --blocks 40

The argument vectors are the first ``--blocks`` blocks that
``bench/workloads.py`` of this tree generates for ``--workload`` and
``--seed``.  Each checkout runs all of them in one subprocess of its own,
with its own ``src/`` first on the path, calling ``wclass_sim.cli.main``
in-process as the benchmark does.  A report is the exit code and the
standard output of a call.  Prints the first report that differs, with a
diff, and how many of the differing reports differ only in their
``schema_version`` line; then ``K of N identical``.  The exit status is 0
when all are identical and 1 otherwise, whatever the difference.
"""

from __future__ import annotations

import argparse
import difflib
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the report line that a schema bump changes
_SCHEMA_LINE = re.compile(r'^  "schema_version": \d+,$', re.MULTILINE)

# Runs in the subprocess: argv lists on stdin, [exit code, stdout] per call
# as JSON on stdout; argv[1] is the checkout's src/.
_WORKER = """\
import contextlib, io, json, sys
from pathlib import Path
src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))
import wclass_sim.cli
if not Path(wclass_sim.cli.__file__).resolve().is_relative_to(src):
    sys.exit(f"wclass_sim was imported from {wclass_sim.cli.__file__}, not {src}")
out = []
for argv in json.load(sys.stdin):
    report = io.StringIO()
    with contextlib.redirect_stdout(report), contextlib.redirect_stderr(io.StringIO()):
        rc = wclass_sim.cli.main(argv)
    out.append([rc, report.getvalue()])
json.dump(out, sys.stdout)
"""


def workload_argvs(workload: str, seed: int, blocks: int) -> list[list[str]]:
    """The calls of the first ``blocks`` blocks of the workload, in order."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    generated = workloads.generate(workload, seed)
    if not 1 <= blocks <= len(generated):
        raise ValueError(f"{workload} has blocks 1..{len(generated)}, not {blocks}")
    return [argv for block in generated[:blocks] for argv in block]


def run_reports(checkout: Path, argvs: list[list[str]]) -> list[tuple[int, str]]:
    """``(exit code, report)`` of each call, run by ``checkout``'s program."""
    done = subprocess.run(
        [sys.executable, "-c", _WORKER, str(Path(checkout) / "src")],
        input=json.dumps(argvs), capture_output=True, text=True,
    )
    if done.returncode:
        raise RuntimeError(f"{checkout} could not run the calls:\n{done.stderr}")
    return [tuple(r) for r in json.loads(done.stdout)]


def _schema_only(a: tuple[int, str], b: tuple[int, str]) -> bool:
    """Whether two different reports differ in their schema version alone."""
    return a != b and a[0] == b[0] and _SCHEMA_LINE.sub("", a[1]) == _SCHEMA_LINE.sub("", b[1])


def compare(
    this: Path, other: Path, workload: str, seed: int, blocks: int
) -> tuple[int, int, int, str | None]:
    """``(identical reports, reports that differ only in schema_version,
    reports, description of the first difference or None)`` of the
    workload's calls run by ``this`` and by ``other``."""
    argvs = workload_argvs(workload, seed, blocks)
    mine, theirs = run_reports(this, argvs), run_reports(other, argvs)
    same = sum(a == b for a, b in zip(mine, theirs))
    schema_only = sum(map(_schema_only, mine, theirs))
    for k, (argv, a, b) in enumerate(zip(argvs, mine, theirs)):
        if a != b:
            diff = difflib.unified_diff(
                b[1].splitlines(), a[1].splitlines(), str(other), str(this), lineterm=""
            )
            return same, schema_only, len(argvs), (
                f"call {k}: {' '.join(argv)}\nexit codes {b[0]} ({other}), {a[0]} ({this})\n"
                + "\n".join(diff)
            )
    return same, schema_only, len(argvs), None


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("other", type=Path, help="root of the checkout to compare with")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--blocks", type=int, default=1)
    args = p.parse_args(argv)
    same, schema_only, total, first = compare(
        ROOT, args.other, args.workload, args.seed, args.blocks
    )
    if first is not None:
        print(f"first report that differs: {first}")
        print(f"{schema_only} of {total - same} differing reports differ only in schema_version")
    print(f"{same} of {total} identical")
    return 0 if first is None else 1


if __name__ == "__main__":
    sys.exit(main())
