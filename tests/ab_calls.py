"""Time a benchmark workload's calls in this tree against another checkout,
in one process, and check that their reports are byte-identical.

    python tests/ab_calls.py OTHER_CHECKOUT --workload param-scan --seed 5 --blocks 20

Both checkouts' ``wclass_sim`` are imported into this process under
distinct package names (``ab_this`` and ``ab_other``), each from its own
``src/``, so each keeps its own caches.  The calls are the first
``--blocks`` blocks that ``bench/workloads.py`` of this tree generates for
``--workload`` and ``--seed``; the first block runs once on both sides
untimed, as the benchmark's warm-up does.  Then every call runs on both
sides, one right after the other, the side that goes first alternating from
call to call, and a block's time on a side is the sum of its calls' times.
A report is the exit code and the standard output of a call.

Prints, per block, the ratio of the other checkout's time to this tree's
(above 1: this tree is faster), then their median, quartiles and how many
blocks this tree won, then each side's chain-shape cache
(``protocol._chain_shape``): its hits and misses over the warm-up and timed
calls, and its size, for a side whose checkout has that cache.  Exits with
1, naming the call, at the first report that differs.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import statistics
import sys
import time
from pathlib import Path

from compare_reports import ROOT, workload_argvs


def load_cli(checkout: Path, name: str):
    """``checkout``'s ``wclass_sim.cli``, imported as package ``name``."""
    src = Path(checkout).resolve() / "src" / "wclass_sim"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)]
    )
    if spec is None:
        raise FileNotFoundError(f"no wclass_sim package under {src}")
    for loaded in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[loaded]  # a fresh import, with fresh caches
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def run_call(cli, argv: list[str]) -> tuple[float, tuple[int, str]]:
    """``(seconds, (exit code, report))`` of one in-process call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        seconds = time.perf_counter() - t0
    return seconds, (rc, out.getvalue())


def block_ratios(sides, workload: str, seed: int, blocks: int) -> list[float]:
    """Per block, the second side's time over the first's, each side a
    loaded ``cli``.  Raises ``AssertionError`` at the first call whose
    reports differ."""
    per_block = len(workload_argvs(workload, seed, 1))
    argvs = workload_argvs(workload, seed, blocks)
    for argv in argvs[:per_block]:  # warm-up: lazy imports and first-call costs
        for cli in sides:
            run_call(cli, argv)
    ratios = []
    times = [0.0, 0.0]
    for k, argv in enumerate(argvs):
        got = [None, None]
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            seconds, got[side] = run_call(sides[side], argv)
            times[side] += seconds
        assert got[0] == got[1], f"call {k} gives different reports: {' '.join(argv)}"
        if (k + 1) % per_block == 0:
            ratios.append(times[1] / times[0])
            times = [0.0, 0.0]
    return ratios


def summary(ratios: list[float]) -> str:
    """Median, quartiles and wins of the per-block ratios."""
    q1, med, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    wins = sum(r > 1.0 for r in ratios)
    return (
        f"other/this time per block: median {med:.4f}, quartiles {q1:.4f} {q3:.4f}, "
        f"this tree faster in {wins} of {len(ratios)} blocks"
    )


def shape_cache_lines(sides) -> list[str]:
    """Each side's ``protocol._chain_shape`` hits, misses and size; none for
    a side whose checkout has no such cache."""
    lines = []
    for label, cli in zip(("this", "other"), sides):
        cache = getattr(sys.modules.get(f"{cli.__package__}.protocol"), "_chain_shape", None)
        if cache is not None:
            info = cache.cache_info()
            lines.append(
                f"{label} _chain_shape: hits {info.hits}, misses {info.misses}, "
                f"size {info.currsize} of {info.maxsize}"
            )
    return lines


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("other", type=Path, help="root of the checkout to time against")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--blocks", type=int, default=1)
    args = p.parse_args(argv)
    sides = (load_cli(ROOT, "ab_this"), load_cli(args.other, "ab_other"))
    try:
        ratios = block_ratios(sides, args.workload, args.seed, args.blocks)
    except AssertionError as exc:
        print(exc)
        return 1
    print("ratios " + " ".join(f"{r:.4f}" for r in ratios))
    print(summary(ratios))
    for line in shape_cache_lines(sides):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
