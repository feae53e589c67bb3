"""Benchmark of the wclass-sim command line, end to end and by layer.

    python3 bench/run.py --workload chain-sample --seed 1 --seconds 20 --trace 0

Drives ``wclass_sim.cli.main`` in-process with ``--workers 1`` as a closed
loop with one client: each call starts when the previous one returns.  The
program is imported from ``src/`` of the checkout this file sits in.  All
inputs come from ``--seed`` (see workloads.py); every report is checked
(see checks.py) outside the timed interval.

``--trace 0`` runs the timed pass and prints the end-to-end metrics; every
timed metric is scaled to a reference machine speed measured in the same run
(see REFERENCE_S).
``--trace 1`` runs a fixed number of calls twice, untraced and traced
(spans.py), and prints the per-layer metrics, plus the process-pool speed-up
of chain-sample's calls.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from checks import POOLED_Z_LIMIT, Checker, pooled_z
from spans import CLASSIFY, ENUMERATORS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 15
TAIL_BEYOND = 10
# The machine's speed drifts: on a shared 2-core VM a fixed loop took
# anywhere from 1.0 to over 2 ms, in episodes of milliseconds whose share
# changes over minutes.  So a fixed pure-Python reference loop is timed around
# every call of the timed pass, once before it and for about REFERENCE_SHARE
# of its time after it, and each call's time is scaled by REFERENCE_S / (mean
# of those loops).  Set-up time, measured seconds before the pass, is scaled by
# REFERENCE_S / (mean of all the pass's loops).  Every timed metric is thus
# reported at the speed at which the reference loop takes REFERENCE_S, a round
# value near its undisturbed time on a 2-core Xeon when the benchmark was added.
REFERENCE_S = 1.0e-3
REFERENCE_SHARE = 0.05
# Traced blocks per second of --seconds: the untraced copy of the traced
# calls then takes a fifth to a quarter of --seconds on a 2-core Xeon.
TRACE_BLOCKS_PER_S = {"chain-sample": 0.15, "param-scan": 0.12, "teleport-loss": 0.7}
SPANS_DIR = ROOT / ".bench_out"

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import wclass_sim.cli
import workloads
workloads.generate(sys.argv[3], int(sys.argv[4]))
print(time.perf_counter() - t0)
"""


class ProgramMissing(Exception):
    pass


@dataclass
class Call:
    argv: list
    seconds: float
    rc: int | None
    report: str
    error: str | None = None


def load_program():
    """Import wclass_sim from this checkout's src/ (never an installed copy)."""
    if not (SRC / "wclass_sim" / "cli.py").is_file():
        raise ProgramMissing(f"no wclass_sim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {n: importlib.import_module(f"wclass_sim.{n}")
            for n in ("cli", "montecarlo", "protocol", "optics", "fock")}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"wclass_sim was imported from {mods['cli'].__file__}")
    return argparse.Namespace(**mods)


def run_call(main, argv, tracer=None) -> Call:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = main(argv) if tracer is None else tracer.top_call(main, "cli.main", argv)
            error = None
        except Exception as exc:  # a crash is a failed call, not a crashed benchmark
            rc, error = None, repr(exc)
        dt = time.perf_counter() - t0
    return Call(argv, dt, rc, out.getvalue(), error)


class Verdicts:
    """Checks each call once; tallies attempted / failed calls."""

    def __init__(self, checker: Checker):
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.zs: dict[tuple, float] = {}  # one z per distinct call

    def add(self, call: Call, problems=()) -> None:
        self.attempted += 1
        found = list(problems)
        if call.error is not None:
            found.append(f"raised {call.error}")
        elif call.rc != 0:
            found.append(f"exit code {call.rc}")
        else:
            try:
                more, z = self.checker.check(call.argv, call.report)
            except (KeyError, TypeError, ValueError) as exc:
                more, z = [f"malformed report: {exc!r}"], None
            found += more
            if z is not None:
                self.zs[tuple(call.argv)] = z
        if found:
            self.failed += 1
            self.problems.append(f"{' '.join(call.argv)}: {'; '.join(found)}")

    def pooled(self) -> tuple[bool, float]:
        z = pooled_z(list(self.zs.values()))
        return abs(z) <= POOLED_Z_LIMIT, z


# -- end-to-end (--trace 0) ---------------------------------------------------


_rng = random.Random(7)
REFERENCE_KEYS = tuple(tuple(_rng.randrange(3) for _ in range(8)) for _ in range(100))
del _rng


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop of the kind of work the
    simulator does (tuple keys, dict updates, complex arithmetic)."""
    t0 = time.perf_counter()
    acc: dict = {}
    for r in range(10):
        for k in REFERENCE_KEYS:
            k2 = k[1:] + k[:1]
            acc[k2] = acc.get(k2, 0j) + complex(r, 1) * 0.5
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh processes of import + input generation (seconds)."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH), workload, str(seed)]
    times = []
    for _ in range(SETUP_REPEATS + 1):  # the first one also writes bytecode caches
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times[1:])


@dataclass
class Timed:
    call: Call
    refs: list  # reference-loop times around the call

    @property
    def scaled(self) -> float:
        """The call's time at the reference speed."""
        return self.call.seconds * REFERENCE_S / statistics.mean(self.refs)


def timed_pass(main, blocks, seconds: float) -> tuple[list[Timed], float]:
    """Closed loop over whole blocks until ``seconds`` have passed, with
    reference loops around each call; (timed calls, wall)."""
    timed: list[Timed] = []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        for argv in blocks[i % len(blocks)]:
            before = reference_loop()
            call = run_call(main, argv)
            after = max(1, round(call.seconds * REFERENCE_SHARE / REFERENCE_S))
            timed.append(Timed(call, [before] + [reference_loop() for _ in range(after)]))
        i += 1
        if time.perf_counter() >= deadline:
            break
    return timed, time.perf_counter() - start


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, calls beyond) of the highest percentile with
    TAIL_BEYOND calls beyond it; the maximum when there are too few calls."""
    ordered = sorted(times)
    n = len(ordered)
    beyond = TAIL_BEYOND if n > TAIL_BEYOND else 0
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def end_to_end(wc, args, blocks, verdicts, info) -> dict:
    setup_s = measure_setup(args.workload, args.seed)
    for argv in blocks[0]:  # warm-up: lazy imports and first-call costs
        verdicts.add(run_call(wc.cli.main, argv))
    timed, wall = timed_pass(wc.cli.main, blocks, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for t in timed:
        verdicts.add(t.call)
    refs = [r for t in timed for r in t.refs]
    setup_scale = REFERENCE_S / statistics.mean(refs)
    raw = [t.call.seconds for t in timed]
    times = [t.scaled for t in timed]
    trials = sum(workloads.trials_of(t.call.argv) for t in timed)
    tail_s, tail_pct, beyond = tail(times)
    info.update(calls=len(timed), trials=trials, pass_wall_s=wall,
                tail_percentile=tail_pct, setup_scale=setup_scale)
    print(f"timed pass: {len(timed)} calls, {trials} trials, {wall:.3f} s, "
          "closed loop, 1 client")
    print(f"call_tail_ms is p{tail_pct:.2f} of {len(timed)} calls ({beyond} beyond it)")
    print(f"reference loop: mean {statistics.mean(refs) * 1e3:.4f} ms over {len(refs)} runs")
    print(f"unscaled trials_per_s = {trials / sum(raw):.6g} trials/s")
    print(f"unscaled call_p50_ms = {statistics.median(raw) * 1e3:.6g} ms")
    print(f"unscaled call_tail_ms = {tail(raw)[0] * 1e3:.6g} ms")
    print(f"unscaled setup_s = {setup_s:.6g} s")
    return {
        "trials_per_s": (trials / sum(times), "trials/s"),
        "call_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "call_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (setup_s * setup_scale, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


# -- per layer (--trace 1) ----------------------------------------------------


def pool_speedup(wc, seed: int, verdicts: Verdicts) -> float:
    """wall(--workers 1) / wall(--workers 2) over one chain-sample block."""
    walls = {1: 0.0, 2: 0.0}
    for argv in workloads.generate("chain-sample", seed)[0]:
        one = run_call(wc.cli.main, argv)
        two = run_call(wc.cli.main, [*argv[:-1], "2"])  # argv ends "--workers 1"
        verdicts.add(one)
        same = [] if two.report == one.report else ["--workers 2 report differs"]
        verdicts.add(two, same)
        walls[1] += one.seconds
        walls[2] += two.seconds
    return walls[1] / walls[2]


def per_layer(wc, args, blocks, verdicts, info) -> dict:
    for argv in blocks[0]:  # warm-up
        verdicts.add(run_call(wc.cli.main, argv))
    speedup = pool_speedup(wc, args.seed, verdicts)
    n_blocks = max(1, round(args.seconds * TRACE_BLOCKS_PER_S[args.workload]))
    traced_argvs = [argv for block in blocks[:n_blocks] for argv in block]
    tracer = Tracer()
    walls = {"plain": 0.0, "traced": 0.0}
    for i, argv in enumerate(traced_argvs):
        order = ("plain", "traced") if i % 2 == 0 else ("traced", "plain")
        got = {}
        for kind in order:
            if kind == "plain":
                got[kind] = run_call(wc.cli.main, argv)
            else:
                with tracer.install(wc):
                    got[kind] = run_call(wc.cli.main, argv, tracer)
            walls[kind] += got[kind].seconds
        verdicts.add(got["plain"])
        same = [] if got["traced"].report == got["plain"].report else ["traced report differs"]
        verdicts.add(got["traced"], same)

    tracer.save(SPANS_DIR / f"spans-{args.workload}.npz")
    s = tracer.summary()
    calls = len(traced_argvs)
    trials = sum(workloads.trials_of(a) for a in traced_argvs)
    info.update(calls=calls, trials=trials, spans=len(tracer.start))
    print(f"traced: {calls} calls, {trials} trials, {len(tracer.start)} spans")
    batch = ("montecarlo.run_batch", "montecarlo.run_epr_batch", "montecarlo.run_teleport_batch")
    n_enum = s.count(*ENUMERATORS)
    return {
        "cli.self_ms": (s.self_time("cli.main") / calls * 1e3, "ms/call"),
        "montecarlo.self_us_per_trial": (s.self_time(*batch) / trials * 1e6, "us/trial"),
        "montecarlo.rng_us_per_trial": (
            s.total("montecarlo.rng_for_trial") / trials * 1e6, "us/trial"),
        "montecarlo.pool_speedup": (speedup, "x"),
        "protocol.enumerate_ms_per_call": (
            s.self_time(*ENUMERATORS, "protocol.ChainSimulator.completion") / calls * 1e3,
            "ms/call"),
        "protocol.sample_us_per_trial": (
            s.self_time("protocol.ChainSimulator.run_trial") / trials * 1e6, "us/trial"),
        "protocol.rounds_enumerated": (n_enum / calls, "count/call"),
        "protocol.teleport_rounds_per_trial": (
            s.count("protocol.teleport_round") / trials, "count/trial"),
        "protocol.memo_hit_ratio": (
            s.memo_hits / s.round_lookups if s.round_lookups else 0.0, "ratio"),
        "protocol.branches_per_round": (
            tracer.round_branches / n_enum if n_enum else 0.0, "count/round"),
        "optics.self_ms_per_call": (s.layer_self_time("optics") / calls * 1e3, "ms/call"),
        "optics.calls_per_call": (s.layer_count("optics") / calls, "count/call"),
        "optics.outcome_branches": (tracer.outcome_branches / calls, "count/call"),
        "fock.self_ms_per_call": (s.layer_self_time("fock") / calls * 1e3, "ms/call"),
        "fock.states_built": (s.count("fock.FockState.__init__") / calls, "count/call"),
        "fock.terms_built": (tracer.terms_built / calls, "count/call"),
        "fock.classify_us_per_trial": (s.total(*CLASSIFY) / trials * 1e6, "us/trial"),
        "fock.key_calls": (s.count("fock.FockState.key") / trials, "count/trial"),
        "trace.overhead_frac": (
            (walls["traced"] - walls["plain"]) / walls["plain"], "ratio"),
    }


# -- provenance ---------------------------------------------------------------


def provenance(args) -> dict:
    import numpy

    cpu = platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": commit, "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        wc = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2

    blocks = workloads.generate(args.workload, args.seed)
    verdicts = Verdicts(Checker(wc.cli, wc.protocol))
    info = provenance(args)
    measure = per_layer if args.trace else end_to_end
    metrics = measure(wc, args, blocks, verdicts, info)

    pooled_ok, z = verdicts.pooled()
    if verdicts.zs:
        print(f"pooled z of mean rounds vs exact: {z:.3f} over {len(verdicts.zs)} reports "
              f"(limit {POOLED_Z_LIMIT})")
    for problem in verdicts.problems[:20]:
        print(f"FAILED {problem}")
    failed_frac = verdicts.failed / verdicts.attempted
    print(f"failed_frac = {failed_frac} ratio ({verdicts.failed} of {verdicts.attempted} calls)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print("provenance " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": verdicts.failed == 0 and pooled_ok,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
