"""Seeded input generation for the benchmark workloads.

Each workload is a list of ``wclass-sim`` argument vectors, grouped in
blocks.  A block is the unit of balance: every block holds the same mix of
call kinds, and a timed or traced run always takes whole blocks, so the mix
of cheap and expensive calls is the same whatever the run length.  Inputs
depend only on the workload seed.
"""

from __future__ import annotations

import math
import random

CHAIN_TRIALS = 1000
SCAN_TRIALS = 20
TELEPORT_TRIALS = 1
TELEPORT_CAP = 5

# Number of blocks generated up front; a pass that runs out wraps around.
N_BLOCKS = {"chain-sample": 100, "param-scan": 60, "teleport-loss": 200}

WORKLOADS = tuple(N_BLOCKS)


def _call_seed(rng: random.Random) -> str:
    return str(rng.getrandbits(40))


def _chain_block(rng: random.Random) -> list[list[str]]:
    """One ``epr`` call and one ``w-state`` call for each n = 3..6."""
    common = ["--eta", "0.3", "--pe", "0.01", "--trials", str(CHAIN_TRIALS)]
    block = [["epr", *common]]
    block += [["w-state", "--n", str(n), *common] for n in range(3, 7)]
    rng.shuffle(block)
    return [[*argv, "--seed", _call_seed(rng), "--workers", "1"] for argv in block]


def _scan_block(rng: random.Random) -> list[list[str]]:
    """Each (n, cap, pump order) combination once per eta level.

    eta = 0 halves the cost of a call (no loss branches), so eta and p_e are
    balanced within the block rather than drawn; N_a and the phases are
    drawn per call, so no two calls share a configuration.
    """
    block = []
    for n in range(3, 7):
        for cap in (3, 4):
            for double_pair in (True, False):
                p_es = ["0.01", "0.02", "0.03", "0.05"]
                rng.shuffle(p_es)
                for eta, p_e in zip(("0.0", "0.1", "0.2", "0.3"), p_es):
                    phases = [0.0] + [round(rng.uniform(0.0, 2 * math.pi), 4)
                                      for _ in range(n - 1)]
                    argv = [
                        "w-state", "--n", str(n), "--eta", eta, "--pe", p_e,
                        "--phases", ",".join(repr(p) for p in phases), "--cap", str(cap),
                    ]
                    n_a = rng.choice((None, "100", "1000"))
                    if n_a is not None:
                        argv += ["--na", n_a, "--finite-size"]
                    if not double_pair:
                        argv.append("--no-double-pair")
                    block.append(argv)
    rng.shuffle(block)
    return [
        [*argv, "--trials", str(SCAN_TRIALS), "--seed", _call_seed(rng), "--workers", "1"]
        for argv in block
    ]


def _teleport_block(rng: random.Random) -> list[list[str]]:
    """One ``teleport`` call for each eta in {0, 0.1, 0.2}, random alpha/beta.

    ``--cap 5``: at the default cap of 4 a W_123 outcome that carries two
    excitations leaves no completing path for W_456, and the trial burns the
    whole attempt budget (see README.md).
    """
    block = []
    for eta in ("0.0", "0.1", "0.2"):
        amps = [rng.gauss(0.0, 1.0) for _ in range(4)]
        norm = math.sqrt(sum(a * a for a in amps))
        # "--flag=value": argparse would take "-3.7e-05" for an option
        block.append([
            "teleport", "--eta", eta, "--cap", str(TELEPORT_CAP),
            *(f"--{k}={a / norm!r}" for k, a in
              zip(("alpha-re", "alpha-im", "beta-re", "beta-im"), amps)),
            "--trials", str(TELEPORT_TRIALS),
        ])
    rng.shuffle(block)
    return [[*argv, "--seed", _call_seed(rng), "--workers", "1"] for argv in block]


_BLOCKS = {
    "chain-sample": _chain_block,
    "param-scan": _scan_block,
    "teleport-loss": _teleport_block,
}


def generate(workload: str, seed: int) -> list[list[list[str]]]:
    """The workload's input: ``N_BLOCKS[workload]`` blocks of argv lists."""
    rng = random.Random(f"{workload}:{seed}")
    make = _BLOCKS[workload]
    return [make(rng) for _ in range(N_BLOCKS[workload])]


def trials_of(argv: list[str]) -> int:
    return int(argv[argv.index("--trials") + 1])
