"""Seeded batch runner and estimators for the protocol's quantitative claims.

Trials are independent and reproducible: trial ``t`` of a batch draws from
PCG64 seeded by ``SeedSequence(seed mod 2**64, spawn_key=(t,))``
(:func:`rng_for_trial`), and aggregates are reduced in trial order, so
reports are bit-identical for a fixed configuration no matter how many
workers executed the batch.  A batch derives its trials' generator states
a block at a time (:func:`trial_rngs`), bit for bit the same.

A process keeps the node tables of its last 8 chain configurations
(:func:`_chain_engine`), so batches of one configuration at different seeds
build its table once.  A chain table is closed once it is built and
batches only read it, so a batch's bytes never depend on what ran before
it.  Teleport batches build their own tables: the W456 table grows during
trials from W123 outcomes, and ``FockState.key`` rounds amplitudes, so the
first trial to reach a key supplies its state and a shared table would make
a report depend on the batches run before it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Iterator, List, Tuple

import numpy as np

from .errors import (
    AttemptsExhaustedError,
    DomainError,
    InsufficientDataError,
    PreconditionError,
)
from .fock import (
    FockState,
    count_excitations,
    create,  # unused here; bench/spans.py wraps this binding
    fidelity,
    inner_product,
    normalize,
    superpose,  # unused here; bench/spans.py wraps this binding
)
from .protocol import (
    ChainSimulator,
    ProtocolConfig,
    StageSpec,
    TeleportConfig,
    TeleportSimulator,
    chain_stages,
    connect_round,  # unused here; bench/spans.py wraps this binding
    epr_stage,
    epr_state,
    ideal_w_state,
    make_chain_layout,
    make_teleport_layout,  # unused here; bench/spans.py wraps this binding
    qubit_state,
    receiver_localize,
    teleport,
    teleport_target_state,
)


def rng_for_trial(seed: int, trial_index: int) -> np.random.Generator:
    """Splittable per-trial stream: derived from ``(seed, trial_index)``."""
    ss = np.random.SeedSequence(
        entropy=seed & (2**64 - 1), spawn_key=(trial_index,)
    )
    return np.random.default_rng(ss)


# numpy's SeedSequence (pool of 4 words, hash constants and multipliers) and
# PCG64 (128-bit LCG multiplier), which trial_rngs reproduces
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # mixing entropy into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = 2**32 - 1, 2**128 - 1
_BLOCK = 4096  # trials derived per vectorized pass


def _hash_keys(const: int, mult: int, k: int) -> List[Tuple[int, int]]:
    """The ``(xor, multiplier)`` constants of SeedSequence's next ``k``
    hashes, the hash constant starting at ``const``."""
    keys = []
    for _ in range(k):
        after = const * mult & _M32
        keys.append((const, after))
        const = after
    return keys


# the pool takes 4 hashes to fill and 12 to mix, then 4 per spawn word
_MIX_KEYS = _hash_keys(_INIT_A, _MULT_A, 24)
# per spawn word and for generate_state's 8 words: the constants as columns,
# so that one array op hashes a row of trials with each of them
_SPAWN_KEYS = [
    np.array(_MIX_KEYS[k : k + _POOL], np.uint32).T[:, :, None] for k in (16, 20)
]
_STATE_KEYS = np.array(_hash_keys(_INIT_B, _MULT_B, 8), np.uint32).T[:, :, None]


def _hash(value, xor, mult):
    """SeedSequence's hash of 32-bit words, on ints or uint32 arrays."""
    value = (value ^ xor) * mult & _M32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of a hashed word ``y`` into the pool word ``x``, on
    ints or uint32 arrays (whose products wrap)."""
    r = x * _MIX_L - y * _MIX_R & _M32
    return r ^ r >> 16


def _entropy_pool(seed: int) -> List[int]:
    """The pool of ``SeedSequence(seed mod 2**64, spawn_key=(t,))`` once its
    entropy words are mixed in, which is the same for every ``t``."""
    e = seed & (2**64 - 1)
    words = [e & _M32, e >> 32] if e >> 32 else [e]
    words += [0] * (_POOL - len(words))  # a spawn key pads entropy to the pool
    keys = iter(_MIX_KEYS)
    pool = [_hash(w, *next(keys)) for w in words]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], *next(keys)))
    return pool


def _pcg_seeds(pool: List[int], lo: int, hi: int) -> List[list]:
    """PCG64's ``(state high, state low, inc high, inc low)`` seed words, as
    lists of ints, of the trials ``[lo, hi)`` (all below or all from 2**32,
    whose spawn key is then one or two words)."""
    t = np.arange(lo, hi, dtype=np.uint64)
    words = [t & _M32, t >> 32] if lo >> 32 else [t]
    mixed = np.array(pool, np.uint32)[:, None]
    for w, (xor, mult) in zip(words, _SPAWN_KEYS):
        # the word hashed once per pool word, into a (pool, trials) array
        mixed = _mix(mixed, _hash(w.astype(np.uint32), xor, mult))
    # generate_state(4, uint64): 8 words cycled from the pool, paired low first
    out = _hash(np.vstack((mixed, mixed)), *_STATE_KEYS).astype(np.uint64)
    return (out[0::2] | out[1::2] << 32).tolist()


def trial_rngs(seed: int, lo: int, hi: int) -> Iterator[np.random.Generator]:
    """``rng_for_trial(seed, t)`` for each ``t`` in ``[lo, hi)``, derived
    ``_BLOCK`` trials at a time.

    The hashing of the spawn word runs on uint32 arrays over the block, and
    PCG64's seeding (``inc = 2 initseq + 1``, then two LCG steps) on ints.
    One generator is yielded over and over, set to each trial's state in
    turn, so a trial's draws must be taken before the next one is asked for.
    """
    if not 0 <= lo <= hi <= 2**64:
        raise ValueError("trial indices must lie in [0, 2**64)")
    pool = _entropy_pool(seed)
    rng = np.random.Generator(np.random.PCG64(0))
    bitgen = rng.bit_generator
    for start in range(lo, hi, _BLOCK):
        stop = min(start + _BLOCK, hi)
        for a, b in ((start, min(stop, 2**32)), (max(start, 2**32), stop)):
            if a >= b:
                continue
            for s_hi, s_lo, i_hi, i_lo in zip(*_pcg_seeds(pool, a, b)):
                inc = (i_hi << 65 | i_lo << 1 | 1) & _M128
                state = ((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc & _M128
                bitgen.state = {
                    "bit_generator": "PCG64",
                    "state": {"state": state, "inc": inc},
                    "has_uint32": 0,
                    "uinteger": 0,
                }
                yield rng


def wilson_interval(successes: int, total: int, z: float = 1.96) -> Tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    if total == 0:
        return (0.0, 1.0)
    p = successes / total
    d = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / d
    half = z * math.sqrt(p * (1 - p) / total + z * z / (4 * total * total)) / d
    return (max(0.0, center - half), min(1.0, center + half))


def predicted_generation_time(n: int, eta: float, p_c: float, t0: float) -> float:
    """Scaling-law prediction ``t0 / ((1 - eta)^(2n-1) p_c^n)``.

    ``p_c`` is the per-round click probability; the ``2n - 1`` survival
    factors count every photon the heralding consumes.
    """
    if not 0.0 <= eta < 1.0:
        raise DomainError("eta must lie in [0, 1)")
    if not 0.0 < p_c <= 1.0:
        raise DomainError("p_c must lie in (0, 1]")
    return t0 / ((1.0 - eta) ** (2 * n - 1) * p_c**n)


# ---------------------------------------------------------------------------
# chain batches
# ---------------------------------------------------------------------------


@dataclass
class TrialRecord:
    """Per-trial summary of one chain build."""

    index: int
    succeeded: bool
    rounds: int
    stage_attempts: Tuple[int, ...]
    stage_successes: Tuple[int, ...]
    fidelity: float | None
    classification: str | None  # "w" | "vacuum" | "other"


class _Report:
    def to_dict(self) -> dict:
        """Every field but ``rounds_total`` and ``records``, in field order."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("rounds_total", "records")
        }


@dataclass
class RunReport(_Report):
    """Aggregates of one batch; every estimate carries a standard error."""

    trials: int
    successes: int
    stage_labels: Tuple[str, ...]
    mean_attempts_per_stage: Tuple[float, ...]
    p_c_hat: float
    mean_time_s: float
    predicted_time_s: float | None
    c_n_hat: float | None
    fidelity_mean: float | None
    w_fraction: float
    vacuum_fraction: float
    confidence: Dict[str, object]
    rounds_total: int  # exact sum of the trials' rounds; not in to_dict
    records: List[TrialRecord] = field(default_factory=list, repr=False)


def _final_outcome(
    state: FockState, target: FockState, layout, classify: bool
) -> Tuple[float, float | None]:
    """``(fidelity with target, P(the last two ensembles hold nothing))`` of
    a final state; the second is None when the state is never classified
    (an EPR pair, or a W outcome).

    A success counts as a W outcome when it overlaps the ideal W state by
    more than one half.  Otherwise the excitation number of the last two
    ensembles is measured (Born sampled): finding them empty is the vacuum
    signature of a multi-pair emission whose partner photon was lost, and
    anything else is residual contamination.
    """
    fid = fidelity(state, target)
    if not classify or fid > 0.5:
        return fid, None
    return fid, count_excitations(state, layout.ensembles[-2:]).get(0, 0.0)


@functools.lru_cache(maxsize=8)
def _chain_engine(
    cfg: ProtocolConfig, stages: Tuple[StageSpec, ...]
) -> Tuple[ChainSimulator, FockState, Dict[int, Tuple[float, float | None]]]:
    """``(simulator with its node table built, target state, memo of final
    states)`` of a chain configuration, called with ``seed=0``: batches that
    differ only in their seed share one.

    The table is closed once built (every node reachable from the vacuum
    root is built with it) and batches only read it, so a batch draws on
    the same nodes and states whatever ran before it.  The memo maps ``id``
    of a final state, which the table keeps alive (so the id is never
    reused), to :func:`_final_outcome`.
    """
    sim = ChainSimulator(cfg, stages=stages)
    sim._vacuum_root  # builds the table
    if len(stages) == 1:  # a one-stage chain ends in the EPR pair
        i, j = stages[0].i, stages[0].j
        target = epr_state(sim.layout, i, j, cfg.phases[j - 1] - cfg.phases[i - 1])
    else:
        target = ideal_w_state(cfg.n, cfg.phases, sim.layout)
    return sim, target, {}


def _run_chain_trials(
    cfg: ProtocolConfig, stages: Tuple[StageSpec, ...], lo: int, hi: int
) -> List[TrialRecord]:
    sim, target, finals = _chain_engine(replace(cfg, seed=0), stages)
    epr = len(stages) == 1
    out: List[TrialRecord] = []
    for t, rng in zip(range(lo, hi), trial_rngs(cfg.seed, lo, hi)):
        res = sim.run_trial(rng)
        fid, cls = None, None
        if res.succeeded:
            state = res.final_state
            seen = finals.get(id(state))
            if seen is None:
                seen = finals[id(state)] = _final_outcome(state, target, sim.layout, not epr)
            fid, p_empty = seen
            if not epr:
                if p_empty is None:
                    cls = "w"
                else:  # the Born draw of the tail's excitation number
                    cls = "vacuum" if rng.random() < p_empty else "other"
        out.append(
            TrialRecord(
                t,
                res.succeeded,
                res.rounds,
                res.stage_attempts,
                res.stage_successes,
                fid,
                cls,
            )
        )
    return out


def _collect_records(fn, args_builder, trials: int, workers: int) -> list:
    if workers <= 1:
        return fn(*args_builder(0, trials))
    # imported here: a one-worker run need not load multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    chunk = (trials + workers - 1) // workers
    spans = [(lo, min(lo + chunk, trials)) for lo in range(0, trials, chunk)]
    records: list = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *args_builder(lo, hi)) for lo, hi in spans]
        for fut in futures:  # submission order == trial order
            records.extend(fut.result())
    return records


def run_batch(
    cfg: ProtocolConfig,
    trials: int,
    workers: int = 1,
    stages: Tuple[StageSpec, ...] | None = None,
) -> RunReport:
    """Run ``trials`` independent seeded chain builds and aggregate them.

    ``stages`` defaults to the ``n``-party W chain; a one-stage list is an
    EPR batch, scored against the EPR pair and not classified.  Exhausted
    trials are recorded as failures, not raised.  Deterministic for fixed
    ``(cfg, trials)`` and independent of ``workers``.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    stages = chain_stages(cfg.n) if stages is None else tuple(stages)
    if workers > 1:  # built before the pool starts, so forked workers inherit it
        _chain_engine(replace(cfg, seed=0), stages)
    records = _collect_records(
        _run_chain_trials, lambda lo, hi: (cfg, stages, lo, hi), trials, workers
    )
    return _aggregate_chain(cfg, stages, records)


def _aggregate_chain(
    cfg: ProtocolConfig, stages: Tuple[StageSpec, ...], records: List[TrialRecord]
) -> RunReport:
    labels = tuple(s.label for s in stages)
    connect_idx = [k for k, s in enumerate(stages) if s.kind == "connect"]
    trials = len(records)
    # exact integer column sums, so their order does not matter
    att_sum = [sum(col) for col in zip(*(r.stage_attempts for r in records))]
    succ_sum = [sum(col) for col in zip(*(r.stage_successes for r in records))]
    conn_att = sum(att_sum[k] for k in connect_idx)
    conn_succ = sum(succ_sum[k] for k in connect_idx)
    rounds = [r.rounds for r in records]
    done = [r for r in records if r.succeeded]
    successes = len(done)
    fids = [r.fidelity for r in done]  # trial order: float sums depend on it
    classes = [r.classification for r in done]
    w_count = classes.count("w")
    vac_count = classes.count("vacuum")
    mean_attempts = tuple(s / trials for s in att_sum)
    p_c_hat = conn_succ / conn_att if conn_att else 0.0
    mean_rounds = sum(rounds) / trials
    mean_time = mean_rounds * cfg.t0
    sd_rounds = math.sqrt(
        sum((x - mean_rounds) ** 2 for x in rounds) / max(1, trials - 1)
    )
    predicted = None
    if p_c_hat > 0.0:
        predicted = predicted_generation_time(
            cfg.n, cfg.eta, min(1.0, p_c_hat), cfg.t0
        )
    fid_mean = sum(fids) / len(fids) if fids else None
    fid_se = None
    if len(fids) > 1:
        fid_se = math.sqrt(
            sum((x - fid_mean) ** 2 for x in fids) / (len(fids) - 1) / len(fids)
        )
    c_n = None
    c_n_se = None
    if w_count > 0:
        c_n = vac_count / w_count
        if vac_count > 0:
            c_n_se = c_n * math.sqrt(1.0 / vac_count + 1.0 / w_count)
    confidence = {
        "p_c_hat_wilson95": list(wilson_interval(conn_succ, conn_att)),
        "mean_time_s_se": sd_rounds / math.sqrt(trials) * cfg.t0,
        "fidelity_mean_se": fid_se,
        "c_n_hat_se": c_n_se,
    }
    return RunReport(
        trials=trials,
        successes=successes,
        stage_labels=labels,
        mean_attempts_per_stage=mean_attempts,
        p_c_hat=p_c_hat,
        mean_time_s=mean_time,
        predicted_time_s=predicted,
        c_n_hat=c_n,
        fidelity_mean=fid_mean,
        w_fraction=w_count / successes if successes else 0.0,
        vacuum_fraction=vac_count / successes if successes else 0.0,
        confidence=confidence,
        rounds_total=sum(rounds),
        records=records,
    )


# ---------------------------------------------------------------------------
# EPR batches (two-party building block, used by the `epr` command)
# ---------------------------------------------------------------------------


def run_epr_batch(cfg: ProtocolConfig, trials: int, workers: int = 1) -> RunReport:
    """Batch of two-party entangling rounds; fidelity is against the exact
    two-party target state."""
    return run_batch(cfg, trials, workers, stages=(epr_stage(1, 2),))


# ---------------------------------------------------------------------------
# teleport batches
# ---------------------------------------------------------------------------


@dataclass
class TeleportReport(_Report):
    trials: int
    successes: int
    correct_click_fraction: float
    fidelity_mean: float | None  # vs the exact receiver state, correct clicks
    holder_this_fraction: float | None  # localization on Carol's pair
    localize_fidelity_mean: float | None
    mean_time_s: float
    confidence: Dict[str, object]
    rounds_total: int  # exact sum of the trials' rounds; not in to_dict


def _run_teleport_trials(tcfg: TeleportConfig, lo: int, hi: int) -> List[tuple]:
    sim = TeleportSimulator(tcfg)
    layout = sim.layout
    target = teleport_target_state(tcfg, layout)
    vac = layout.vacuum()
    carol_target = qubit_state(tcfg, vac, layout.carol)
    bob_target = qubit_state(tcfg, vac, layout.bob)
    out = []
    for t, rng in zip(range(lo, hi), trial_rngs(tcfg.base.seed, lo, hi)):
        try:
            res = teleport(tcfg, rng, sim)
        except AttemptsExhaustedError:
            out.append((t, False, tcfg.base.max_attempts, False, None, None, None))
            continue
        correct = bool(res.info and res.info.get("correct_clicks"))
        fid = fidelity(res.state, target) if correct else None
        holder = None
        loc_fid = None
        try:
            h, residual = receiver_localize(res.state, layout.carol, rng)
            holder = h.value == "this-receiver"
            loc_fid = fidelity(residual, carol_target if holder else bob_target)
        except PreconditionError:
            pass  # vacuum-faking accept; flagged, not localizable
        out.append((t, True, res.attempts, correct, fid, holder, loc_fid))
    return out


def run_teleport_batch(
    tcfg: TeleportConfig, trials: int, workers: int = 1
) -> TeleportReport:
    if trials < 1:
        raise ValueError("need at least one trial")
    rows = _collect_records(
        _run_teleport_trials, lambda lo, hi: (tcfg, lo, hi), trials, workers
    )
    successes = sum(1 for r in rows if r[1])
    correct = sum(1 for r in rows if r[3])
    fids = [r[4] for r in rows if r[4] is not None]
    holders = [r[5] for r in rows if r[5] is not None]
    loc_fids = [r[6] for r in rows if r[6] is not None]
    rounds = [r[2] for r in rows]
    mean_rounds = sum(rounds) / len(rows)
    fid_mean = sum(fids) / len(fids) if fids else None
    holder_frac = sum(holders) / len(holders) if holders else None
    loc_mean = sum(loc_fids) / len(loc_fids) if loc_fids else None
    return TeleportReport(
        trials=trials,
        successes=successes,
        correct_click_fraction=correct / successes if successes else 0.0,
        fidelity_mean=fid_mean,
        holder_this_fraction=holder_frac,
        localize_fidelity_mean=loc_mean,
        mean_time_s=mean_rounds * tcfg.base.t0,
        confidence={
            "holder_this_wilson95": list(
                wilson_interval(sum(1 for h in holders if h), len(holders))
            )
            if holders
            else None,
        },
        rounds_total=sum(rounds),
    )


# ---------------------------------------------------------------------------
# noise mixture / vacuum coefficient
# ---------------------------------------------------------------------------


@dataclass
class NoisyStateMixture:
    """Classical mixture of conditioned pure states."""

    components: List[Tuple[float, FockState]]

    def __post_init__(self) -> None:
        weights = [w for w, _ in self.components]
        if any(w < 0 for w in weights):
            raise PreconditionError("mixture weights must be non-negative")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise PreconditionError("mixture weights must sum to one")


def fidelity_mixture(mix: NoisyStateMixture, target: FockState) -> float:
    """``sum_k w_k |<target|psi_k>|^2`` for a normalized target."""
    if abs(target.norm() - 1.0) > 1e-9:
        raise PreconditionError("target must be normalized")
    return sum(w * abs(inner_product(target, normalize(s))) ** 2 for w, s in mix.components)


def estimate_vacuum_coefficient(
    cfg: ProtocolConfig, trials: int, workers: int = 1, layout=None
) -> Tuple[float, NoisyStateMixture]:
    """Estimate the vacuum coefficient from click-conditioned successes.

    Successes are classified into vacuum outcomes (no excitation left in the
    last two ensembles: a multi-pair emission whose partner photon was lost
    faked the click) versus W outcomes; the coefficient is their ratio, and
    the returned mixture is ``(c * vac + |W><W|) / (c + 1)``.
    """
    if trials < 1000:
        raise PreconditionError("vacuum-coefficient estimation needs >= 1e3 trials")
    report = run_batch(cfg, trials, workers=workers)
    if report.successes == 0:
        raise InsufficientDataError("no successful chain builds")
    w_count = round(report.w_fraction * report.successes)
    if w_count == 0:
        raise InsufficientDataError("no W-class outcomes to normalize against")
    c_hat = report.c_n_hat
    if layout is None:
        layout = make_chain_layout(cfg)
    mixture = NoisyStateMixture(
        [
            (c_hat / (1.0 + c_hat), layout.vacuum()),
            (1.0 / (1.0 + c_hat), ideal_w_state(cfg.n, cfg.phases, layout)),
        ]
    )
    return c_hat, mixture
