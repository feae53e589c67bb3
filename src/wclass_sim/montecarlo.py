"""Seeded batch runner and estimators for the protocol's quantitative claims.

Trials are reproducible and split into fixed blocks of ``_BLOCK``: block
``b`` of a batch, trials ``[b * _BLOCK, (b + 1) * _BLOCK)``, draws from PCG64
seeded by ``SeedSequence(seed mod 2**64, spawn_key=(b,))``
(:func:`rng_for_trial`), its trials one after another in trial order.  A
worker takes whole blocks, and aggregates are reduced in trial order, so
reports are bit-identical for a fixed configuration no matter how many
workers executed the batch.

A chain batch samples a block at a time (:meth:`ChainSimulator.sample`)
and keeps it as columns (:class:`ChainColumns`), from which it scores,
classifies and aggregates the whole block at once.  Integer sums are exact
Python ints for any budget, float sums are left folds over the trials in
order (``np.add.accumulate``, squares by ``np.float_power``), and a report
keeps the aggregates only: the columns are dropped once they are reduced.

A process keeps its last 8 chain configurations with their tables weighed
(:func:`_chain_engine`), so batches of one configuration at different seeds
weigh its table once, and the tables themselves per shape, so
configurations that differ only in p_e or eta > 0 build one
(:func:`~wclass_sim.protocol._chain_shape`).  Batches take their config
with seed 0 and zero phases
(:meth:`~wclass_sim.protocol.ProtocolConfig.table_config`: the phases are
a gauge), so no table or report depends on them.  A chain table is closed
once it is built and batches only read it, and its states do not depend on
the configuration that built it, so a batch's bytes never depend on what
ran before it.  A teleport batch draws both of its W
states from the n=3 chain table of its base configuration, the one a
``w-state --n 3`` batch of that configuration uses, and adds no node to it;
only its retrieval rounds are its own.

What a table needs beyond its rounds is made once per process, under the
fields it depends on, so a cold batch pays for its rounds and not for
their set-up: the layout (registry, modes, vacuum, zero-phase W state) per
(n, N_a, finite-size, cap) (:func:`~wclass_sim.protocol.make_chain_layout`)
and the tally tables per stage count.  Every cached value is made from its
key alone and never changes once made, so no report depends on what a
process ran before; README lists every cache.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Tuple

import numpy as np

from .errors import DomainError, InsufficientDataError, PreconditionError
from .fock import (
    FockState,
    count_excitations,  # unused here; bench/spans.py wraps this binding
    create,  # unused here; bench/spans.py wraps this binding
    fidelity,
    inner_product,
    left_sum,
    normalize,
    superpose,  # unused here; bench/spans.py wraps this binding
)
from .protocol import (
    ChainSimulator,
    Holder,
    ProtocolConfig,
    StageSpec,
    TeleportConfig,
    TeleportSimulator,
    chain_stages,
    connect_round,  # unused here; bench/spans.py wraps this binding
    epr_stage,
    epr_state,  # unused here; bench/spans.py wraps this binding
    ideal_w_state,
    localizable,
    make_chain_layout,
    make_teleport_layout,  # unused here; bench/spans.py wraps this binding
    qubit_state,
    receiver_localize,
    teleport,
    teleport_target_state,
)


def rng_for_trial(seed: int, block: int) -> np.random.Generator:
    """Splittable stream of one block of trials: derived from ``(seed,
    block)``."""
    ss = np.random.SeedSequence(entropy=seed & (2**64 - 1), spawn_key=(block,))
    return np.random.default_rng(ss)


_BLOCK = 1024  # trials per stream block, and per sampling pass


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


_W, _VACUUM, _OTHER = 1, 2, 3  # classification codes; 0 for an EPR pair


@dataclass
class ChainColumns:
    """The trials of a chain batch as columns, in trial order: per trial,
    whether it succeeded and its per-stage counts as rows of ``attempts``
    and ``successes`` (int64, or Python ints when the budget passes int64);
    per successful trial, its fidelity and its classification code."""

    succeeded: np.ndarray
    attempts: np.ndarray
    successes: np.ndarray
    fidelity: np.ndarray
    classification: np.ndarray

    @classmethod
    def concat(cls, parts: List[ChainColumns]) -> ChainColumns:
        if len(parts) == 1:
            return parts[0]
        return cls(*(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(cls)))


class _Report:
    def to_dict(self) -> dict:
        """Every field but ``rounds_total``, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "rounds_total"}


@dataclass
class RunReport(_Report):
    """Aggregates of one batch, without its per-trial columns; every
    estimate carries a standard error."""

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


@functools.lru_cache(maxsize=8)
def _chain_engine(
    cfg: ProtocolConfig, stages: Tuple[StageSpec, ...]
) -> Tuple[ChainSimulator, np.ndarray]:
    """``(simulator with its table evaluated, scores of its terminals)`` of
    a chain configuration, called with ``seed=0`` and ``phases=None``:
    batches that differ only in seed or phases share one.

    The table is its shape's, closed once built and weighed once per
    configuration, and batches only read it, so a batch draws on the same
    terminals and states whatever ran before it.  The scores hold
    ``(fidelity, P(the last two ensembles hold nothing) or NaN)`` per
    terminal (:attr:`~wclass_sim.protocol.ChainSimulator.scores`), against
    the zero-phase EPR pair or W state, as the table's states are.
    """
    sim = ChainSimulator(cfg, stages=stages)
    return sim, sim.scores


def _run_chain_trials(
    cfg: ProtocolConfig, stages: Tuple[StageSpec, ...], lo: int, hi: int
) -> List[ChainColumns]:
    """The columns of trials ``[lo, hi)``, ``lo`` a multiple of ``_BLOCK``,
    sampled a block at a time from the block's stream.  A W-chain trial that
    completes draws one uniform after the one that picks its final branch,
    for the Born draw that classifies an outcome that is not W."""
    sim, scores = _chain_engine(cfg.table_config(), stages)
    classify = len(stages) > 1
    out = []
    for start in range(lo, hi, _BLOCK):
        rng = rng_for_trial(cfg.seed, start // _BLOCK)  # by name: bench/spans.py wraps it
        s = sim.sample(rng, min(_BLOCK, hi - start), extra=int(classify))
        fid, p_empty = scores[s.terminal[s.succeeded]].T
        if classify:
            drawn = np.where(s.extra[s.succeeded, 0] < p_empty, _VACUUM, _OTHER)
            classes = np.where(np.isnan(p_empty), _W, drawn)
        else:  # an EPR pair is not classified
            classes = np.zeros(len(fid), int)
        out.append(ChainColumns(s.succeeded, s.attempts, s.successes, fid, classes))
    return out


def _collect_spans(fn, args: tuple, trials: int, workers: int) -> list:
    """``fn(*args, lo, hi)`` over spans ``[lo, hi)`` of the trials that
    start at block boundaries, one span per worker process and at most one
    worker per block, with the lists they return joined in trial order."""
    blocks = -(-trials // _BLOCK)
    if workers > 1:  # a forking pool starts all its workers at the first submit
        workers = min(workers, blocks, os.cpu_count() or 1)
    if workers <= 1:
        return fn(*args, 0, trials)
    # imported here: a one-worker run need not load multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    chunk = -(-blocks // workers) * _BLOCK
    spans = [(lo, min(lo + chunk, trials)) for lo in range(0, trials, chunk)]
    out: list = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *args, lo, hi) for lo, hi in spans]
        for fut in futures:  # submission order == trial order
            out.extend(fut.result())
    return out


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
        _chain_engine(cfg.table_config(), stages)
    parts = _collect_spans(_run_chain_trials, (cfg, stages), trials, workers)
    return _aggregate_chain(cfg, stages, ChainColumns.concat(parts))


def _column_sums(counts: np.ndarray) -> List[int]:
    """Exact column sums of a matrix of non-negative counts, as Python ints:
    int64 sums when no sum can pass int64, else Python sums."""
    if counts.dtype != object and len(counts) * int(counts.max(initial=0)) < 2**63:
        return counts.sum(axis=0).tolist()
    return [sum(col) for col in counts.T.tolist()]


def _squared_deviations(xs: np.ndarray, mean: float) -> float:
    """``sum((x - mean) ** 2 for x in xs)`` folded left, over a non-empty
    array: ``np.add.accumulate`` adds strictly left to right, and
    ``float_power`` squares with libm's ``pow`` as ``**`` does (``x * x``
    and ``np.power`` can differ in the last bit)."""
    dev = np.asarray(xs, dtype=float) - mean
    return float(np.add.accumulate(np.float_power(dev, 2.0))[-1])


def _deviations(xs) -> Tuple[float, np.ndarray, float]:
    """``(x0, x - x0, sum(x - x0) / n)`` of a non-empty sequence in order, the
    sum folded left.  The mean is taken as ``x0 + sum(x - x0) / n``, so a
    batch whose values are all equal reports that value, with no spread."""
    x = np.asarray(xs, dtype=float)
    dev = x - x[0]
    return float(x[0]), dev, float(np.add.accumulate(dev)[-1]) / len(x)


def _mean(xs) -> float | None:
    """The mean of :func:`_deviations`, or None for no values."""
    if not len(xs):
        return None
    x0, _, shift = _deviations(xs)
    return x0 + shift


def _aggregate_chain(
    cfg: ProtocolConfig, stages: Tuple[StageSpec, ...], cols: ChainColumns
) -> RunReport:
    labels = tuple(s.label for s in stages)
    connect_idx = [k for k, s in enumerate(stages) if s.kind == "connect"]
    trials = len(cols.succeeded)
    att_sum = _column_sums(cols.attempts)
    succ_sum = _column_sums(cols.successes)
    conn_att = sum(att_sum[k] for k in connect_idx)
    conn_succ = sum(succ_sum[k] for k in connect_idx)
    rounds_total = sum(att_sum)  # every round is one stage's attempt
    rounds = cols.attempts.sum(axis=1)  # each at most the budget
    fids = cols.fidelity  # trial order: float sums depend on it
    successes = len(fids)
    _, w_count, vac_count, _ = np.bincount(cols.classification, minlength=4).tolist()
    mean_attempts = tuple(s / trials for s in att_sum)
    p_c_hat = conn_succ / conn_att if conn_att else 0.0
    mean_rounds = rounds_total / trials
    mean_time = mean_rounds * cfg.t0
    sd_rounds = math.sqrt(_squared_deviations(rounds, mean_rounds) / max(1, trials - 1))
    predicted = None  # the law is the W chain's: a one-stage chain has none
    if p_c_hat > 0.0 and len(stages) > 1:
        predicted = predicted_generation_time(cfg.n, cfg.eta, min(1.0, p_c_hat), cfg.t0)
    fid_mean = fid_se = None
    if successes:
        x0, dev, shift = _deviations(fids)
        fid_mean = x0 + shift
        if successes > 1:
            fid_se = math.sqrt(_squared_deviations(dev, shift) / (successes - 1) / successes)
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
        rounds_total=rounds_total,
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
    """A row per trial of ``[lo, hi)``, ``lo`` a multiple of ``_BLOCK``, each
    block's trials drawn in turn from its stream: ``(succeeded, rounds, correct
    clicks, fidelity or None, this receiver holds or None, localized
    fidelity or None)``.  A fidelity is taken on correct clicks only, and
    localization on a :func:`~wclass_sim.protocol.localizable` state only (a
    vacuum-faking accept is not)."""
    # the phases are a gauge: run and score in the zero-phase frame
    tcfg = replace(tcfg, base=replace(tcfg.base, phases=None))
    sim = TeleportSimulator(tcfg, _chain_engine(tcfg.base.table_config(), chain_stages(3))[0])
    layout = sim.layout
    target = teleport_target_state(tcfg, layout)
    vac = layout.vacuum()
    carol_target = qubit_state(tcfg, vac, layout.carol)
    bob_target = qubit_state(tcfg, vac, layout.bob)
    out = []
    for start in range(lo, hi, _BLOCK):
        rng = rng_for_trial(tcfg.base.seed, start // _BLOCK)  # by name: bench/spans.py wraps it
        for _ in range(min(_BLOCK, hi - start)):
            res = teleport(tcfg, rng, sim)
            correct = bool(res.correct_clicks)
            fid = fidelity(res.state, target) if correct else None
            holder = loc_fid = None
            if res.succeeded and localizable(res.state):
                h, residual = receiver_localize(res.state, layout.carol, rng)
                holder = h is Holder.THIS_RECEIVER
                loc_fid = fidelity(residual, carol_target if holder else bob_target)
            out.append((res.succeeded, res.attempts, correct, fid, holder, loc_fid))
    return out


def run_teleport_batch(
    tcfg: TeleportConfig, trials: int, workers: int = 1
) -> TeleportReport:
    if trials < 1:
        raise ValueError("need at least one trial")
    if workers > 1:  # built before the pool starts, so forked workers inherit it
        _chain_engine(tcfg.base.table_config(), chain_stages(3))
    rows = _collect_spans(_run_teleport_trials, (tcfg,), trials, workers)
    succeeded, rounds, correct, fids, holders, loc_fids = zip(*rows)
    successes = sum(succeeded)
    fids = [f for f in fids if f is not None]
    holders = [h for h in holders if h is not None]
    loc_fids = [f for f in loc_fids if f is not None]
    mean_rounds = sum(rounds) / len(rows)
    holder_frac = sum(holders) / len(holders) if holders else None
    return TeleportReport(
        trials=trials,
        successes=successes,
        correct_click_fraction=sum(correct) / successes if successes else 0.0,
        fidelity_mean=_mean(fids),
        holder_this_fraction=holder_frac,
        localize_fidelity_mean=_mean(loc_fids),
        mean_time_s=mean_rounds * tcfg.base.t0,
        confidence={
            "holder_this_wilson95": list(wilson_interval(sum(holders), len(holders)))
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
        if abs(left_sum(weights) - 1.0) > 1e-12:
            raise PreconditionError("mixture weights must sum to one")


def fidelity_mixture(mix: NoisyStateMixture, target: FockState) -> float:
    """``sum_k w_k |<target|psi_k>|^2`` for a normalized target."""
    if abs(target.norm() - 1.0) > 1e-9:
        raise PreconditionError("target must be normalized")
    return left_sum(w * abs(inner_product(target, normalize(s))) ** 2 for w, s in mix.components)


def estimate_vacuum_coefficient(
    cfg: ProtocolConfig, trials: int, workers: int = 1
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
    c_hat = report.c_n_hat  # None exactly when no success is a W outcome
    if c_hat is None:
        raise InsufficientDataError("no W-class outcomes to normalize against")
    layout = make_chain_layout(cfg)
    mixture = NoisyStateMixture(
        [
            (c_hat / (1.0 + c_hat), layout.vacuum()),
            (1.0 / (1.0 + c_hat), ideal_w_state(cfg.n, cfg.phases, layout)),
        ]
    )
    return c_hat, mixture
